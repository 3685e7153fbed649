import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from hashlib import sha256

import pytest
from conftest import as_json, inline_detector
from hypothesis import example, given, settings, strategies as st

import spadsim
from spadsim import KINDS, SCENARIOS, ConfigError, correlator_grids, preset, validate_config
from spadsim.cli import main

# SHA-256 of every output of test_detector_summaries_carry_the_draw_contract's
# documents at draw contract 4. jitter-scan is left out: its curve goes through
# a Gaussian fit, whose last digits can move with the numpy version and the
# LAPACK/BLAS build behind its dot products.
PINNED_OUTPUTS = {
    "interarrival": {
        "histogram_csv": "80db9d9a8c08288f0adf6969fe29269fc489516dc7d8beb9645f8a2d00607e00",
        "summary_json": "bd62703c6a309436b5039b1eaf29736e62a4096689a87c245e5538724aa953d3",
    },
    "pair-scan": {
        "curve_csv": "b6514ae2fe1638203f55117b5a992f8073578ff634593c0f3dc88b83922d751c",
        "points_csv": "3e00f2896fcd6d85665254472376cd225fc18c3bdce2aec54d0cdc4dbc43bc95",
        "summary_json": "38dd2bbd1a388665d41019d65320023222346c206f8d5c0d491e24f1f1487589",
    },
    "autocorr": {
        "histogram_csv": "b67c5b6280e961afffa5932d384cf03995dda35e45acd27f876fa8fc8e73cd95",
        "summary_json": "c9629e417e9be6e14f4eef50d5de9afe4cfd1c1ae04445565111d36a1d7cc75e",
    },
    "qkd": {
        "report_json": "dc632478dcb3b96d152580597418d0f2875b22e9ee442a4343ad0b27694e6186",
        "crosscorr_csv": "68591738a0266944086d66f4f257c6db842405ad1195e8f3cd58b7e8acc11a94",
    },
}


# The pair-scan and jitter-scan documents of
# test_detector_summaries_carry_the_draw_contract, run at seed 2.
PAIR_SOURCE = {"delta_ts_ps": [200_000], "pair_period_ps": 1_000_000, "n_pairs": 200}
JITTER_SCAN_DOC = {
    "detector": {"preset": "spcm-aqrh"},
    "source": PAIR_SOURCE,
    "instrument": {"min_pairs": 10},
}


def write_config(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def interarrival_doc(outdir, *, analyze=False, rate_cps=100_000.0, duration_ps=2_000_000_000):
    return {
        "version": 1,
        "kind": "interarrival",
        "seed": 3,
        "detector": {"preset": "spcm-aqrh"},
        "source": {"rate_cps": rate_cps, "duration_ps": duration_ps},
        "instrument": {"analyze": analyze},
        "outputs": {
            "histogram_csv": str(outdir / "hist.csv"),
            "summary_json": str(outdir / "summary.json"),
        },
    }


class TestKeyrate:
    def test_unit_inputs_give_one_bit_per_second(self, capsys):
        code = main(
            ["keyrate", "--m", "1", "--eta", "1", "--n-mean", "1", "--xi", "1", "--bin-ps", "1e12"]
        )
        assert code == 0
        assert capsys.readouterr().out == "key_rate_bits_per_s=1\n"

    def test_worked_example(self, capsys):
        code = main(
            ["keyrate", "--m", "8", "--eta", "0.1", "--n-mean", "1", "--xi", "0.001", "--bin-ps", "260"]
        )
        assert code == 0
        out = capsys.readouterr().out
        key, value = out.strip().split("=")
        assert key == "key_rate_bits_per_s"
        assert float(value) == pytest.approx(3.0769230769e5, rel=1e-9)

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["keyrate", "--m", "1"]) == 1

    def test_nan_input_is_named(self, capsys):
        code = main(
            ["keyrate", "--m", "1", "--eta", "1", "--n-mean", "nan", "--xi", "1", "--bin-ps", "521"]
        )
        assert code == 1
        assert "config error: inputs.n_mean: must be a finite number" in capsys.readouterr().err

    def test_rate_that_is_not_finite_names_the_inputs(self, capsys):
        args = ["--m", "1", "--eta", "1", "--n-mean", "1", "--xi", "1", "--bin-ps", "1e-300"]
        code = main(["keyrate", *args])
        assert code == 1
        assert "config error: inputs: the key rate comes out as inf" in capsys.readouterr().err

    @pytest.mark.parametrize("xi, rate", [("0.001", "inf"), ("0", "nan")])
    def test_bin_width_of_zero_seconds_names_the_inputs(self, capsys, xi, rate):
        # 5e-324 ps is 0 s as a float: the rate is inf, or NaN with no bits, never a traceback.
        args = ["--m", "8", "--eta", "0.1", "--n-mean", "1", "--xi", xi, "--bin-ps", "5e-324"]
        assert main(["keyrate", *args]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: inputs: the key rate comes out as {rate}, not a finite number\n"


class TestPreset:
    def test_list(self, capsys):
        assert main(["preset", "list"]) == 0
        assert capsys.readouterr().out.splitlines() == ["spcm-aqrh", "spd-050", "custom-aq"]

    def test_show_round_trips(self, capsys):
        assert main(["preset", "show", "spd-050", "--variant", "ttl"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "spd-050"
        assert inline_detector(doc["params"]) == preset("spd-050", variant="ttl").params
        assert isinstance(doc["notes"], dict) and doc["notes"]

    def test_unknown_name_fails_cleanly(self, capsys):
        assert main(["preset", "show", "sqcm"]) == 1
        assert "invalid value" in capsys.readouterr().err

    def test_variant_of_a_preset_without_variants_fails(self, capsys):
        assert main(["preset", "show", "custom-aq", "--variant", "ttl"]) == 1
        assert "has no variants" in capsys.readouterr().err


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        path = write_config(tmp_path, interarrival_doc(tmp_path))
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == "valid=1\nkind=interarrival\n"

    def test_bad_config_names_field(self, tmp_path, capsys):
        doc = interarrival_doc(tmp_path)
        doc["source"]["duration_ps"] = -5
        path = write_config(tmp_path, doc)
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "source.duration_ps" in err

    @pytest.mark.parametrize("rate_cps", [1.0e18, 1.0e300])
    def test_rate_finer_than_the_time_grid_is_a_config_error(self, tmp_path, capsys, rate_cps):
        # Past 1e12 cps the mean gap is below 1 ps: simulate would fail on allocation.
        path = write_config(tmp_path, interarrival_doc(tmp_path, rate_cps=rate_cps))
        assert main(["validate", path]) == 1
        assert capsys.readouterr().err.startswith("config error: source.rate_cps must lie in ")

    @pytest.mark.parametrize("kind", ["pair-scan", "jitter-scan"])
    def test_zero_occupancy_is_a_config_error(self, tmp_path, capsys, kind):
        # An empty source emits no first photons, so no scan point can be read.
        doc = {
            "version": 1,
            "kind": kind,
            "seed": 1,
            "detector": {"preset": "spcm-aqrh"},
            "source": {
                "delta_ts_ps": [200_000],
                "pair_period_ps": 1_000_000,
                "n_pairs": 10,
                "occupancy": 0.0,
            },
        }
        assert main(["validate", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "source.occupancy" in err

    def test_poisson_mean_past_numpy_limit_is_a_config_error(self, tmp_path, capsys):
        # About 1.2e25 expected photons: numpy's Poisson draw refuses a mean past ~9.2e18.
        doc = {
            "version": 1,
            "kind": "autocorr",
            "seed": 1,
            "detector": {"preset": "spcm-aqrh"},
            "source": {
                "period_ps": 100,
                "mean_photons_per_pulse": 1e9,
                "duration_ps": 1152921504606846975,
            },
            "instrument": {"max_lag_ps": 2000000, "bin_width_ps": 50},
        }
        assert main(["validate", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: source.mean_photons_per_pulse times ")

    def test_afterpulsing_that_never_dies_out_is_a_config_error(self, tmp_path, capsys):
        # About 2.2 live traps per avalanche: chains of afterpulses would never end.
        params = as_json(preset("spcm-aqrh").params)
        params["afterpulse"] = {"mu": 3.0, "tau_trap_ps": 1e5}
        doc = interarrival_doc(tmp_path)
        doc["detector"] = {"params": params}
        assert main(["validate", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: detector.params.afterpulse must fill < 1 live trap")

    def test_trap_mean_past_numpy_limit_is_a_config_error(self, tmp_path, capsys):
        # The dead time outlasts the delay clamp, so no trap is live, but
        # numpy's Poisson draw refuses a mean past ~9.2e18.
        params = as_json(preset("spcm-aqrh").params)
        params.update(tau_dead0_ps=2_000_000_000_000_000, tau_quench_ps=0)
        params["afterpulse"]["mu"] = 1e300
        doc = interarrival_doc(tmp_path, rate_cps=1e6)
        doc["detector"] = {"params": params}
        assert main(["validate", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: detector.params.afterpulse.mu must be < 2**62")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "none.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_validate_does_not_write_outputs(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        path = write_config(tmp_path, interarrival_doc(out))
        assert main(["validate", path]) == 0
        assert list(out.iterdir()) == []


class TestSimulate:
    def run_into(self, tmp_path, name, capsys):
        out = tmp_path / name
        out.mkdir()
        cfg = write_config(tmp_path, interarrival_doc(out), name + ".json")
        assert main(["simulate", cfg]) == 0
        captured = capsys.readouterr().out
        return out, captured

    def test_writes_exactly_declared_outputs(self, tmp_path, capsys):
        out, stdout = self.run_into(tmp_path, "a", capsys)
        assert sorted(p.name for p in out.iterdir()) == ["hist.csv", "summary.json"]
        assert "n_pulses=" in stdout and "detected_rate_cps=" in stdout
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_pulses"] > 0
        assert sum(summary["cause_counts"].values()) == summary["n_pulses"]
        lines = (out / "hist.csv").read_text().splitlines()
        assert lines[0] == "bin_start_ps,count"
        assert lines[-1].startswith("#underflow=")

    def test_detector_summaries_carry_the_draw_contract(self, tmp_path, capsys):
        docs = {
            "interarrival": interarrival_doc(tmp_path),
            "pair-scan": {"detector": {"preset": "spcm-aqrh"}, "source": dict(PAIR_SOURCE)},
            "jitter-scan": copy.deepcopy(JITTER_SCAN_DOC),
            "autocorr": {
                "detector": {"preset": "spcm-aqrh"},
                "source": {
                    "period_ps": 1000, "mean_photons_per_pulse": 0.01, "duration_ps": 10**8
                },
                "instrument": {"max_lag_ps": 100_000, "bin_width_ps": 100},
            },
            "qkd": {
                "detector_a": {"preset": "custom-aq"},
                "detector_b": {"preset": "custom-aq"},
                "source": {
                    "rep_rate_hz": 1.92e9, "mean_pairs_per_pulse": 0.008, "duration_ps": 10**8
                },
                "frame": {"bin_width_ps": 521, "bins_per_frame": 1024},
            },
        }
        digests = {}
        for kind, doc in docs.items():
            outs = {key: tmp_path / f"{kind}.{key}" for key in SCENARIOS[kind].outputs}
            doc.update(version=1, kind=kind, seed=2, outputs={k: str(p) for k, p in outs.items()})
            assert main(["simulate", write_config(tmp_path, doc)]) == 0, kind
            summary = outs["report_json" if kind == "qkd" else "summary_json"]
            assert json.loads(summary.read_text())["draw_contract"] == spadsim.DRAW_CONTRACT == 4
            if kind in PINNED_OUTPUTS:
                digests[kind] = {k: sha256(p.read_bytes()).hexdigest() for k, p in outs.items()}
        assert "draw_contract" not in capsys.readouterr().out
        assert digests == PINNED_OUTPUTS, (
            "the pulse stream moved for the same detectors and seed: "
            "bump DRAW_CONTRACT or find the regression"
        )

    def test_jitter_scan_points_are_pinned(self):
        # The jitter-scan curve is left out of PINNED_OUTPUTS for its fit's
        # last digits; the pair points behind it are integers and involve no
        # BLAS, so they are pinned here: the counts per spacing, and one
        # SHA-256 over every point's intervals, out2 and cause2 bytes.
        doc = dict(copy.deepcopy(JITTER_SCAN_DOC), version=1, kind="jitter-scan", seed=2)
        cfg = validate_config(doc)
        points = spadsim.run_pair_scan(cfg["detector"], cfg["source"], cfg["seed"])
        counts = [(p.delta_t_ps, p.n_pairs, p.n_first, p.n_both) for p in points]
        assert counts == [(200_000, 200, 128, 84)]
        digest = sha256()
        for p in points:
            for a in (p.intervals, p.out2, p.cause2):
                digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "2e5055fa0a70babb52ca8728f62f96943f7f269c3448753bf9a5d993e81b1f72"
        )

    def test_missing_points_are_json_null(self, tmp_path, capsys):
        # A blind detector sees no first slot; at occupancy 0.01 the one pair
        # slot emits no first photon; 10 pairs are below min_pairs' default.
        source = {"delta_ts_ps": [200_000], "pair_period_ps": 1_000_000, "n_pairs": 10}
        unlit = dict(source, n_pairs=1, occupancy=0.01)
        blind = {"params": {"efficiency": 0.0, "tau_dead0_ps": 24000, "tau_quench_ps": 10000}}
        spcm = {"preset": "spcm-aqrh"}
        docs = [
            ("pair-scan", {"detector": blind, "source": source}, "ratios"),
            ("pair-scan", {"detector": spcm, "source": unlit}, "ratios"),
            ("jitter-scan", {"detector": spcm, "source": source}, "shift_ps"),
        ]

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        summaries = []
        for i, (kind, doc, key) in enumerate(docs):
            out = tmp_path / f"{i}.json"
            doc.update(version=1, kind=kind, seed=1, outputs={"summary_json": str(out)})
            assert main(["simulate", write_config(tmp_path, doc)]) == 0, kind
            summaries.append(json.loads(out.read_text(), parse_constant=reject))
            assert summaries[-1][key] == [None], kind
        assert summaries[1]["n_pairs"] == [0]
        stdout = capsys.readouterr().out
        assert "ratio_200000=nan" in stdout and "shift_200000=nan" in stdout

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out1, _ = self.run_into(tmp_path, "a", capsys)
        out2, _ = self.run_into(tmp_path, "b", capsys)
        assert (out1 / "hist.csv").read_bytes() == (out2 / "hist.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_analysis_failure_exits_two(self, tmp_path, capsys):
        doc = interarrival_doc(tmp_path, analyze=True, rate_cps=0.0, duration_ps=1_000_000)
        path = write_config(tmp_path, doc)
        assert main(["simulate", path]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_interarrival_analysis_reports_the_fit(self, tmp_path, capsys):
        # Criterion 2's run and bounds, read back from stdout and the summary.
        doc = interarrival_doc(tmp_path, analyze=True, rate_cps=76_923.0)
        doc.update(seed=12345)
        doc["source"]["duration_ps"] = 8_000_000_000_000
        doc["instrument"].update(bin_width_ps=500, span_ps=2_048_000)
        assert main(["simulate", write_config(tmp_path, doc)]) == 0
        stdout = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key in ("dead_time_ps", "p_afterpulse", "tau_trap_ps"):
            assert float(stdout[key]) == pytest.approx(summary[key], rel=1e-9), key
        assert abs(summary["dead_time_ps"] - 29_100.0) <= 500.0
        assert abs(summary["p_afterpulse"] - 0.0068) <= 0.0015
        assert abs(summary["tau_trap_ps"] - 32_000.0) <= 4_000.0
        assert summary["fit_residual"] >= 0.0

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        def run(cfg):
            raise MemoryError("Unable to allocate 54.9 GiB")

        monkeypatch.setitem(SCENARIOS, "interarrival", replace(SCENARIOS["interarrival"], run=run))
        assert main(["simulate", write_config(tmp_path, interarrival_doc(tmp_path))]) == 2
        assert capsys.readouterr().err == "runtime error: Unable to allocate 54.9 GiB\n"

    @pytest.mark.parametrize(
        "field, name",
        [
            ({"base_delay_ps": 2**58}, "base_delay_ps"),
            ({"shift_curve": [[0, -(2.0**58)], [1e15, 0]]}, "shift_curve"),
            ({"jitter_curve": [[0, 2.0**58]]}, "jitter_curve"),
        ],
    )
    def test_output_times_past_int64_exit_one(self, tmp_path, capsys, field, name):
        # The time budget keeps output times inside int64: a delay of 2**58 ps
        # or more is refused when the config is loaded, before anything runs.
        doc = interarrival_doc(tmp_path, duration_ps=100_000_000)
        params = {"efficiency": 0.5, "tau_dead0_ps": 24000, "tau_quench_ps": 10000}
        doc["detector"] = {"params": dict(params, **field)}
        assert main(["simulate", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: detector.params.{name} ") and "2**58" in err
        assert not (tmp_path / "hist.csv").exists()

    def test_keyrate_config(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "kind": "keyrate",
            "seed": 0,
            "inputs": {"m_channels": 1, "eta": 1.0, "n_mean": 1.0, "xi": 1.0, "bin_width_ps": 1e12},
            "outputs": {"summary_json": str(tmp_path / "k.json")},
        }
        assert main(["simulate", write_config(tmp_path, doc)]) == 0
        assert "key_rate_bits_per_s=1\n" in capsys.readouterr().out
        assert json.loads((tmp_path / "k.json").read_text())["key_rate_bits_per_s"] == 1.0


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1


def pythonpath_env() -> dict:
    """The environment with this checkout's spadsim first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spadsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_one_parser_serves_every_call_as_fresh_processes_do(tmp_path, capsys):
    """`main` builds its parser once per process and reuses it: a bad
    argument, then a run, a preset listing and the run again give the exit
    codes and stdout that a fresh process gives for each."""
    config = write_config(tmp_path, interarrival_doc(tmp_path))
    env = pythonpath_env()
    for argv in (["simulate"], ["simulate", config], ["preset", "list"], ["simulate", config]):
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "spadsim.cli", *argv], env=env, capture_output=True, text=True
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    """The CLI is imported by its users, not by the package, and no run,
    fit included, loads scipy."""
    env = pythonpath_env()
    interarrival = interarrival_doc(
        tmp_path, analyze=True, rate_cps=76_923.0, duration_ps=400_000_000_000
    )
    interarrival.update(seed=1)
    jitter = {
        "version": 1,
        "kind": "jitter-scan",
        "seed": 1,
        "detector": {"preset": "spcm-aqrh"},
        "source": {"delta_ts_ps": [30_000, 200_000], "pair_period_ps": 1_000_000, "n_pairs": 1200},
        "instrument": {"min_pairs": 100},
        "outputs": {"summary_json": str(tmp_path / "jitter.json")},
    }
    configs = [write_config(tmp_path, interarrival, "a.json"), write_config(tmp_path, jitter, "j.json")]
    probe = (
        "import sys, spadsim\n"
        "print(spadsim.__file__, 'scipy.optimize' in sys.modules, 'spadsim.cli' in sys.modules)\n"
        "from spadsim.cli import main\n"
        "print([main(['simulate', path]) for path in sys.argv[1:]])\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *configs], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0] == f"{spadsim.__file__} False False"
    assert out[-2:] == ["[0, 0]", "False"]
    # Both runs went through their fits.
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["p_afterpulse"] > 0 and summary["tau_trap_ps"] > 0
    fwhm = json.loads((tmp_path / "jitter.json").read_text())["fwhm_ps"]
    assert all(f is not None and f > 0 for f in fwhm)


# An inline detector with every curve, a low dark rate and short dead times.
FUZZ_DETECTOR = {
    "efficiency": 0.5,
    "tau_dead0_ps": 20_000,
    "tau_quench_ps": 10_000,
    "base_delay_ps": 1_000,
    "dark_rate_cps": 100.0,
    "dead_elongation": [[0.0, 0.0], [1e7, 1_000.0]],
    "twilight_profile": [[10_000.0, 0.0], [20_000.0, 1.0]],
    "jitter_curve": [[20_000.0, 300.0], [100_000.0, 100.0]],
    "shift_curve": [[20_000.0, 50.0], [100_000.0, 0.0]],
    "afterpulse": {"mu": 0.05, "tau_trap_ps": 30_000.0},
    "blanking": {"t_b_ps": 20_000},
}
FUZZ_PAIRS = {"delta_ts_ps": [20_000, 40_000], "pair_period_ps": 1_000_000, "n_pairs": 300}

# One small document per kind that spells out every section field, defaults
# included, so that each numeric one is mutated.
FUZZ_DOCS = {
    "interarrival": {
        "source": {"rate_cps": 1e6, "duration_ps": 100_000_000},
        "instrument": {
            "bin_width_ps": 1_000, "span_ps": 200_000, "analyze": True, "tau_trap_guess_ps": 32_000.0
        },
    },
    "jitter-scan": {"source": dict(FUZZ_PAIRS, occupancy=1.0), "instrument": {"min_pairs": 100}},
    "pair-scan": {"source": dict(FUZZ_PAIRS, occupancy=1.0)},
    "autocorr": {
        "source": {
            "period_ps": 521, "mean_photons_per_pulse": 0.5, "duration_ps": 10_000_000,
            "pulse_fwhm_ps": 50,
        },
        "instrument": {"max_lag_ps": 60_000, "bin_width_ps": 100},
    },
    "qkd": {
        "source": {
            "rep_rate_hz": 1.92e9, "mean_pairs_per_pulse": 0.05, "duration_ps": 1_000_000,
            "eta_alice": 0.9, "eta_bob": 0.9, "emission_fwhm_ps": 20,
        },
        "frame": {"bin_width_ps": 521, "bins_per_frame": 1024},
        "instrument": {
            "ac_bin_width_ps": 65, "ac_span_ps": 80_015, "cc_bin_width_ps": 130, "cc_span_ps": 100_100
        },
    },
    "keyrate": {
        "inputs": {"m_channels": 8, "eta": 0.1, "n_mean": 1.0, "xi": 0.001, "bin_width_ps": 260.0}
    },
}
for _kind, _doc in FUZZ_DOCS.items():
    _doc.update(version=1, kind=_kind, seed=7)
    for _slot in SCENARIOS[_kind].detectors:
        _doc[_slot] = {"params": FUZZ_DETECTOR}


def numeric_leaves(node, path=()):
    """(path, int or float) of every number in a config document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool) and path != ("version",):
        yield path, type(node)


FUZZ_FIELDS = {kind: list(numeric_leaves(doc)) for kind, doc in FUZZ_DOCS.items()}
# 0, +-1, 2**k - 1, 2**k and 2**k + 1 near each limit of the time budget and of int64.
NEAR_LIMITS = [2**k + d for k in (31, 53, 57, 58, 59, 60, 61, 62, 63, 64) for d in (-1, 0, 1)]
INT_EXTREMES = [0, 1, -1, *NEAR_LIMITS, *(-v for v in NEAR_LIMITS)]
FLOAT_EXTREMES = [
    0.0, 1.0, -1.0, 0.5, 1.5, 5e-324, -5e-324, 1e-300, 1e-3, 1e12, math.nextafter(1e12, math.inf),
    1e18, 2.0**58, 2.0**61, 2.0**62, sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan,
]


def with_values(kind, *changes):
    """FUZZ_DOCS[kind] with the number at each (path, value) of changes replaced."""
    doc = copy.deepcopy(FUZZ_DOCS[kind])
    for path, value in changes:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


@st.composite
def fuzzed_documents(draw):
    """A FUZZ_DOCS document with one or two numbers replaced by extreme values of their type."""
    kind = draw(st.sampled_from(KINDS))
    changes = []
    for path, tp in draw(st.lists(st.sampled_from(FUZZ_FIELDS[kind]), min_size=1, max_size=2)):
        if tp is int:
            changes.append((path, draw(st.sampled_from(INT_EXTREMES) | st.integers())))
        else:
            changes.append((path, draw(st.sampled_from(FLOAT_EXTREMES) | st.floats())))
    return with_values(kind, *changes)


def stays_small(cfg) -> bool:
    """Whether a validated config's run stays small: under 1e5 expected stimuli
    and live traps, 1e6 histogram bins and 1e7 correlator pairs, over-estimated."""
    kind = cfg["kind"]
    if kind == "keyrate":
        return True
    src, dets = cfg["source"], [cfg[slot] for slot in SCENARIOS[kind].detectors]
    runs, bins, lag = 1, 0.0, 0
    if kind == "interarrival":
        duration = src.duration_ps
        photons = src.rate_cps * duration * 1e-12
        bins = (cfg["span_ps"] or 4096 * cfg["bin_width_ps"]) / cfg["bin_width_ps"]
    elif kind == "autocorr":
        duration = src.duration_ps
        photons = src.mean_photons_per_pulse * (duration / src.period_ps + 1)
        bins, lag = cfg["max_lag_ps"] / cfg["bin_width_ps"], cfg["max_lag_ps"]
    elif kind == "qkd":
        duration = src.duration_ps
        photons = 2 * src.mean_pairs_per_pulse * (duration * src.rep_rate_hz * 1e-12 + 1)
        grids = ("ac_bin_width_ps", "ac_span_ps", "cc_bin_width_ps", "cc_span_ps")
        ac_bw, ac_span, cc_bw, cc_span = correlator_grids(cfg["frame"], **{k: cfg[k] for k in grids})
        bins, lag = ac_span / ac_bw + 2 * cc_span / cc_bw, cc_span
    else:  # a pair scan, one run per spacing
        runs, duration = len(src.points), src.n_pairs * src.pair_period_ps
        photons = 2 * src.n_pairs
        if kind == "jitter-scan":
            # Intervals spread over a spacing, a dead time, two shifts and the jitter's tails.
            (p,) = dets
            dead = p.tau_dead0_ps + max((y for _, y in p.dead_elongation), default=0.0)
            shift = max(abs(y) for _, y in p.shift_curve)
            jitter = max(y for _, y in p.jitter_curve)
            bins = (max(src.delta_ts_ps) + dead + 2 * shift + 10 * jitter) / 25
    live = []  # live traps per avalanche, as DetectorParams computes them
    for p in dets:
        outlive, ap = p.tau_dead0_ps - 0.5, p.afterpulse
        live.append(ap.mu * math.exp(-outlive / ap.tau_trap_ps) if outlive <= 1e15 else 0.0)
    darks = sum(p.dark_rate_cps for p in dets) * duration * 1e-12
    stimuli = runs * (photons + darks) / (1.0 - max(live))
    pairs = stimuli**2 * min(1.0, lag / duration)
    return stimuli < 1e5 and bins < 1e6 and pairs < 1e7


def test_fuzz_documents_spell_out_every_field():
    for kind, doc in FUZZ_DOCS.items():
        for section in SCENARIOS[kind].sections:
            assert set(doc.get(section.name, {})) == set(section.fields), (kind, section.name)
    objects = [(FUZZ_DETECTOR, spadsim.DetectorParams)]
    objects += [(FUZZ_DETECTOR["afterpulse"], spadsim.AfterpulseModel)]
    objects += [(FUZZ_DETECTOR["blanking"], spadsim.BlankingConfig)]
    for keys, owner in objects:
        assert set(keys) == {f.name for f in dataclass_fields(owner)}
    for kind, doc in FUZZ_DOCS.items():
        assert stays_small(validate_config(doc)), kind


@settings(max_examples=200, deadline=None)
@given(doc=fuzzed_documents())
# Extremes where they cost nothing: the longest run at millihertz rates.
@example(
    doc=with_values(
        "interarrival",
        (("source", "duration_ps"), 2**61 - 1),
        (("source", "rate_cps"), 1e-3),
        (("detector", "params", "dark_rate_cps"), 1e-3),
    )
)
@example(doc=with_values("keyrate", (("inputs", "bin_width_ps"), 5e-324)))
@example(doc=with_values("qkd", (("source", "emission_fwhm_ps"), 2**58 - 1)))
def test_fuzzed_configs_run_or_fail_by_name(doc):
    # Law: simulate exits 0; or 1 with a config error naming a field path, or
    # with a sampled jitter past the time budget; or 2 with a runtime error.
    # Never a traceback. A valid run too large for a test is only validated.
    try:
        command = "simulate" if stays_small(validate_config(doc)) else "validate"
    except ConfigError:
        command = "simulate"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    message = err.getvalue()
    fields = "|".join(re.escape(key) for key in ("config", *doc))
    if code == 0:
        assert message == ""
    elif code == 1:
        named = re.match(rf"config error: ({fields})[.:\[ ]", message)
        assert named or message.startswith("invalid value: jitter_curve sampled delays "), message
    else:
        assert code == 2 and message.startswith("runtime error: "), message
