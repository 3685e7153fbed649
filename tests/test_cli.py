import json
import os
import subprocess
import sys
from hashlib import sha256

import pytest
from conftest import inline_detector

import spadsim
from spadsim import SCENARIOS, preset
from spadsim.cli import main

# SHA-256 of every output of test_detector_summaries_carry_the_draw_contract's
# documents at draw contract 2. jitter-scan is left out: its curve goes through
# scipy's curve_fit, whose last digits can move with the scipy version.
PINNED_OUTPUTS = {
    "interarrival": {
        "histogram_csv": "d9e533585ba1d4f9f284d6c724c79c98cef4ad2254f32db68786ae8d7170cefc",
        "summary_json": "c67d94c9e1eac3b0ca5f3855f6f01d7c43e7e8750b1b4e4cd31bc200dd2f3565",
    },
    "pair-scan": {
        "curve_csv": "b6514ae2fe1638203f55117b5a992f8073578ff634593c0f3dc88b83922d751c",
        "points_csv": "3e00f2896fcd6d85665254472376cd225fc18c3bdce2aec54d0cdc4dbc43bc95",
        "summary_json": "42335df959eccda13f2b061e5308dbd514d24b340c0609d8e753829dc853e580",
    },
    "autocorr": {
        "histogram_csv": "f884897c3dda2ba1c6a72b7b890ad04fcb468dfb06bc221a1e6a9eb4a86b283f",
        "summary_json": "8ac057e4a0eee37ecc04368c8417a3c3fbc92bd5945e1300e57de8fec6ec257c",
    },
    "qkd": {
        "report_json": "aca4a44c04fc291f1636d799aadb8c66a8c2805d003dd1dd875a98c4bc3b8c36",
        "crosscorr_csv": "6fe5ca012ddb51e447f0f3f43d44259eb1ae1d1b2e74ab0c88ef5210cbcd1388",
    },
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
        pair_source = {"delta_ts_ps": [200_000], "pair_period_ps": 1_000_000, "n_pairs": 200}
        docs = {
            "interarrival": interarrival_doc(tmp_path),
            "pair-scan": {"detector": {"preset": "spcm-aqrh"}, "source": pair_source},
            "jitter-scan": {
                "detector": {"preset": "spcm-aqrh"},
                "source": pair_source,
                "instrument": {"min_pairs": 10},
            },
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
            assert json.loads(summary.read_text())["draw_contract"] == spadsim.DRAW_CONTRACT == 2
            if kind in PINNED_OUTPUTS:
                digests[kind] = {k: sha256(p.read_bytes()).hexdigest() for k, p in outs.items()}
        assert "draw_contract" not in capsys.readouterr().out
        assert digests == PINNED_OUTPUTS, (
            "the pulse stream moved for the same detectors and seed: "
            "bump DRAW_CONTRACT or find the regression"
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


def test_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize and the CLI are imported by their users, not by the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spadsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, spadsim; print(spadsim.__file__); print('scipy.optimize' in sys.modules); "
        "print('spadsim.cli' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [spadsim.__file__, "False", "False"]
