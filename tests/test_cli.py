import json
import os
import subprocess
import sys

import pytest
from conftest import inline_detector

import spadsim
from spadsim import preset
from spadsim.cli import main


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
        "instrument": {"analyze": analyze, "spectroscopy": analyze},
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
    """scipy.optimize is imported by the fits that use it, not by the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spadsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, spadsim; print(spadsim.__file__); print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [spadsim.__file__, "False"]
