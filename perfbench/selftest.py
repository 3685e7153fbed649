"""Self-test of the benchmark itself.

Runs every workload at the tiny size, traced and untraced, and asserts that

- every metric the benchmark defines is emitted with its unit: the last-line
  sets of run.py (END_TO_END, PER_LAYER) and the full per-function set in
  the results file;
- BENCHMARK.json names exactly the workloads and metrics run.py emits;
- the tracer wraps a layer function in every module that imported it;
- the correctness gate trips on a deliberately altered output digest.

    python3 perfbench/selftest.py      # ~1 minute; exits 0 when all pass
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPANS = {
    "sources": ("correlated_pair_stream", "pulsed_train", "cw_poisson_stream", "pulse_pair_sequence"),
    "detector": ("detect",),
    "instruments": ("coincidence", "autocorrelation", "cross_correlation", "build_histogram",
                    "gaussian_fit"),
    "analysis": ("estimate_dead_time", "afterpulse_spectroscopy", "distinguishability",
                 "shift_and_jitter_vs_dt"),
    "experiments": ("run_interarrival", "run_autocorr", "run_pair_scan"),
    "qkd": ("run_qkd_scenario",),
    "config": ("load_config",),
    "cli": ("main",),
}

# Every metric the benchmark emits, with its unit: the end-to-end set, then
# the per-span set and the layer totals.
END_TO_END_ALL = {
    "setup_s": "s",
    "scenario_s_p50": "s",
    "scenario_s_tail": "s",
    "scenario_cpu_s_p50": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "1",
    "reference_s_p50": "s",
    "scenario_refs_p50": "ref",
    "scenario_cpu_refs_p50": "ref",
}
PER_LAYER_ALL = {
    f"{layer}.{fn}.{stat}": unit
    for layer, fns in SPANS.items()
    for fn in fns
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("wait_s", "s"))
}
for _fn in SPANS["sources"]:
    PER_LAYER_ALL[f"sources.{_fn}.arrivals"] = "count"
    PER_LAYER_ALL[f"sources.{_fn}.peak_alloc_mb"] = "MB"
PER_LAYER_ALL.update({
    "sources.comb_pulses": "count",
    "sources.arrivals_per_comb_pulse": "1",
    "detector.detect.photons_in": "count",
    "detector.detect.pulses_out": "count",
    "detector.detect.photons_per_busy_s": "1/s",
    "detector.detect.pulses_per_photon": "1",
    "detector.detect.afterpulses": "count",
    "detector.detect.twilights": "count",
    "detector.detect.peak_alloc_mb": "MB",
    "instruments.coincidence.matches": "count",
    "instruments.autocorrelation.pairs_binned": "count",
    "instruments.autocorrelation.pairs_per_s": "1/s",
    "instruments.cross_correlation.pairs_binned": "count",
    "experiments.run_pair_scan.parallelism": "1",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "sources.arrivals": "count",
    "sources.peak_alloc_mb": "MB",
})
for _layer in ("sources", "instruments", "analysis"):
    PER_LAYER_ALL[f"{_layer}.self_s"] = "s"
    PER_LAYER_ALL[f"{_layer}.wait_s"] = "s"


def _check_units(metrics: dict, expected: dict, where: str) -> None:
    missing = sorted(set(expected) - set(metrics))
    assert not missing, f"{where}: metrics not emitted: {missing}"
    wrong = {k: metrics[k]["unit"] for k in expected if metrics[k]["unit"] != expected[k]}
    assert not wrong, f"{where}: wrong units: {wrong}"
    for k in expected:
        assert isinstance(metrics[k]["value"], (int, float)), f"{where}: {k} is not a number"


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "1", "--size", "tiny",
         *args],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"run.py {args} exited {proc.returncode}:\n{proc.stderr}"
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}, final.keys()
    assert final["correct"] and final["failed"] == 0, f"run.py {args} failed:\n{proc.stdout}"
    assert final["attempted"] >= 1
    return final


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why, f"why of {w['name']} differs"
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.END_TO_END.items()) <= set(END_TO_END_ALL.items())
    assert set(run.PER_LAYER.items()) <= set(PER_LAYER_ALL.items())


def check_runs() -> None:
    for name in sorted(WORKLOADS):
        final = _bench("--workload", name, "--trace", "1")
        _check_units(final["metrics"], run.PER_LAYER, f"{name} --trace 1 last line")
        assert set(final["metrics"]) == set(run.PER_LAYER)
        doc = json.loads((run.OUT / "results" / f"{name}-seed3-trace1-tiny.json").read_text())
        _check_units(doc["metrics"], PER_LAYER_ALL, f"{name} traced results file")
        assert doc["metadata"]["backend"] in ("numba", "python")
        assert doc["digests"], "no output digests recorded"
    final = _bench("--workload", "all", "--trace", "0")
    for name in sorted(WORKLOADS):
        block = {k.split(".", 1)[1]: v for k, v in final["metrics"].items() if k.startswith(name + ".")}
        _check_units(block, run.END_TO_END, f"{name} --trace 0 last line")
        doc = json.loads((run.OUT / "results" / f"{name}-seed3-trace0-tiny.json").read_text())
        _check_units(doc["metrics"], END_TO_END_ALL, f"{name} untraced results file")


def check_wrapping() -> None:
    sys.path.insert(0, str(run.SRC))
    import spadsim.experiments
    import spadsim.qkd
    import tracer as tracing

    t = tracing.Tracer()
    t.install()
    try:
        for mod in (spadsim.experiments, spadsim.qkd):
            assert getattr(mod.detect, "__wrapped__", None) is not None, f"{mod.__name__}.detect"
    finally:
        t.uninstall()
    assert getattr(spadsim.qkd.detect, "__wrapped__", None) is None, "uninstall left a wrapper"


def check_gate_trips() -> None:
    sys.path.insert(0, str(run.SRC))
    import loop

    work = run.OUT / "work" / "selftest-gate"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = loop.Runner(WORKLOADS["pulsed-autocorr"], "tiny", work)
        records = [runner.run(11, "timed"), runner.run(11, "timed")]
        loop.check_determinism(records)
        assert not any(r["failures"] for r in records), records
        key = "histogram_csv"
        good = records[1]["digests"][key]
        records[1]["digests"][key] = ("0" if good[0] != "0" else "1") + good[1:]
        for r in records:
            r["failures"] = []
        loop.check_determinism(records)
        assert not records[0]["failures"] and records[1]["failures"], "gate did not trip"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    for check in (check_benchmark_json, check_wrapping, check_gate_trips, check_runs):
        check()
        print(f"ok {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
