"""spadsim benchmark: CLI scenario workloads, end-to-end host cost, layer spans.

Runs one workload (or `all` of them in turn), each in a fresh process with
one client in a closed loop, prints every metric by name with its unit, and
checks every output. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload qkd-link --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 reports the end-to-end metrics (END_TO_END); --trace 1 reports the
per-layer metrics (PER_LAYER) of a traced run, and perfbench/out/results/
keeps every metric of the run, its metadata and each seed's output digests.
The program is taken from src/ of the checkout the script sits in, with
SPADSIM_THREADS and SPADSIM_NUMBA unset, as a user runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
# Whole-run deadline of the benchmark contract, with a margin for reporting.
DEADLINE_S = 170.0

# The end-to-end metrics reported on the last line. Scenario cost is given in
# units of the reference job timed around each scenario (loop.reference_s),
# which cancels the host-speed drift of a shared VM; the plain seconds
# (scenario_s_p50, scenario_s_tail, scenario_cpu_s_p50) are printed and kept
# in the results file.
END_TO_END = {
    "setup_s": "s",
    "scenario_refs_p50": "ref",
    "scenario_cpu_refs_p50": "ref",
    "peak_rss_mb": "MB",
}
# The per-layer metrics reported on the last line: the times, memory and
# rates an optimisation moves, each defined on every workload. Counts that
# must not move (photons, pulses, arrivals) and the per-function metrics are
# in the results file.
PER_LAYER = {
    "sources.self_s": "s",
    "sources.wait_s": "s",
    "sources.peak_alloc_mb": "MB",
    "detector.detect.calls": "count",
    "detector.detect.self_s": "s",
    "detector.detect.wait_s": "s",
    "detector.detect.photons_per_busy_s": "1/s",
    "detector.detect.peak_alloc_mb": "MB",
    "instruments.self_s": "s",
    "instruments.wait_s": "s",
    "analysis.self_s": "s",
    "analysis.wait_s": "s",
    "config.load_config.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
import spadsim
from spadsim.config import load_config
load_config(sys.argv[1])
t1 = time.perf_counter()
import os, platform
import numpy, scipy
from spadsim import _backend
try:
    import numba  # noqa: F401
    numba_importable = True
except ImportError:
    numba_importable = False
print(json.dumps({
    "setup_s": t1 - t0,
    "spadsim_file": spadsim.__file__,
    "backend": "numba" if _backend.NUMBA_ENABLED else "python",
    "numba_enabled": bool(_backend.NUMBA_ENABLED),
    "numba_importable": numba_importable,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "cpu_count": os.cpu_count(),
}))
"""


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPADSIM_THREADS", None)
    env.pop("SPADSIM_NUMBA", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _check_source(spadsim_file: str) -> None:
    if Path(spadsim_file).resolve().parent != (SRC / "spadsim").resolve():
        raise BenchError(f"spadsim imported from {spadsim_file}, not from {SRC}")


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        ).stdout.strip()

    try:
        return {
            "commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def probe(cfg: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(cfg)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed:\n{proc.stderr.strip()}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_source(info["spadsim_file"])
    return info


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, beyond).

    With 10 samples or fewer no percentile qualifies; the maximum is reported
    with 0 samples beyond it.
    """
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0, 0
    return xs[k - 1], 100.0 * k / len(xs), len(xs) - k


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str, meta: dict) -> dict:
    workload = WORKLOADS[name]
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    try:
        cfg = work / "probe.json"
        cfg.write_text(json.dumps(workload.document(seed, size, work / "probe")), encoding="utf-8")
        probes = [probe(cfg)]
        info = dict(probes[0], **meta, workload=name, seed=seed, size=size, trace=trace)
        info.pop("setup_s")
        print("# metadata " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)
        if trace == 0:
            probes += [probe(cfg) for _ in range(SETUP_PROBES - 1)]

        result_path = work / "result.json"
        budget = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "loop.py"),
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--size", size,
                "--work", str(work / "loop"), "--out", str(result_path),
            ],
            env=child_env(), cwd=ROOT, timeout=max(budget, 10.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        res = json.loads(result_path.read_text(encoding="utf-8"))
        _check_source(res["spadsim_file"])
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload {name} overran its deadline") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = res["records"]
    failures = [f"{r['phase']} seed {r['seed']}: {f}" for r in records for f in r["failures"]]
    missing = res.get("missing_spans", [])
    if missing:
        failures.append(f"spans with zero calls: {missing}")
        for r in records:
            if r["phase"] == "traced":
                r["failures"].append("span coverage lost")
    failed = sum(1 for r in records if r["failures"])
    timed = [r for r in records if r["phase"] in ("timed", "untraced")]
    walls = [r["wall_s"] for r in timed]
    t_value, t_pct, t_beyond = tail(walls)
    e2e = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "scenario_s_p50": (statistics.median(walls), "s"),
        "scenario_s_tail": (t_value, "s"),
        "scenario_cpu_s_p50": (statistics.median(r["cpu_s"] for r in timed), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "failed_ratio": (failed / len(records), "1"),
        "reference_s_p50": (statistics.median(r["ref_s"] for r in timed), "s"),
        "scenario_refs_p50": (statistics.median(r["wall_s"] / r["ref_s"] for r in timed), "ref"),
        "scenario_cpu_refs_p50": (statistics.median(r["cpu_s"] / r["ref_s"] for r in timed), "ref"),
    }
    all_metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    all_metrics.update(res.get("per_layer", {}))
    digests: dict[str, dict] = {}
    for r in records:
        digests.setdefault(str(r["seed"]), r["digests"])

    notes = {
        "setup_s": f"median of {len(probes)} fresh processes: import spadsim + load_config",
        "scenario_s_p50": f"n={len(walls)} scenarios",
        "scenario_s_tail": f"p{t_pct:.1f}, {t_beyond} of {len(walls)} samples beyond it",
        "scenario_cpu_s_p50": "RUSAGE_SELF + RUSAGE_CHILDREN",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "failed_ratio": f"{failed} of {len(records)} scenarios",
        "reference_s_p50": "the reference job, timed around each scenario",
        "scenario_refs_p50": "scenario wall time / reference job time",
        "scenario_cpu_refs_p50": "scenario CPU time / reference job time",
    }
    if trace == 0:
        lines = [f"{k} = {v:.6g} {u} ({notes[k]})" for k, (v, u) in e2e.items()]
    else:
        lines = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in sorted(res["per_layer"].items())]
        lines.append(f"scenario_s_p50 = {e2e['scenario_s_p50'][0]:.6g} s (untraced, {notes['scenario_s_p50']})")
        lines.append(f"failed_ratio = {e2e['failed_ratio'][0]:.6g} 1 ({notes['failed_ratio']})")
    for line in lines:
        print(f"{name}: {line}")
    for f in failures:
        print(f"{name}: FAILED {f}")

    doc = {
        "metadata": info,
        "metrics": all_metrics,
        "tail": {"percentile": t_pct, "samples_beyond": t_beyond, "samples": len(walls)},
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
        "digests": digests,
        "scenarios": [
            {k: r[k] for k in ("seed", "phase", "wall_s", "cpu_s", "ref_s", "failures")} for r in records
        ],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}-{size}.json").write_text(
        json.dumps(doc, indent=1), encoding="utf-8"
    )
    wanted = END_TO_END if trace == 0 else PER_LAYER
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: all_metrics[k] for k in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0, help="timed length of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a fraction-of-a-second scenario for the self-test, without envelopes",
    )
    args = ap.parse_args(argv)
    if not (SRC / "spadsim" / "__init__.py").is_file():
        print(f"error: no spadsim package under {SRC}", file=sys.stderr)
        return 2

    meta = git_state()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            n: run_workload(n, args.seed, args.seconds, args.trace, args.size, meta) for n in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
