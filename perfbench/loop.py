"""One workload's closed loop, run in a fresh process by perfbench/run.py.

One client runs scenarios back to back: each is a config file handed to the
in-process `spadsim.cli.main(["simulate", path])`, and the next starts only
when the previous one returns. Every scenario seed runs twice in a row, so
the digests of its output files (and of its stdout) can be compared. A
fixed reference job runs twice just before and twice just after each
scenario (`reference_s`).

Order of a run:
  1. preflight on the first seed's arrivals (oracle agreement, blanking floor);
  2. one untimed warm-up scenario, which is also the first run of that seed;
  3. timed scenarios until `--seconds` have passed (the last seed still gets
     its second run);
  with --trace 1 the timed phase is split: the first half untraced, the
  second half under the span tracer, and then one scenario with tracemalloc
  on around each source and detector call for the peak-allocation
  metrics.

Writes one JSON document to --out and exits 0; any exception inside a
scenario is counted as a failed scenario, not a crash.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, preflight  # noqa: E402


def scenario_seeds(seed: int):
    """Endless deterministic scenario seeds for one benchmark seed."""
    rnd = random.Random(f"perfbench/{seed}")
    while True:
        yield rnd.randrange(2**31)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_REF_ARRAY = np.arange(1_000_000, dtype=np.float64)


def reference_s() -> float:
    """Wall time of a fixed ~10 ms reference job on this machine, now.

    The job mixes, in about equal time, what the scenarios spend their time
    on: a scalar Python loop (the detector and, without numba, the
    correlators) and a memory-bound numpy pass over an 8 MB array (the comb).
    It uses nothing from spadsim, so a change to the program cannot change
    it. On a shared VM the speed of the host drifts by tens of percent over
    seconds to minutes; a scenario's time divided by the reference time
    measured around it cancels most of that drift.
    """
    t0 = time.perf_counter()
    x = 0.0
    kept = []
    for i in range(40_000):
        x = x * 0.5 + i % 7
        if i % 3 == 0:
            kept.append(x)
    np.rint(_REF_ARRAY * 1.37).astype(np.int64).sum()
    return time.perf_counter() - t0


class Runner:
    def __init__(self, workload, size: str, work: Path):
        self.workload = workload
        self.size = size
        self.work = work
        self.files = work / "files"
        work.mkdir(parents=True, exist_ok=True)

    def config_path(self, seed: int) -> Path:
        path = self.work / f"seed-{seed}.json"
        if not path.exists():
            doc = self.workload.document(seed, self.size, self.files)
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path

    def run(self, seed: int, phase: str) -> dict:
        """Run one scenario and check it; the record holds its timings,
        output digests and every failed check."""
        import spadsim.cli as cli

        cfg = str(self.config_path(seed))
        shutil.rmtree(self.files, ignore_errors=True)
        self.files.mkdir(parents=True)
        failures = []
        out = io.StringIO()
        gc.collect()
        refs = [reference_s(), reference_s()]
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["simulate", cfg])
        except Exception:
            code = None
            failures.append("raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        t1 = time.perf_counter()
        c1 = _cpu_s()
        refs += [reference_s(), reference_s()]
        if code not in (0, None):
            failures.append(f"exit code {code}")
        paths = {k: self.files / v for k, v in self.workload.outputs.items()}
        digests = {"stdout": _digest(out.getvalue().encode())}
        for key, path in paths.items():
            if path.exists():
                digests[key] = _digest(path.read_bytes())
            else:
                failures.append(f"output {key} not written")
        if not failures and self.size == "full":
            try:
                failures += self.workload.envelope(paths)
            except (KeyError, ValueError, TypeError) as exc:
                failures.append(f"envelope unreadable: {exc!r}")
        return {
            "seed": seed,
            "phase": phase,
            "start": t0,
            "end": t1,
            "wall_s": t1 - t0,
            "cpu_s": c1 - c0,
            "ref_s": sum(refs) / len(refs),
            "digests": digests,
            "failures": failures,
        }


def check_determinism(records: list[dict]) -> None:
    """Fail every run whose digests differ from the first run of its seed."""
    first: dict[int, dict] = {}
    for rec in records:
        ref = first.setdefault(rec["seed"], rec["digests"])
        if rec["digests"] != ref:
            changed = sorted(k for k in ref.keys() | rec["digests"].keys()
                             if ref.get(k) != rec["digests"].get(k))
            rec["failures"].append(f"not byte-identical to the first run of its seed: {changed}")


def tracing_overhead_s(records: list[dict]) -> float:
    """Traced minus untraced median scenario time, corrected for host drift.

    The two halves run tens of seconds apart, and the host's speed can change
    by more than the tracer costs in that time. So the medians are taken in
    reference-job units (wall / ref) and converted back to seconds with the
    median reference time of both halves.
    """

    def ratio(phase: str) -> float:
        return tracing.median(r["wall_s"] / r["ref_s"] for r in records if r["phase"] == phase)

    ref = tracing.median(r["ref_s"] for r in records if r["phase"] in ("untraced", "traced"))
    return (ratio("traced") - ratio("untraced")) * ref


def timed_loop(runner: Runner, seeds, seconds: float, phase: str, pending=None) -> list:
    """Closed loop of seed pairs for `seconds`; returns the scenario records.

    `pending` is a seed that already ran once (the warm-up) and runs once
    more before the first new pair.
    """
    t_end = time.perf_counter() + seconds
    records = [] if pending is None else [runner.run(pending, phase)]
    while time.perf_counter() < t_end:
        seed = next(seeds)
        records += [runner.run(seed, phase), runner.run(seed, phase)]
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--work", required=True, help="scratch directory for configs and outputs")
    ap.add_argument("--out", required=True, help="where to write the result document")
    args = ap.parse_args(argv)

    import spadsim
    from spadsim.config import load_config

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.size, Path(args.work))
    seeds = scenario_seeds(args.seed)
    first = next(seeds)

    preflight_failures = preflight(workload, load_config(str(runner.config_path(first))), first)
    warm = runner.run(first, "warm-up")
    warm["failures"] += preflight_failures
    records = [warm]
    result = {"spadsim_file": spadsim.__file__}

    if args.trace == 0:
        records += timed_loop(runner, seeds, args.seconds, "timed", pending=first)
    else:
        half = args.seconds / 2
        records += timed_loop(runner, seeds, half, "untraced", pending=first)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            timed = timed_loop(runner, seeds, half, "traced")
            spans = tracer.take()
            traced = [
                tracing.summarize(
                    [s for s in spans if rec["start"] <= s.start <= rec["end"]],
                    rec["start"], rec["end"], tracer.home,
                )
                for rec in timed
            ]
            records += timed
            seen = {name for sc in traced for name in sc["per"]}
            result["missing_spans"] = [s for s in workload.spans if s not in seen]
            tracer.memory = True
            records.append(runner.run(first, "memory"))
            peak_bytes = tracing.peaks(tracer.take())
        finally:
            tracer.uninstall()
        per_layer = tracing.report(traced, peak_bytes, tracing_overhead_s(records))
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}

    check_determinism(records)
    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
