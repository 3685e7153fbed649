"""Outside-in spans around the public functions of each spadsim layer.

`Tracer.install()` wraps every target function in every spadsim module that
holds a reference to it (for example both `spadsim.qkd.detect` and
`spadsim.experiments.detect`), so the package itself is untouched. Each call
records a span: name, wall interval, thread CPU time (`time.thread_time`),
the span that caused it, and counts read off its arguments and result.

A span opened on a thread with no open span of its own (a worker of the
experiments pool) takes as parent the innermost span open on the thread that
installed the tracer, which is the `run_pair_scan` that submitted it.

With `memory=True` the tracer also measures, for the source and detector
layers, the tracemalloc peak of each call: tracing starts as the call begins
and stops as it returns, and calls of these layers are serialised so that
two pool threads are never measured at once. tracemalloc slows every
allocation, so that pass is separate and its spans are not used for timing.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
import tracemalloc

TARGETS = {
    "sources": ("correlated_pair_stream", "pulsed_train", "cw_poisson_stream", "pulse_pair_sequence"),
    "detector": ("detect",),
    "instruments": (
        "coincidence",
        "autocorrelation",
        "cross_correlation",
        "build_histogram",
        "gaussian_fit",
    ),
    "analysis": (
        "estimate_dead_time",
        "afterpulse_spectroscopy",
        "distinguishability",
        "shift_and_jitter_vs_dt",
    ),
    "experiments": ("run_interarrival", "run_autocorr", "run_pair_scan"),
    "qkd": ("run_qkd_scenario",),
    "config": ("load_config",),
    "cli": ("main",),
}
MEMORY_LAYERS = ("sources", "detector")
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)

PS_PER_S = 1_000_000_000_000


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "cpu", "counts", "peak_bytes")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = self.cpu = 0.0
        self.counts: dict[str, float] = {}
        self.peak_bytes = 0


def _comb_pulses(period_ps: float, duration_ps: int) -> int:
    """Laser pulses `sources._comb` lays down, computed from the config."""
    return int(duration_ps / period_ps) + 1


def _count(name: str, args: tuple, result) -> dict:
    """Work counts of one call, read off its arguments and result."""
    if name == "sources.correlated_pair_stream":
        cfg = args[0]
        return {
            "arrivals": result.alice_times.size + result.bob_times.size,
            "comb_pulses": _comb_pulses(PS_PER_S / cfg.rep_rate_hz, cfg.duration_ps),
        }
    if name == "sources.pulsed_train":
        cfg = args[0]
        return {"arrivals": result.size, "comb_pulses": _comb_pulses(cfg.period_ps, cfg.duration_ps)}
    if name == "sources.cw_poisson_stream":
        return {"arrivals": result.size}
    if name == "sources.pulse_pair_sequence":
        return {"arrivals": result[0].size}
    if name == "detector.detect":
        from spadsim.detector import Cause

        causes = result.causes
        return {
            "photons_in": len(args[0]),
            "pulses_out": len(result),
            "afterpulses": int((causes == int(Cause.AFTERPULSE)).sum()),
            "twilights": int((causes == int(Cause.TWILIGHT)).sum()),
        }
    if name == "instruments.coincidence":
        return {"matches": len(result)}
    if name in ("instruments.autocorrelation", "instruments.cross_correlation"):
        return {"pairs_binned": int(result.counts.sum())}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.memory = False
        self._local = threading.local()
        self.home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._local.stack = self._home_stack
        self._mem_lock = threading.RLock()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        measure_memory = name.split(".")[0] in MEMORY_LAYERS

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home else None
            span = Span(name, parent, threading.get_ident())
            stack.append(span)
            mem = self.memory and measure_memory
            if mem:
                self._mem_lock.acquire()
                tracemalloc.start()
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                if mem:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self._mem_lock.release()
                stack.pop()
                span.start, span.end, span.cpu = t0, t1, c1 - c0
                self.spans.append(span)
            span.counts = _count(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap each target in every loaded spadsim module that refers to it."""
        import importlib

        modules = [m for n, m in list(sys.modules.items()) if n == "spadsim" or n.startswith("spadsim.")]
        for layer, fns in TARGETS.items():
            home = importlib.import_module(f"spadsim.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span], start: float, end: float, home: int) -> dict:
    """Per-span-name totals of one scenario that ran over [start, end].

    self_s is a span's wall time minus the part of its interval its child
    spans cover; wait_s is its wall time minus its thread's CPU time.
    unattributed_s is scenario wall time covered by no span of the home
    thread.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    per: dict[str, dict] = {}
    scans: list[tuple[float, float]] = []
    for s in spans:
        wall = s.end - s.start
        kids = [(c.start, c.end) for c in children.get(id(s), ())]
        row = per.setdefault(
            s.name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "wait_s": 0.0, "counts": {}}
        )
        row["calls"] += 1
        row["wall_s"] += wall
        row["self_s"] += wall - _covered(kids, s.start, s.end)
        row["wait_s"] += wall - s.cpu
        for k, v in s.counts.items():
            row["counts"][k] = row["counts"].get(k, 0) + v
        if s.name == "experiments.run_pair_scan":
            busy = sum(d.end - d.start for d in spans if d.name == "detector.detect" and _under(d, s))
            scans.append((busy, wall))
    roots = [(s.start, s.end) for s in spans if s.parent is None and s.thread == home]
    return {
        "wall_s": end - start,
        "unattributed_s": (end - start) - _covered(roots, start, end),
        "per": per,
        "scans": scans,
    }


def _under(span: Span, ancestor: Span) -> bool:
    p = span.parent
    while p is not None:
        if p is ancestor:
            return True
        p = p.parent
    return False


def peaks(spans: list[Span]) -> dict[str, int]:
    """Largest per-call tracemalloc peak, in bytes, of each span name."""
    out: dict[str, int] = {}
    for s in spans:
        if s.name.split(".")[0] in MEMORY_LAYERS:
            out[s.name] = max(out.get(s.name, 0), s.peak_bytes)
    return out


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def report(scenarios: list[dict], peak_bytes: dict[str, int], overhead_s: float) -> dict:
    """Every per-layer metric of a traced run, as {name: (value, unit)}.

    Per-span times are medians over the traced scenarios of each scenario's
    total; calls and work counts are means per scenario; rates and ratios
    divide totals over all traced scenarios.
    """
    n = len(scenarios)
    m: dict[str, tuple[float, str]] = {}

    def total(name: str, key: str) -> float:
        return sum(sc["per"].get(name, {}).get(key, 0.0) for sc in scenarios)

    def count(name: str, key: str) -> float:
        return sum(sc["per"].get(name, {}).get("counts", {}).get(key, 0) for sc in scenarios)

    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (total(name, "calls") / n, "count")
        for stat in ("self_s", "wait_s"):
            m[f"{name}.{stat}"] = (median(sc["per"].get(name, {}).get(stat, 0.0) for sc in scenarios), "s")

    for fn in TARGETS["sources"]:
        name = f"sources.{fn}"
        m[f"{name}.arrivals"] = (count(name, "arrivals") / n, "count")
        m[f"{name}.peak_alloc_mb"] = (peak_bytes.get(name, 0) / 2**20, "MB")
    comb = sum(count(f"sources.{fn}", "comb_pulses") for fn in TARGETS["sources"])
    comb_arrivals = sum(
        count(f"sources.{fn}", "arrivals") for fn in ("correlated_pair_stream", "pulsed_train")
    )
    m["sources.comb_pulses"] = (comb / n, "count")
    m["sources.arrivals_per_comb_pulse"] = (comb_arrivals / comb if comb else 0.0, "1")

    d = "detector.detect"
    photons, pulses, busy = count(d, "photons_in"), count(d, "pulses_out"), total(d, "wall_s")
    m[f"{d}.photons_in"] = (photons / n, "count")
    m[f"{d}.pulses_out"] = (pulses / n, "count")
    m[f"{d}.photons_per_busy_s"] = (photons / busy if busy else 0.0, "1/s")
    m[f"{d}.pulses_per_photon"] = (pulses / photons if photons else 0.0, "1")
    m[f"{d}.afterpulses"] = (count(d, "afterpulses") / n, "count")
    m[f"{d}.twilights"] = (count(d, "twilights") / n, "count")
    m[f"{d}.peak_alloc_mb"] = (peak_bytes.get(d, 0) / 2**20, "MB")

    m["instruments.coincidence.matches"] = (count("instruments.coincidence", "matches") / n, "count")
    ac = "instruments.autocorrelation"
    ac_pairs, ac_busy = count(ac, "pairs_binned"), total(ac, "wall_s")
    m[f"{ac}.pairs_binned"] = (ac_pairs / n, "count")
    m[f"{ac}.pairs_per_s"] = (ac_pairs / ac_busy if ac_busy else 0.0, "1/s")
    cc = "instruments.cross_correlation"
    m[f"{cc}.pairs_binned"] = (count(cc, "pairs_binned") / n, "count")

    scan_busy = sum(b for sc in scenarios for b, _ in sc["scans"])
    scan_wall = sum(w for sc in scenarios for _, w in sc["scans"])
    m["experiments.run_pair_scan.parallelism"] = (scan_busy / scan_wall if scan_wall else 0.0, "1")

    # Layer totals: defined on every workload, whichever function of the
    # layer the workload happens to call.
    for layer in ("sources", "instruments", "analysis"):
        names = [f"{layer}.{fn}" for fn in TARGETS[layer]]
        for stat in ("self_s", "wait_s"):
            per_sc = (sum(sc["per"].get(x, {}).get(stat, 0.0) for x in names) for sc in scenarios)
            m[f"{layer}.{stat}"] = (median(per_sc), "s")
    m["sources.arrivals"] = (sum(count(f"sources.{fn}", "arrivals") for fn in TARGETS["sources"]) / n, "count")
    m["sources.peak_alloc_mb"] = (
        max((peak_bytes.get(f"sources.{fn}", 0) for fn in TARGETS["sources"]), default=0) / 2**20,
        "MB",
    )

    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.unattributed_s"] = (median(sc["unattributed_s"] for sc in scenarios), "s")
    return m
