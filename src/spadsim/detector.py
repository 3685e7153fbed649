"""Actively-quenched SPAD behavioral model.

The detector is a state machine over integer-picosecond time. After every
avalanche it is dead for a rate-dependent interval; the first part of the
dead period (the quench phase) is completely blind, the remainder (the
twilight zone) is partially sensitive but the sensing electronics is off, so
a twilight avalanche produces an output pulse only at the end of the dead
period that was active when it happened. Avalanches fill charge traps whose
later releases fire spurious detections (afterpulses), and output timing
carries a calibrated delay shift plus Gaussian jitter keyed to the gap since
the previous avalanche. An optional non-retriggerable blanking stage
post-filters the output.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import heappop, heappush
from typing import Annotated, NamedTuple

import numpy as np

from .instruments import (
    DELAY, HOLD_OFF, SIGNED_DELAY, TIME, _check, _check_fields, _sorted_times
)
from .rng import FWHM_TO_SIGMA
from .sources import RATE, poisson_times

__all__ = [
    "DRAW_CONTRACT",
    "RATE_WINDOW_PS",
    "Cause",
    "QuenchTimes",
    "AfterpulseModel",
    "BlankingConfig",
    "DetectorParams",
    "PulseRecords",
    "circuit_timing",
    "effective_dead_time",
    "calibrate_afterpulse_mu",
    "afterpulse_prob_vs_rs",
    "detect",
]

# Version of the random-draw contract (see `_detect_kernel`). Within one
# contract a detector design and a seed give exactly one pulse stream.
DRAW_CONTRACT = 3

# Window of the output-rate estimator driving dead-time elongation: the rate
# at an avalanche is the count of avalanches in the RATE_WINDOW_PS
# picoseconds before it, over the window.
RATE_WINDOW_PS = 1_000_000

# Placeholder "previous avalanche" gap before any avalanche happened; far
# right of every calibration curve, so first pulses get the relaxed values.
_HUGE_DT = 2.0**62

# Upper clamp for trap release delays
_MAX_TRAP_DELAY = 1.0e15


class Cause(IntEnum):
    """Why an output pulse happened."""

    PHOTON = 0
    DARK = 1
    AFTERPULSE = 2
    TWILIGHT = 3


@dataclass(frozen=True)
class QuenchTimes:
    """Derived state-machine intervals of the quenching loop.

    The quench phase [0, tau_quench) is fully blind; the twilight zone is
    the final tau_twilight of the dead period, [tau_dead - tau_twilight,
    tau_dead), where the junction is re-armed but the sensing is off.
    """

    tau_twilight_ps: int
    tau_quench_ps: int
    tau_dead_ps: int

    @property
    def twilight_start_ps(self) -> int:
        return self.tau_dead_ps - self.tau_twilight_ps


def circuit_timing(t_dly1_ps: int, t_comp_ps: int, t_q_ps: int) -> QuenchTimes:
    """Map quenching-loop propagation delays onto the timing intervals.

    The comparator-and-delay-buffer chain (t_comp + t_dly1) runs once to
    raise the sensing threshold and once to restore it, and the bias quench
    releases t_q after the threshold raise, so

        tau_quench   = t_dly1 + t_comp
        tau_dead     = 2*(t_dly1 + t_comp) + t_q
        tau_twilight = t_dly1 - t_q

    with the twilight zone shortened (and the dead time stretched) by the
    quench-release lag.
    """
    for name, v in (("t_dly1_ps", t_dly1_ps), ("t_comp_ps", t_comp_ps), ("t_q_ps", t_q_ps)):
        _check(name, ">= 0", v)
    if t_dly1_ps < t_q_ps:
        raise ValueError(
            f"t_dly1 ({t_dly1_ps} ps) must be >= t_q ({t_q_ps} ps): the twilight "
            "interval t_dly1 - t_q cannot be negative"
        )
    return QuenchTimes(
        tau_twilight_ps=t_dly1_ps - t_q_ps,
        tau_quench_ps=t_dly1_ps + t_comp_ps,
        tau_dead_ps=2 * (t_dly1_ps + t_comp_ps) + t_q_ps,
    )


@dataclass(frozen=True)
class AfterpulseModel:
    """Trap filling and release statistics.

    mu traps are filled per avalanche on average; each releases after an
    exponential(tau_trap) delay. A trap is live if its delay rounds to
    tau_dead0 or more; DetectorParams checks that afterpulse chains die
    out: p = mu * exp(-(tau_dead0 - 0.5) / tau_trap) live traps per
    avalanche on average, or 0 past the delay clamp, must be < 1. mu lies
    below 2**62, under the largest mean numpy's Poisson draw takes.
    """

    mu: Annotated[float, ">= 0", "< 2**62"] = 0.0
    tau_trap_ps: Annotated[float, "> 0"] = 32000.0

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class BlankingConfig:
    """Non-retriggerable output blanking stage."""

    t_b_ps: Annotated[int, HOLD_OFF] = 24000

    def __post_init__(self) -> None:
        _check_fields(self)


Curve = tuple[tuple[float, float], ...]


def _curve_arrays(curve: Curve, name: str) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray([p[0] for p in curve], dtype=np.float64)
    ys = np.asarray([p[1] for p in curve], dtype=np.float64)
    if xs.size == 0:
        raise ValueError(f"{name} must have at least one point")
    if not np.isfinite(xs).all():
        raise ValueError(f"{name} x values must be finite")
    if np.any(np.diff(xs) <= 0):
        raise ValueError(f"{name} x values must be strictly increasing")
    return xs, ys


@dataclass(frozen=True)
class DetectorParams:
    """Full behavioral parameter set of one detector.

    All durations are integer picoseconds; curves are piecewise-linear
    tables with clamped extrapolation. dead_elongation maps output rate
    (counts/s) to dead time ADDED on top of tau_dead0. twilight_profile maps
    offset-into-dead-period to relative sensitivity in [0, 1]; an empty
    profile disables twilighting entirely (fully blind until re-armed).

    Building the object checks the curves once and keeps the dead-time
    (rate to tau_dead0 plus the elongation), twilight, jitter and shift
    tables as (xs, ys) float tuples in `_tables`, which is not a field. An
    empty elongation or twilight curve gives the all-zero table.
    """

    efficiency: Annotated[float, "[0, 1]"]
    tau_dead0_ps: Annotated[int, "> 0"]
    tau_quench_ps: Annotated[int, ">= 0"]
    base_delay_ps: Annotated[int, DELAY] = 0
    dark_rate_cps: Annotated[float, RATE] = 0.0
    dead_elongation: Curve = ()
    twilight_profile: Curve = ()
    jitter_curve: Curve = ((0.0, 0.0),)
    shift_curve: Curve = ((0.0, 0.0),)
    afterpulse: AfterpulseModel = field(default_factory=AfterpulseModel)
    blanking: BlankingConfig | None = None

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.tau_quench_ps <= self.tau_dead0_ps:
            raise ValueError(
                f"tau_quench_ps must lie in [0, tau_dead0_ps], got {self.tau_quench_ps}"
            )
        ap, outlive = self.afterpulse, self.tau_dead0_ps - 0.5  # see AfterpulseModel
        live = ap.mu * math.exp(-outlive / ap.tau_trap_ps) if outlive <= _MAX_TRAP_DELAY else 0.0
        if not live < 1.0:
            raise ValueError(f"afterpulse must fill < 1 live trap per avalanche, got {live}")
        zero = ((0.0, 0.0),)
        rates, added = _curve_arrays(self.dead_elongation or zero, "dead_elongation")
        _check("dead_elongation rates", ">= 0", rates[0])
        if np.any(added < 0):
            raise ValueError("dead_elongation added durations must be >= 0")
        dead = self.tau_dead0_ps + added
        name = "tau_dead0_ps plus the largest dead_elongation duration"
        _check(name, DELAY, dead.max())
        tw_x, tw_y = _curve_arrays(self.twilight_profile or zero, "twilight_profile")
        if self.twilight_profile:
            if tw_y[0] != 0.0 or tw_y[-1] != 1.0:
                raise ValueError("twilight_profile must start at 0 and end at 1")
            if not np.all(np.diff(tw_y) >= 0):  # NaN fails it too
                raise ValueError("twilight_profile must be monotone non-decreasing")
            if tw_x[0] < self.tau_quench_ps or tw_x[-1] > self.tau_dead0_ps:
                raise ValueError(
                    "twilight_profile knots must lie within [tau_quench_ps, tau_dead0_ps]"
                )
        jitter = _curve_arrays(self.jitter_curve, "jitter_curve")
        _check("jitter_curve values", DELAY, jitter[1].min(), jitter[1].max())
        shift = _curve_arrays(self.shift_curve, "shift_curve")
        _check("shift_curve values", SIGNED_DELAY, shift[1].min(), shift[1].max())
        if shift[1][-1] != 0.0:
            raise ValueError("shift_curve must decay to 0 at its last knot")
        tables = ((rates, dead), (tw_x, tw_y), jitter, shift)
        tables = tuple((tuple(xs.tolist()), tuple(ys.tolist())) for xs, ys in tables)
        object.__setattr__(self, "_tables", tables)


@dataclass(frozen=True)
class PulseRecords:
    """Emitted logic pulses, sorted by output time.

    out_times is when the pulse appears at the connector; origin_times is
    the physical event that caused it (photon arrival, dark event, trap
    release, or the arrival of a twilight-detected photon); causes holds
    Cause codes. arrival_index is the index into the caller's `arrivals` of
    the photon that triggered the pulse, armed or in twilight; it is -1 for
    darks, for twilight pulses triggered by a dark, and for afterpulses.
    """

    out_times: np.ndarray
    origin_times: np.ndarray
    causes: np.ndarray
    arrival_index: np.ndarray

    def __len__(self) -> int:
        return int(self.out_times.shape[0])


def _interp_clamped(x: float, xs: list[float], ys: list[float]) -> float:
    """Piecewise-linear interpolation clamped at both table ends."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    hi = bisect_right(xs, x)
    lo = hi - 1
    t = (x - xs[lo]) / (xs[hi] - xs[lo])
    return ys[lo] + t * (ys[hi] - ys[lo])


def _interp_clamped_array(
    x: np.ndarray, xs: list[float], *tables: list[float]
) -> list[np.ndarray]:
    """`_interp_clamped` over an array, for each value table on the knots `xs`.

    Returns one array per table, with the same float operations per element
    as `_interp_clamped`. The tables share one cost: three comparisons over
    x, then one `searchsorted` and the fraction t over the elements between
    the end knots. Each table adds one fill, two writes and three gathers.
    """
    below = x <= xs[0]
    inner = np.flatnonzero((x > xs[0]) & (x < xs[-1]))
    xi = x[inner]
    knots = np.asarray(xs)
    hi = np.searchsorted(knots, xi, side="right")
    lo = hi - 1
    t = (xi - knots[lo]) / (knots[hi] - knots[lo])
    out = []
    for ys in tables:
        y = np.full(x.shape, ys[-1])
        y[below] = ys[0]
        values = np.asarray(ys)
        y[inner] = values[lo] + t * (values[hi] - values[lo])
        out.append(y)
    return out


class _Draws(NamedTuple):
    """The per-purpose random substreams of one detection run."""

    photon: np.random.Generator  # one uniform per photon, keyed by arrival index
    dark_times: np.random.Generator  # the dark-count times
    dark_twilight: np.random.Generator  # one uniform per dark, keyed by dark index
    jitter: np.random.Generator  # one normal per unheld pulse, in avalanche order
    trap_counts: np.random.Generator  # one Poisson(mu) count per avalanche
    trap_delays: np.random.Generator  # one exponential(tau_trap) delay per trap


def _draw_streams(rng: np.random.Generator) -> _Draws:
    """Spawn the six Philox substreams of one run from `rng`'s seed sequence.

    Spawning advances the seed sequence, so a generator passed to two runs
    gives each its own substreams.
    """
    children = rng.bit_generator.seed_seq.spawn(len(_Draws._fields))
    return _Draws(*(np.random.Generator(np.random.Philox(seq)) for seq in children))


# Time of the end-of-stream sentinels, later than every stimulus.
_NEVER = 2**63 - 1


def _trap_draws(draws: _Draws, params: DetectorParams, n: int) -> tuple[list, list, list]:
    """Live trap draws for every avalanche that a run over n stimuli can reach.

    A trap is live when its delay, clamped and rounded to the picosecond,
    is at least tau_dead0_ps. Every dead period lasts that long, so any
    other trap releases inside its own avalanche's dead period and is
    discarded: it is drawn but never pushed. Returns the avalanches with a
    live trap, then _NEVER; where each one's live delays start, then their
    end; and the live delays in filling order. Every avalanche is a
    stimulus or a release of a live trap of an earlier one: once the counts
    cover M avalanches with n + live(M) <= M, no run reaches avalanche M.
    Each round covers M = n + live(M) of the last; with p < 1 (see
    AfterpulseModel) the rounds end, near M = n / (1 - p).
    """
    mu, tau = params.afterpulse.mu, params.afterpulse.tau_trap_ps
    owners, delays = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    covered = live = 0
    while covered < n + live:
        k = draws.trap_counts.poisson(mu, n + live - covered)
        d = np.minimum(draws.trap_delays.exponential(tau, k.sum()), _MAX_TRAP_DELAY)
        d = np.floor(d + 0.5).astype(np.int64)
        is_live = d >= params.tau_dead0_ps
        # Traps are filled in avalanche order: a trap's avalanche is the
        # number of avalanches whose traps end at or before it.
        owner = np.searchsorted(np.cumsum(k), np.flatnonzero(is_live), side="right")
        owners.append(covered + owner)
        delays.append(d[is_live])
        covered = n + live
        live += owner.size
    at, starts = np.unique(np.concatenate(owners), return_index=True)
    starts = np.append(starts, live)
    return at.tolist() + [_NEVER], starts.tolist(), np.concatenate(delays).tolist()


# The kernel drops the avalanche times that the count has passed once there
# are more than this many.
_AV_TRIM = 4096

# Uncontested runs per stimulus below which the loop reads the stimuli
# through a memoryview instead of a list (see `_detect_kernel`). Measured:
# 0.0017 on cw-interarrival, 0.035 on pulsed-autocorr and 0.166 on a
# qkd-link arm, where a view was slower than the list.
_VIEW_BELOW = 0.08

# Avalanches per block of the output stage: each int64 column of a block
# takes 64 KB, below glibc's initial 128 KB mmap threshold, so the block's
# temporaries reuse heap memory instead of faulting in fresh pages.
_EMIT_BLOCK = 8192


def _merge(major: np.ndarray, minor: np.ndarray, *columns, spare: int = 0) -> list[np.ndarray]:
    """Merge the sorted times `minor` into the sorted times `major`, minor first at ties.

    Returns the merged times, followed by `spare` _NEVER sentinels, then
    each (major values, minor values) pair of `columns` merged the same
    way; the minor values may be one scalar. One row mask serves every
    column.
    """
    size = major.size + minor.size
    rows = np.searchsorted(major, minor) + np.arange(minor.size)
    from_major = np.ones(size, dtype=np.bool_)
    from_major[rows] = False
    merged = [np.empty(size + spare, dtype=np.int64)]
    merged += [np.empty(size, dtype=a.dtype) for a, _ in columns]
    merged[0][size:] = _NEVER
    for out, (a, b) in zip(merged, ((major, minor), *columns)):
        out[:size][from_major] = a
        out[:size][rows] = b
    return merged


def _detect_kernel(
    arrivals: np.ndarray,
    u_photon: np.ndarray,
    darks: np.ndarray,
    u_dark: np.ndarray,
    draws: _Draws,
    params: DetectorParams,
):
    """Actively-quenched SPAD state machine over one merged stimulus stream.

    `arrivals` are the photon times and `darks` the dark-count times, both
    sorted, with their keyed uniforms `u_photon` and `u_dark`; `draws` are
    the run's substreams and `params` the detector, whose tables it reads
    as `params` built them. Returns the four int64 `PulseRecords` columns
    in avalanche order.

    The photons that can trigger and the darks are merged into one sorted
    stimulus array, darks before photons at equal times, which ends in one
    _NEVER sentinel. Trap releases are generated internally and wait on a
    heap of release times; a release goes before a stimulus on the same
    picosecond.

    No dead period outlasts `horizon`, the largest dead time the table can
    give, so a stimulus at least `horizon` after the previous stimulus is
    uncontested: when the previous one fired, this one finds the detector
    armed. When the loop meets an armed stimulus followed by an uncontested
    one, it takes the avalanches up to the end of that uncontested run as
    one slice. The run stops before the first pending trap release, and at
    the first avalanche with a live trap (`_trap_draws`); that last
    avalanche takes the scalar step, which pushes its live traps' release
    times on the heap. Each stimulus carries its source, the arrival index
    or -1 for a dark, and the loop writes its outcome byte: 0 for no
    avalanche, 1 for an armed one, 2 for a twilight one. Beside these it
    keeps only the dead_end each twilight pulse is held to and the fired
    releases; after it, each column is a gather over the stimuli that
    fired, with the releases merged in.
    Both merges (`_merge`) build one row mask for all their columns.

    The loop indexes, slices and bisects the stimuli through a memoryview
    when there are fewer than _VIEW_BELOW uncontested runs per stimulus,
    and through a list otherwise. With few runs the loop visits few
    stimuli, and the view turns only those into Python ints; with many it
    visits most of them, and a list, converted once, reads faster.

    An elongated dead time is read at the count c of earlier avalanches
    less than RATE_WINDOW_PS before the avalanche, as
    `floor(effective_dead_time(c / RATE_WINDOW_PS * 1.0e12) + 0.5)`. Only
    then does the loop keep the avalanche times: a run appends its members
    with one `extend`, and a scalar step finds c with one `bisect_right`
    from where the last one stopped and reads the dead length from a dict
    keyed by c, filled from that expression the first time each count
    occurs.

    Draw contract 3 (`DRAW_CONTRACT`; the reference draws the same values
    one scalar at a time). Every purpose has its own substream:

      photon uniforms      photon i triggers armed iff u_photon[i] < efficiency,
                           in twilight iff u_photon[i] < efficiency * profile
      dark times           the dark stream, drawn before the state machine runs
      dark uniforms        dark j triggers in twilight iff u_dark[j] < profile;
                           armed darks and trap releases always trigger
      trap counts          one Poisson(mu) count per avalanche, in avalanche
                           order, for more avalanches than the run reaches
      trap delays          one exponential(tau_trap) delay per trap, in
                           filling order, clamped at _MAX_TRAP_DELAY
      jitter normals       one normal per unheld pulse, in avalanche order;
                           held twilight pulses take none

    The trap draws come before the loop (`_trap_draws`) and the normals
    after it: the loop itself draws nothing. Uniforms are keyed, so a
    stimulus draws the same value whatever state it meets. The profile
    never exceeds 1, so a photon with u >= efficiency can never trigger:
    such photons are dropped before the loop. Output times never feed back
    into the state machine and are computed after it (`_emit_times`).
    """
    efficiency = float(params.efficiency)
    (_, dead_y), (tw_x, tw_y), _, _ = params._tables
    # Without a profile nothing triggers in twilight: the zone starts never.
    twilight_from = int(params.tau_quench_ps) if params.twilight_profile else _NEVER
    const_dead = not params.dead_elongation
    tau_dead = int(params.tau_dead0_ps)
    # The longest dead period: floor(x + 0.5) never exceeds ceil(x).
    horizon = math.ceil(max(dead_y))
    window = RATE_WINDOW_PS
    dead_len: dict[int, int] = {}  # the dead length at each avalanche count met so far

    # The photons that can trigger: twilight thresholds never exceed efficiency.
    kept = np.flatnonzero(u_photon < efficiency)
    # Merge them with the darks; at equal times the darks go first. `source`
    # is each stimulus's arrival index, or -1 for a dark. `stimuli` ends in
    # the _NEVER sentinel.
    stimuli, u_stim, source = _merge(
        arrivals[kept], darks, (u_photon[kept], u_dark), (kept, -1), spare=1
    )
    del kept
    dark_flag = (source < 0).tobytes()
    n = source.size

    # Stimulus m is contested when it comes less than `horizon` after
    # stimulus m - 1 (never the sentinel). The contested ones cut the stream
    # into uncontested runs; `run_ends` lists the end of each run of two or
    # more stimuli.
    edges = np.concatenate(([0], np.flatnonzero(np.diff(stimuli) < horizon) + 1, [n]))
    run_ends = edges[1:][np.diff(edges) > 1].tolist()
    run_ends.append(n)
    del edges
    fill_at, starts, delays = _trap_draws(draws, params, n)

    stim = memoryview(stimuli) if len(run_ends) < _VIEW_BELOW * n else stimuli.tolist()
    fired = bytearray(n)  # each stimulus's outcome: 0 none, 1 armed avalanche, 2 twilight one
    held_ends: list[int] = []  # the dead_end each twilight pulse is held to
    afterpulse_times: list[int] = []  # the trap releases that fired
    releases = [_NEVER]  # min-heap of pending trap release times, and the end sentinel
    fk = n_av = 0  # `next_fill` = fill_at[fk] is the next avalanche with a live trap
    next_fill = fill_at[0]

    dead_start = -(2**62)  # avalanche instant of the current dead period
    dead_end = 0  # armed iff t >= dead_end
    # With an elongated dead time: the avalanche times, of which those from
    # av[lo] on may still fall in the window of the next avalanche.
    av: list[int] = []
    lo = 0

    p = rk = 0  # next stimulus; index into run_ends
    while True:
        t = stim[p]
        if releases[0] <= t:
            t = heappop(releases)
            if t == _NEVER:
                break
            # Releases fire when armed and are discarded otherwise.
            if t < dead_end:
                continue
            afterpulse_times.append(t)
        elif t >= dead_end:
            if stim[p + 1] - t >= horizon:
                # Avalanches p .. last - 1 take a slice; `last` takes the scalar step.
                while run_ends[rk] <= p:
                    rk += 1
                last = run_ends[rk] - 1
                if releases[0] <= stim[last]:  # end before the first stimulus it precedes
                    last = bisect_left(stim, releases[0], p + 1, last) - 1
                if next_fill - n_av < last - p:
                    last = p + next_fill - n_av
                if last > p:
                    n_av += last - p
                    fired[p:last] = b"\x01" * (last - p)
                    if not const_dead:
                        av.extend(stim[p:last])
                    p = last
                    t = stim[p]
            fired[p] = 1
            p += 1
        else:
            dt = t - dead_start
            if dt < twilight_from:
                p += 1
                continue
            prof = _interp_clamped(float(dt), tw_x, tw_y)
            if u_stim[p] >= (prof if dark_flag[p] else efficiency * prof):
                p += 1
                continue
            fired[p] = 2
            held_ends.append(dead_end)
            p += 1

        # Avalanche bookkeeping: the dead-time length comes from the count
        # of avalanches in the window before this one.
        dead_start = t
        if const_dead:
            dead_end = t + tau_dead
        else:
            lo = bisect_right(av, t - window, lo)
            c = len(av) - lo
            if c not in dead_len:
                dead_len[c] = math.floor(effective_dead_time(c / window * 1.0e12, params) + 0.5)
            dead_end = t + dead_len[c]
            av.append(t)
            if lo > _AV_TRIM:
                del av[:lo]
                lo = 0

        # Trap filling: every avalanche fills k ~ Poisson(mu) traps; the live ones wait.
        if n_av == next_fill:
            for d in delays[starts[fk] : starts[fk + 1]]:
                heappush(releases, t + d)
            fk += 1
            next_fill = fill_at[fk]
        n_av += 1

    del stim, releases, fill_at, starts, delays, av
    outcome = np.frombuffer(fired, dtype=np.uint8)
    at = np.flatnonzero(outcome)
    times = stimuli[at]
    arrival_index = source[at]
    del stimuli, u_stim, source
    causes = np.full(at.size, int(Cause.PHOTON), dtype=np.int64)
    causes[arrival_index < 0] = int(Cause.DARK)
    causes[outcome[at] == 2] = int(Cause.TWILIGHT)
    del at, outcome, fired
    released = np.array(afterpulse_times, dtype=np.int64)
    # No two avalanches share a picosecond: every dead period lasts >= 1 ps.
    times, causes, arrival_index = _merge(
        times, released, (causes, int(Cause.AFTERPULSE)), (arrival_index, -1)
    )
    held = np.array(held_ends, dtype=np.int64)
    return _emit_times(times, causes, held, params, draws.jitter), times, causes, arrival_index


def _emit_times(
    times: np.ndarray,
    causes: np.ndarray,
    held_ends: np.ndarray,
    params: DetectorParams,
    normals: np.random.Generator,
) -> np.ndarray:
    """Output times of the avalanches `times` (in avalanche order).

    A twilight pulse is held to the end of the dead period active at its
    arrival, `held_ends` in order, plus the base delay, with no sampled
    timing spread. Every other pulse comes out base_delay + shift + jitter
    after its avalanche, both read off the gap since the previous avalanche
    (the relaxed far end of the curves for the first), never before it.
    Raises ValueError naming jitter_curve when a sampled jitter lies
    outside the time budget (see `instruments`); every other delay was
    checked when `params` was built.

    The avalanches go in blocks of _EMIT_BLOCK. Each block reads its first
    gap from the last avalanche of the block before, continues in
    `held_ends` where that block stopped, and draws its normals after the
    block before drew its own, so the blocks draw what one block would.
    """
    base_delay = int(params.base_delay_ps)
    _, _, (jit_x, jit_y), (sh_x, sh_y) = params._tables
    out = np.empty_like(times)
    h = 0  # the next held end
    for a in range(0, times.size, _EMIT_BLOCK):
        t = times[a : a + _EMIT_BLOCK]
        held = causes[a : a + _EMIT_BLOCK] == int(Cause.TWILIGHT)
        free = ~held
        k = int(np.count_nonzero(held))
        o = out[a : a + _EMIT_BLOCK]
        o[held] = held_ends[h : h + k] + base_delay
        h += k
        dt_prev = np.empty(t.shape)
        dt_prev[0] = t[0] - times[a - 1] if a else _HUGE_DT
        dt_prev[1:] = np.diff(t)
        dt_prev = dt_prev[free]
        if sh_x == jit_x:
            shift, fwhm = _interp_clamped_array(dt_prev, sh_x, sh_y, jit_y)
        else:
            (shift,) = _interp_clamped_array(dt_prev, sh_x, sh_y)
            (fwhm,) = _interp_clamped_array(dt_prev, jit_x, jit_y)
        z = normals.standard_normal(dt_prev.size)
        t_free = t[free]
        spread = z * (fwhm * FWHM_TO_SIGMA)
        delta = np.floor(shift + spread + 0.5)
        if t_free.size:
            # A normal draw has no bound; below the budget the cast is exact.
            _check_sampled_jitter(spread.min(), spread.max())
        o[free] = np.maximum(t_free + base_delay + delta.astype(np.int64), t_free)
    return out


def _check_sampled_jitter(*spreads: float) -> None:
    """Raise ValueError naming jitter_curve unless each sampled jitter lies in the delay budget."""
    _check("jitter_curve sampled delays", SIGNED_DELAY, *spreads)


def effective_dead_time(rate_cps: float, params: DetectorParams) -> float:
    """Dead-time length (ps) at a given sustained output rate.

    Piecewise-linear in the dead_elongation table, clamped at both ends;
    without a table the dead time is rate-independent.
    """
    _check("rate_cps", ">= 0", rate_cps)
    return float(_interp_clamped(float(rate_cps), *params._tables[0]))


def calibrate_afterpulse_mu(p_target: float, tau_trap_ps: float, tau_dead_ps: float) -> float:
    """Mean traps per avalanche that yields a target observed afterpulse fraction.

    Releases inside the dead period are discarded, so only the exp(-tau_dead/
    tau_trap) tail of each trap survives: mu = p_target * exp(tau_dead/tau_trap).
    """
    _check("p_target", "[0, 1)", p_target)
    _check("tau_trap_ps", "> 0", tau_trap_ps)
    _check("tau_dead_ps", ">= 0", tau_dead_ps)
    return p_target * math.exp(tau_dead_ps / tau_trap_ps)


def afterpulse_prob_vs_rs(r_s_ohm: float) -> float:
    """Afterpulse probability attainable at a given series quench resistance.

    Flat at 5.5% while the resistance is negligible (<= 800 ohm), falling
    linearly to 3.2% at 3.3 kohm, then saturating exponentially toward the
    2.7% floor set by charge trapped regardless of quenching speed.
    """
    _check("r_s_ohm", ">= 0", r_s_ohm)
    if r_s_ohm <= 800.0:
        return 0.055
    if r_s_ohm <= 3300.0:
        return 0.055 + (r_s_ohm - 800.0) * (0.032 - 0.055) / 2500.0
    return 0.027 + (0.032 - 0.027) * math.exp(-(r_s_ohm - 3300.0) / 3300.0)


def _blanking_keep(out_times: np.ndarray, t_b: int) -> np.ndarray:
    """Non-retriggerable blanking mask over time-sorted pulses.

    The first pulse is transmitted; a pulse is transmitted iff it falls at
    least t_b after the previous *transmitted* pulse. Withheld pulses do not
    extend the window.

    A pulse at least t_b after the previous pulse is always transmitted, so
    the loop visits only the pulses less than t_b after the previous one,
    carrying the last transmitted time through each cluster of them.
    """
    short = np.flatnonzero(np.diff(out_times) < t_b) + 1
    withheld: list[int] = []
    after = -1  # the last short pulse visited
    last = 0
    for i, t, t_prev in zip(
        short.tolist(), out_times[short].tolist(), out_times[short - 1].tolist()
    ):
        if i != after + 1:  # pulse i - 1 opens the cluster: it was transmitted
            last = t_prev
        after = i
        if t - last >= t_b:
            last = t
        else:
            withheld.append(i)
    keep = np.ones(out_times.shape[0], dtype=np.bool_)
    keep[withheld] = False
    return keep


def _prepare_stimuli(arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int):
    """Validate inputs and draw the keyed stimulus randomness.

    Returns (arrivals, u_photon, darks, u_dark, draws): the photon times and
    their uniforms, the dark times and theirs, and the substreams of `rng`
    that the state machine draws from.
    """
    arrivals = _sorted_times(arrivals, "arrivals", TIME)
    draws = _draw_streams(rng)
    darks = poisson_times(draws.dark_times, params.dark_rate_cps, duration_ps)  # checks duration_ps
    u_photon = draws.photon.random(arrivals.size)
    return arrivals, u_photon, darks, draws.dark_twilight.random(darks.size), draws


def _finalize_records(columns: tuple[np.ndarray, ...], params: DetectorParams) -> PulseRecords:
    """Sort the kernel's pulse columns by output time and apply blanking."""
    # A stable sort on out alone keeps equal output times in avalanche
    # order, which is ascending origin order: every avalanche starts a dead
    # period of at least 1 ps, and an event at dt = 0 can neither find the
    # detector armed nor trigger in twilight (the profile is 0 at its first
    # knot). So origin and cause never decide a tie.
    # Blanking reads the sorted output times, then one gather per column
    # takes the sort and the blanking together.
    order = np.argsort(columns[0], kind="stable")
    if params.blanking is not None:
        order = order[_blanking_keep(columns[0][order], params.blanking.t_b_ps)]
    return PulseRecords(*(a[order] for a in columns))


def detect(
    arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int
) -> PulseRecords:
    """Run the detector over a photon arrival stream.

    `duration_ps` bounds the dark-count stream (arrivals are consumed in
    full either way). Every draw comes from substreams spawned from `rng`'s
    seed sequence (draw contract `DRAW_CONTRACT`), so `rng` needs one, as a
    generator from `make_generator` or `np.random.default_rng` has. Pulses
    are returned sorted by output time; when blanking is configured the
    output is the transmitted subset. Arrivals and duration_ps lie in
    [0, 2**61) ps, the time budget of `instruments`, which keeps every output
    time below 2**62; a ValueError names the argument otherwise, or names
    jitter_curve when a sampled jitter passes 2**58 ps.
    """
    columns = _detect_kernel(*_prepare_stimuli(arrivals, params, rng, duration_ps), params)
    return _finalize_records(columns, params)
