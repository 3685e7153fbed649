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
from typing import NamedTuple

import numpy as np

from .instruments import _sorted_times
from .rng import FWHM_TO_SIGMA
from .sources import poisson_times

__all__ = [
    "DRAW_CONTRACT",
    "TAU_EMA_PS",
    "Cause",
    "QuenchTimes",
    "AfterpulseModel",
    "BlankingConfig",
    "DetectorParams",
    "PulseRecords",
    "circuit_timing",
    "effective_dead_time",
    "twilight_sensitivity",
    "calibrate_afterpulse_mu",
    "afterpulse_prob_vs_rs",
    "blanking_filter",
    "detect",
]

# Version of the random-draw contract (see `_detect_kernel`). Within one
# contract a detector design and a seed give exactly one pulse stream.
DRAW_CONTRACT = 2

# Time constant of the output-rate estimator driving dead-time elongation
TAU_EMA_PS = 1.0e6

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
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
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
    exponential(tau_trap) delay.
    """

    mu: float = 0.0
    tau_trap_ps: float = 32000.0

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.tau_trap_ps <= 0:
            raise ValueError(f"tau_trap_ps must be > 0, got {self.tau_trap_ps}")


@dataclass(frozen=True)
class BlankingConfig:
    """Non-retriggerable output blanking stage."""

    t_b_ps: int = 24000

    def __post_init__(self) -> None:
        if self.t_b_ps <= 0:
            raise ValueError(f"t_b_ps must be > 0, got {self.t_b_ps}")


Curve = tuple[tuple[float, float], ...]


def _curve_arrays(curve: Curve, name: str) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray([p[0] for p in curve], dtype=np.float64)
    ys = np.asarray([p[1] for p in curve], dtype=np.float64)
    if xs.size == 0:
        raise ValueError(f"{name} must have at least one point")
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

    efficiency: float
    tau_dead0_ps: int
    tau_quench_ps: int
    base_delay_ps: int = 0
    dark_rate_cps: float = 0.0
    dead_elongation: Curve = ()
    twilight_profile: Curve = ()
    jitter_curve: Curve = ((0.0, 0.0),)
    shift_curve: Curve = ((0.0, 0.0),)
    afterpulse: AfterpulseModel = field(default_factory=AfterpulseModel)
    blanking: BlankingConfig | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if self.tau_dead0_ps <= 0:
            raise ValueError(f"tau_dead0_ps must be > 0, got {self.tau_dead0_ps}")
        if not 0 <= self.tau_quench_ps <= self.tau_dead0_ps:
            raise ValueError(
                f"tau_quench_ps must lie in [0, tau_dead0_ps], got {self.tau_quench_ps}"
            )
        if self.base_delay_ps < 0:
            raise ValueError(f"base_delay_ps must be >= 0, got {self.base_delay_ps}")
        if self.dark_rate_cps < 0:
            raise ValueError(f"dark_rate_cps must be >= 0, got {self.dark_rate_cps}")
        zero = ((0.0, 0.0),)
        rates, added = _curve_arrays(self.dead_elongation or zero, "dead_elongation")
        if rates[0] < 0:
            raise ValueError("dead_elongation rates must be >= 0")
        if np.any(added < 0):
            raise ValueError("dead_elongation added durations must be >= 0")
        tw_x, tw_y = _curve_arrays(self.twilight_profile or zero, "twilight_profile")
        if self.twilight_profile:
            if tw_y[0] != 0.0 or tw_y[-1] != 1.0:
                raise ValueError("twilight_profile must start at 0 and end at 1")
            if np.any(np.diff(tw_y) < 0):
                raise ValueError("twilight_profile must be monotone non-decreasing")
            if tw_x[0] < self.tau_quench_ps or tw_x[-1] > self.tau_dead0_ps:
                raise ValueError(
                    "twilight_profile knots must lie within [tau_quench_ps, tau_dead0_ps]"
                )
        jitter = _curve_arrays(self.jitter_curve, "jitter_curve")
        if np.any(jitter[1] < 0):
            raise ValueError("jitter_curve values must be >= 0")
        shift = _curve_arrays(self.shift_curve, "shift_curve")
        if shift[1][-1] != 0.0:
            raise ValueError("shift_curve must decay to 0 at its last knot")
        tables = ((rates, self.tau_dead0_ps + added), (tw_x, tw_y), jitter, shift)
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


# Trap counts and delays are read from blocks of this many draws.
_TRAP_BLOCK = 4096

# Time of the end-of-stream sentinels, later than every stimulus.
_NEVER = 2**63 - 1


def _trap_count_block(draws: _Draws, mu: float, first: int) -> tuple[list[int], list[int]]:
    """The Poisson(mu) trap counts of avalanches first .. first + _TRAP_BLOCK - 1.

    Returns the avalanches whose count is nonzero, followed by the first
    avalanche of the next block, and their counts.
    """
    counts = draws.trap_counts.poisson(mu, _TRAP_BLOCK)
    at = np.flatnonzero(counts)
    return (at + first).tolist() + [first + _TRAP_BLOCK], counts[at].tolist()


def _trap_delay_block(draws: _Draws, tau_trap: float) -> list[int]:
    """The next block of trap delays: exponential(tau_trap), clamped, rounded to ps."""
    d = np.minimum(draws.trap_delays.exponential(tau_trap, _TRAP_BLOCK), _MAX_TRAP_DELAY)
    return np.floor(d + 0.5).astype(np.int64).tolist()


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
    stimulus array, darks before photons at equal times. Trap releases are
    generated internally and wait on a heap of release times; a release
    goes before a stimulus on the same picosecond.

    No dead period outlasts `horizon`, the largest dead time the table can
    give, so a stimulus at least `horizon` after the previous stimulus is
    uncontested: when the previous one fired, this one finds the detector
    armed. When the loop meets an armed stimulus followed by an uncontested
    one, it takes the avalanches up to the end of that uncontested run as
    one slice. The run stops before the first pending trap release, and at
    the first avalanche that fills traps or opens a new trap-count block;
    that last avalanche takes the scalar step, which reads the counts. The
    loop marks the stimuli that fired and records only the twilight
    avalanches (with the dead_end each is held to) and the fired releases;
    numpy builds the columns after it. An elongated dead time still updates
    its rate estimate one avalanche at a time, with the same float
    operations, and reads the table only where a dead_end is needed.

    Draw contract 2 (`DRAW_CONTRACT`; the reference draws the same values
    one scalar at a time). Every purpose has its own substream:

      photon uniforms      photon i triggers armed iff u_photon[i] < efficiency,
                           in twilight iff u_photon[i] < efficiency * profile
      dark times           the dark stream, drawn before the state machine runs
      dark uniforms        dark j triggers in twilight iff u_dark[j] < profile;
                           armed darks and trap releases always trigger
      trap counts          one Poisson(mu) count per avalanche, in avalanche
                           order (only when mu > 0)
      trap delays          one exponential(tau_trap) delay per trap, in
                           filling order, clamped at _MAX_TRAP_DELAY
      jitter normals       one normal per unheld pulse, in avalanche order;
                           held twilight pulses take none

    Uniforms are keyed, so a stimulus draws the same value whatever state it
    meets. The profile never exceeds 1, so a photon with u >= efficiency can
    never trigger: such photons are dropped before the loop. Output times
    never feed back into the state machine and are computed after it
    (`_emit_times`).
    """
    efficiency = float(params.efficiency)
    ap_mu = float(params.afterpulse.mu)
    ap_tau = float(params.afterpulse.tau_trap_ps)
    (dead_x, dead_y), (tw_x, tw_y), _, _ = params._tables
    rate_first, rate_last, dead_first, dead_last = dead_x[0], dead_x[-1], dead_y[0], dead_y[-1]
    # Without a profile nothing triggers in twilight: the zone starts never.
    twilight_from = int(params.tau_quench_ps) if params.twilight_profile else _NEVER
    const_dead = not params.dead_elongation
    tau_dead = int(params.tau_dead0_ps)
    # The longest dead period: floor(x + 0.5) never exceeds ceil(x).
    horizon = math.ceil(max(dead_y))
    tau_ema = TAU_EMA_PS
    inv_tau_ema = 1.0 / TAU_EMA_PS
    exp = math.exp
    floor = math.floor

    # The photons that can trigger: twilight thresholds never exceed efficiency.
    kept = np.flatnonzero(u_photon < efficiency)
    # Merge them with the darks; at equal times the darks go first.
    dark_at = np.searchsorted(arrivals[kept], darks) + np.arange(darks.size)
    is_dark = np.zeros(kept.size + darks.size, dtype=np.bool_)
    is_dark[dark_at] = True
    stimuli = np.empty(is_dark.size, dtype=np.int64)
    stimuli[dark_at] = darks
    stimuli[~is_dark] = arrivals[kept]
    u_stim = np.empty(is_dark.size)
    u_stim[dark_at] = u_dark
    u_stim[~is_dark] = u_photon[kept]
    dark_flag = is_dark.tobytes()
    n = stimuli.size

    # Stimulus m is contested when it comes less than `horizon` after
    # stimulus m - 1. The contested ones cut the stream into uncontested
    # runs; `run_ends` lists the end of each run of two or more stimuli.
    edges = np.concatenate(([0], np.flatnonzero(np.diff(stimuli) < horizon) + 1, [n]))
    run_ends = edges[1:][np.diff(edges) > 1].tolist()
    run_ends.append(n)
    del edges

    stim = stimuli.tolist()
    stim.append(_NEVER)
    fired = bytearray(n)  # 1 for each stimulus that caused an avalanche
    twilight_at: list[int] = []  # the stimuli that triggered in twilight
    held_ends: list[int] = []  # the dead_end each twilight pulse is held to
    afterpulse_times: list[int] = []  # the trap releases that fired
    releases = [_NEVER]  # min-heap of pending trap release times, and the end sentinel
    # Avalanches are numbered in order. `fill_at` holds the avalanches of the
    # current count block that fill traps and then the next block's first;
    # `fills` their counts. The scalar step reads the blocks at avalanche
    # `next_fill`, and a run never reaches past it.
    fill_at: list[int] = [0]
    fills: list[int] = []
    fk = n_av = 0
    next_fill = 0 if ap_mu > 0.0 else _NEVER
    delays: list[int] = []
    di = _TRAP_BLOCK  # read position in the delay block; starts used up

    dead_start = -(2**62)  # avalanche instant of the current dead period
    dead_end = 0  # armed iff t >= dead_end
    lam = 0.0  # EMA detection-rate estimate, events per ps
    t_lam = 0

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
                        for tm in stim[p:last]:
                            lam = lam * exp((t_lam - tm) / tau_ema) + inv_tau_ema
                            t_lam = tm
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
            fired[p] = 1
            twilight_at.append(p)
            held_ends.append(dead_end)
            p += 1

        # Avalanche bookkeeping: the dead-time length comes from the rate
        # estimate just before this avalanche is counted.
        dead_start = t
        if const_dead:
            dead_end = t + tau_dead
        else:
            lam *= exp((t_lam - t) / tau_ema)
            t_lam = t
            # `_interp_clamped(lam * 1.0e12, dead_x, dead_y)`, inline.
            rate = lam * 1.0e12
            if rate <= rate_first:
                dead = dead_first
            elif rate >= rate_last:
                dead = dead_last
            else:
                hi = bisect_right(dead_x, rate)
                lo = hi - 1
                frac = (rate - dead_x[lo]) / (dead_x[hi] - dead_x[lo])
                dead = dead_y[lo] + frac * (dead_y[hi] - dead_y[lo])
            dead_end = t + floor(dead + 0.5)
            lam += inv_tau_ema

        # Trap filling: every avalanche fills k ~ Poisson(mu) traps.
        if n_av == next_fill:
            if fk == len(fills):
                fill_at, fills = _trap_count_block(draws, ap_mu, n_av)
                fk = 0
            if fill_at[fk] == n_av:
                for _ in range(fills[fk]):
                    if di == _TRAP_BLOCK:
                        delays = _trap_delay_block(draws, ap_tau)
                        di = 0
                    heappush(releases, t + delays[di])
                    di += 1
                fk += 1
            next_fill = fill_at[fk]
        n_av += 1

    del stim, releases, fill_at, fills, delays
    at = np.flatnonzero(np.frombuffer(fired, dtype=np.bool_))
    del fired
    times = stimuli[at]
    del stimuli, u_stim
    causes = np.full(at.size, int(Cause.PHOTON), dtype=np.int64)
    dark = is_dark[at]
    causes[dark] = int(Cause.DARK)
    causes[np.searchsorted(at, np.array(twilight_at, dtype=np.int64))] = int(Cause.TWILIGHT)
    arrival_index = np.full(at.size, -1, dtype=np.int64)
    at = at[~dark]
    # A photon's rank among the kept photons is its position less the darks before it.
    arrival_index[~dark] = kept[at - np.searchsorted(dark_at, at)]
    del at, dark, kept, is_dark
    if afterpulse_times:
        released = np.array(afterpulse_times, dtype=np.int64)
        # No two avalanches share a picosecond: every dead period lasts >= 1 ps.
        rows = np.searchsorted(times, released)
        times = np.insert(times, rows, released)
        causes = np.insert(causes, rows, int(Cause.AFTERPULSE))
        arrival_index = np.insert(arrival_index, rows, -1)
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
    """
    base_delay = int(params.base_delay_ps)
    _, _, (jit_x, jit_y), (sh_x, sh_y) = params._tables
    out = np.empty_like(times)
    held = causes == int(Cause.TWILIGHT)
    out[held] = held_ends + base_delay
    free = ~held
    gaps = np.diff(times)
    dt_prev = np.full(times.shape, _HUGE_DT)
    dt_prev[1:] = np.where(gaps > 2**61, _HUGE_DT, gaps)
    dt_prev = dt_prev[free]
    if sh_x == jit_x:
        shift, fwhm = _interp_clamped_array(dt_prev, sh_x, sh_y, jit_y)
    else:
        (shift,) = _interp_clamped_array(dt_prev, sh_x, sh_y)
        (fwhm,) = _interp_clamped_array(dt_prev, jit_x, jit_y)
    z = normals.standard_normal(dt_prev.size)
    t_free = times[free]
    delta = np.floor(shift + z * (fwhm * FWHM_TO_SIGMA) + 0.5).astype(np.int64)
    out[free] = np.maximum(t_free + base_delay + delta, t_free)
    return out


def effective_dead_time(rate_cps: float, params: DetectorParams) -> float:
    """Dead-time length (ps) at a given sustained output rate.

    Piecewise-linear in the dead_elongation table, clamped at both ends;
    without a table the dead time is rate-independent.
    """
    if rate_cps < 0:
        raise ValueError(f"rate_cps must be >= 0, got {rate_cps}")
    return float(_interp_clamped(float(rate_cps), *params._tables[0]))


def twilight_sensitivity(dt_since_avalanche_ps: float, params: DetectorParams) -> float:
    """Relative sensitivity at an offset into the dead period.

    0 through the quench phase, the configured profile across the twilight
    zone, 1 at and beyond the nominal dead time.
    """
    if dt_since_avalanche_ps >= params.tau_dead0_ps:
        return 1.0
    if dt_since_avalanche_ps < params.tau_quench_ps or not params.twilight_profile:
        return 0.0
    return float(_interp_clamped(float(dt_since_avalanche_ps), *params._tables[1]))


def calibrate_afterpulse_mu(p_target: float, tau_trap_ps: float, tau_dead_ps: float) -> float:
    """Mean traps per avalanche that yields a target observed afterpulse fraction.

    Releases inside the dead period are discarded, so only the exp(-tau_dead/
    tau_trap) tail of each trap survives: mu = p_target * exp(tau_dead/tau_trap).
    """
    if not 0.0 <= p_target < 1.0:
        raise ValueError(f"p_target must lie in [0, 1), got {p_target}")
    if tau_trap_ps <= 0:
        raise ValueError(f"tau_trap_ps must be > 0, got {tau_trap_ps}")
    if tau_dead_ps < 0:
        raise ValueError(f"tau_dead_ps must be >= 0, got {tau_dead_ps}")
    return p_target * math.exp(tau_dead_ps / tau_trap_ps)


def afterpulse_prob_vs_rs(r_s_ohm: float) -> float:
    """Afterpulse probability attainable at a given series quench resistance.

    Flat at 5.5% while the resistance is negligible (<= 800 ohm), falling
    linearly to 3.2% at 3.3 kohm, then saturating exponentially toward the
    2.7% floor set by charge trapped regardless of quenching speed.
    """
    if r_s_ohm < 0:
        raise ValueError(f"r_s_ohm must be >= 0, got {r_s_ohm}")
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


def blanking_filter(pulse_times, t_b_ps: int) -> np.ndarray:
    """Times transmitted by a non-retriggerable blanking stage.

    The first pulse passes; later pulses pass iff they arrive at least t_b
    after the previous transmitted pulse. Withheld pulses do not restart the
    window.
    """
    t = _sorted_times(pulse_times, "pulse_times")
    if t_b_ps <= 0:
        raise ValueError(f"t_b_ps must be > 0, got {t_b_ps}")
    return t[_blanking_keep(t, t_b_ps)]


def _prepare_stimuli(arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int):
    """Validate inputs and draw the keyed stimulus randomness.

    Returns (arrivals, u_photon, darks, u_dark, draws): the photon times and
    their uniforms, the dark times and theirs, and the substreams of `rng`
    that the state machine draws from.
    """
    arrivals = _sorted_times(arrivals, "arrivals")
    if arrivals.size and arrivals[0] < 0:
        raise ValueError("arrivals must be non-negative")
    if duration_ps <= 0:
        raise ValueError(f"duration_ps must be > 0, got {duration_ps}")
    draws = _draw_streams(rng)
    darks = poisson_times(draws.dark_times, params.dark_rate_cps, duration_ps)
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
    output is the transmitted subset.
    """
    columns = _detect_kernel(*_prepare_stimuli(arrivals, params, rng, duration_ps), params)
    return _finalize_records(columns, params)
