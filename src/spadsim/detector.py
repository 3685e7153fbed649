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
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import heappop, heappush

import numpy as np

from .rng import FWHM_TO_SIGMA
from .sources import poisson_times

__all__ = [
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

# Time constant of the output-rate estimator driving dead-time elongation
TAU_EMA_PS = 1.0e6

# Stimulus kind codes. Photons are the caller's sorted arrivals; darks and
# trap releases wait in one event heap keyed (time, kind, order). At equal
# timestamps the lower code is processed first.
KIND_TRAP_RELEASE = 1
KIND_DARK = 2
KIND_PHOTON = 3

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

    def validate(self) -> None:
        if self.mu < 0:
            raise ValueError(f"afterpulse.mu must be >= 0, got {self.mu}")
        if self.tau_trap_ps <= 0:
            raise ValueError(f"afterpulse.tau_trap_ps must be > 0, got {self.tau_trap_ps}")


@dataclass(frozen=True)
class BlankingConfig:
    """Non-retriggerable output blanking stage."""

    t_b_ps: int = 24000

    def validate(self) -> None:
        if self.t_b_ps <= 0:
            raise ValueError(f"blanking.t_b_ps must be > 0, got {self.t_b_ps}")


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

    def validate(self) -> None:
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
        if self.dead_elongation:
            xs, ys = _curve_arrays(self.dead_elongation, "dead_elongation")
            if xs[0] < 0:
                raise ValueError("dead_elongation rates must be >= 0")
            if np.any(ys < 0):
                raise ValueError("dead_elongation added durations must be >= 0")
        if self.twilight_profile:
            xs, ys = _curve_arrays(self.twilight_profile, "twilight_profile")
            if ys[0] != 0.0 or ys[-1] != 1.0:
                raise ValueError("twilight_profile must start at 0 and end at 1")
            if np.any(np.diff(ys) < 0):
                raise ValueError("twilight_profile must be monotone non-decreasing")
            if xs[0] < self.tau_quench_ps or xs[-1] > self.tau_dead0_ps:
                raise ValueError(
                    "twilight_profile knots must lie within [tau_quench_ps, tau_dead0_ps]"
                )
        _, jy = _curve_arrays(self.jitter_curve, "jitter_curve")
        if np.any(jy < 0):
            raise ValueError("jitter_curve values must be >= 0")
        _, sy = _curve_arrays(self.shift_curve, "shift_curve")
        if sy[-1] != 0.0:
            raise ValueError("shift_curve must decay to 0 at its last knot")
        self.afterpulse.validate()
        if self.blanking is not None:
            self.blanking.validate()


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


def _curves(params: DetectorParams) -> tuple:
    """The dead-time, twilight, jitter and shift tables as (xs, ys) float lists.

    The dead-time table maps output rate to the full dead time, tau_dead0
    plus the elongation. An empty elongation or twilight table is the
    all-zero table.
    """
    zero = ((0.0, 0.0),)
    rates, added = _curve_arrays(params.dead_elongation or zero, "dead_elongation")
    tables = (
        (rates, params.tau_dead0_ps + added),
        _curve_arrays(params.twilight_profile or zero, "twilight_profile"),
        _curve_arrays(params.jitter_curve, "jitter_curve"),
        _curve_arrays(params.shift_curve, "shift_curve"),
    )
    return tuple((xs.tolist(), ys.tolist()) for xs, ys in tables)


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


def _round_ps(x: float) -> int:
    """Round to the integer picosecond grid, halves up."""
    return math.floor(x + 0.5)


def _ema_decay(lam: float, dt_ps: int, tau_ema_ps: float) -> float:
    """Exponential-moving-average rate estimate decayed over a quiet gap."""
    return lam * math.exp(-float(dt_ps) / tau_ema_ps)


def _emit_delta(shift_ps: float, fwhm_ps: float, z: float) -> int:
    """Signed output-delay offset: calibrated shift plus sampled jitter."""
    return _round_ps(shift_ps + z * (fwhm_ps * FWHM_TO_SIGMA))


def _detect_kernel(
    arrivals: np.ndarray, darks: np.ndarray, params: DetectorParams, rng: np.random.Generator
):
    """Actively-quenched SPAD state machine over two sorted stimulus streams.

    `arrivals` are the photon times and `darks` the dark-count times, both
    sorted, and `params` is the validated detector. Returns the four
    int64 `PulseRecords` columns in avalanche order. Trap releases are
    generated internally; one heap orders them with the next dark by
    (time, kind, order), so at the same picosecond releases go before
    darks, and both go before a photon.

    Draw-order contract of the detection state machine (the reference mirrors it
    exactly; changing it breaks stream compatibility):

      ARMED photon:        uniform(efficiency) -> [if detected] normal
                           -> [if mu>0] poisson -> one delay draw per trap
      ARMED dark/release:  normal -> [if mu>0] poisson -> trap delay draws
      TWILIGHT photon/dark: uniform (always) -> [if triggered, mu>0] poisson
                           -> trap delay draws (no normal: held pulses carry no
                           sampled jitter)
      TWILIGHT release, QUENCH anything: no draws.

    Each trap delay is one exponential(tau_trap) draw.
    """
    cause_photon = int(Cause.PHOTON)
    cause_dark = int(Cause.DARK)
    cause_afterpulse = int(Cause.AFTERPULSE)
    cause_twilight = int(Cause.TWILIGHT)

    efficiency = float(params.efficiency)
    base_delay = int(params.base_delay_ps)
    tau_quench = int(params.tau_quench_ps)
    ap_mu = float(params.afterpulse.mu)
    ap_tau = float(params.afterpulse.tau_trap_ps)
    (dead_x, dead_y), (tw_x, tw_y), (jit_x, jit_y), (sh_x, sh_y) = _curves(params)

    out_t: list[int] = []
    out_o: list[int] = []
    out_c: list[int] = []
    out_a: list[int] = []
    # Min-heap of (time, kind, order) over every pending trap release and
    # the next dark; popping dark j pushes dark j + 1.
    events: list[tuple[int, int, int]] = []
    trap_seq = 0

    dead_start = -(2**62)  # avalanche instant of the current dead period
    dead_end = 0  # armed iff t >= dead_end
    last_avalanche = -(2**62)
    lam = 0.0  # EMA detection-rate estimate, events per ps
    t_lam = 0

    photons = arrivals.tolist()
    darks = darks.tolist()
    n_photons = len(photons)
    n_darks = len(darks)
    if n_darks:
        events.append((darks[0], KIND_DARK, 0))
    i = 0
    while i < n_photons or events:
        if events and (i >= n_photons or events[0][0] <= photons[i]):
            t, kind, j = heappop(events)
            if kind == KIND_DARK and j + 1 < n_darks:
                heappush(events, (darks[j + 1], KIND_DARK, j + 1))
            src = -1
        else:
            t = photons[i]
            kind = KIND_PHOTON
            src = i
            i += 1

        triggered = False
        held = False
        cause = cause_photon

        if t >= dead_end:
            # ARMED: photons face the efficiency draw; dark counts are
            # post-efficiency by definition and trap releases fire with
            # probability 1.
            if kind == KIND_PHOTON:
                if rng.random() < efficiency:
                    triggered = True
            elif kind == KIND_DARK:
                triggered = True
                cause = cause_dark
            else:
                triggered = True
                cause = cause_afterpulse
        else:
            dt = t - dead_start
            if dt >= tau_quench:
                # TWILIGHT: partially re-armed, sensing electronics off.
                # Releases are discarded; photons and darks can avalanche.
                if kind != KIND_TRAP_RELEASE:
                    u = rng.random()
                    prof = _interp_clamped(float(dt), tw_x, tw_y)
                    thr = efficiency * prof if kind == KIND_PHOTON else prof
                    if u < thr:
                        triggered = True
                        held = True
                        cause = cause_twilight
            # QUENCH: below breakdown; everything is lost without a draw.

        if triggered:
            # Emit the output pulse before drawing traps.
            if held:
                # Held to the end of the dead period active at arrival;
                # deterministic, no sampled jitter or shift.
                ot = dead_end + base_delay
            else:
                gap = t - last_avalanche
                dt_prev = _HUGE_DT if gap > 2**61 else float(gap)
                shift = _interp_clamped(dt_prev, sh_x, sh_y)
                fwhm = _interp_clamped(dt_prev, jit_x, jit_y)
                ot = t + base_delay + _emit_delta(shift, fwhm, rng.standard_normal())
                if ot < t:
                    ot = t
            out_t.append(ot)
            out_o.append(t)
            out_c.append(cause)
            out_a.append(src)

            # Avalanche bookkeeping: the dead-time length comes from the
            # rate estimate just before this avalanche is counted.
            lam = _ema_decay(lam, t - t_lam, TAU_EMA_PS)
            t_lam = t
            dlen = _round_ps(_interp_clamped(lam * 1.0e12, dead_x, dead_y))
            lam += 1.0 / TAU_EMA_PS
            dead_start = t
            dead_end = t + dlen
            last_avalanche = t

            # Trap filling: every avalanche fills k ~ Poisson(mu) traps.
            if ap_mu > 0.0:
                for _ in range(rng.poisson(ap_mu)):
                    d = rng.exponential(ap_tau)
                    if d > _MAX_TRAP_DELAY:
                        d = _MAX_TRAP_DELAY
                    heappush(events, (t + _round_ps(d), KIND_TRAP_RELEASE, trap_seq))
                    trap_seq += 1

    return (
        np.array(out_t, dtype=np.int64),
        np.array(out_o, dtype=np.int64),
        np.array(out_c, dtype=np.int64),
        np.array(out_a, dtype=np.int64),
    )


def effective_dead_time(rate_cps: float, params: DetectorParams) -> float:
    """Dead-time length (ps) at a given sustained output rate.

    Piecewise-linear in the dead_elongation table, clamped at both ends;
    without a table the dead time is rate-independent.
    """
    if rate_cps < 0:
        raise ValueError(f"rate_cps must be >= 0, got {rate_cps}")
    xs, ys = _curves(params)[0]
    return float(_interp_clamped(float(rate_cps), xs, ys))


def twilight_sensitivity(dt_since_avalanche_ps: float, params: DetectorParams) -> float:
    """Relative sensitivity at an offset into the dead period.

    0 through the quench phase, the configured profile across the twilight
    zone, 1 at and beyond the nominal dead time.
    """
    if dt_since_avalanche_ps >= params.tau_dead0_ps:
        return 1.0
    if dt_since_avalanche_ps < params.tau_quench_ps or not params.twilight_profile:
        return 0.0
    xs, ys = _curves(params)[1]
    return float(_interp_clamped(float(dt_since_avalanche_ps), xs, ys))


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
    """
    kept: list[int] = []
    last = 0
    for i, t in enumerate(out_times.tolist()):
        if not kept or t - last >= t_b:
            kept.append(i)
            last = t
    keep = np.zeros(out_times.shape[0], dtype=np.bool_)
    keep[kept] = True
    return keep


def blanking_filter(pulse_times, t_b_ps: int) -> np.ndarray:
    """Times transmitted by a non-retriggerable blanking stage.

    The first pulse passes; later pulses pass iff they arrive at least t_b
    after the previous transmitted pulse. Withheld pulses do not restart the
    window.
    """
    t = np.asarray(pulse_times, dtype=np.int64)
    if t.size and np.any(np.diff(t) < 0):
        raise ValueError("pulse_times must be sorted")
    if t_b_ps <= 0:
        raise ValueError(f"t_b_ps must be > 0, got {t_b_ps}")
    return t[_blanking_keep(t, t_b_ps)]


def _prepare_stimuli(
    arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate inputs and draw the dark stream; returns (arrivals, darks).

    Dark counts are drawn from `rng` up front, before the state machine
    consumes it, so the per-event draw sequence is independent of the dark
    stream's length.
    """
    arrivals = np.asarray(arrivals, dtype=np.int64)
    if arrivals.size:
        if np.any(np.diff(arrivals) < 0):
            raise ValueError("arrivals must be sorted non-decreasing")
        if arrivals[0] < 0:
            raise ValueError("arrivals must be non-negative")
    if duration_ps <= 0:
        raise ValueError(f"duration_ps must be > 0, got {duration_ps}")
    return arrivals, poisson_times(rng, params.dark_rate_cps, duration_ps)


def _finalize_records(columns: tuple[np.ndarray, ...], params: DetectorParams) -> PulseRecords:
    """Sort the kernel's pulse columns by output time and apply blanking."""
    # A stable sort on out alone keeps equal output times in avalanche
    # order, which is ascending origin order: every avalanche starts a dead
    # period of at least 1 ps, and an event at dt = 0 can neither find the
    # detector armed nor trigger in twilight (the profile is 0 at its first
    # knot). So origin and cause never decide a tie.
    order = np.argsort(columns[0], kind="stable")
    columns = [a[order] for a in columns]
    if params.blanking is not None:
        keep = _blanking_keep(columns[0], params.blanking.t_b_ps)
        columns = [a[keep] for a in columns]
    return PulseRecords(*columns)


def detect(
    arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int
) -> PulseRecords:
    """Run the detector over a photon arrival stream.

    `duration_ps` bounds the dark-count stream (arrivals are consumed in
    full either way). Pulses are returned sorted by output time; when
    blanking is configured the output is the transmitted subset.
    """
    params.validate()
    arrivals, darks = _prepare_stimuli(arrivals, params, rng, duration_ps)
    columns = _detect_kernel(arrivals, darks, params, rng)
    return _finalize_records(columns, params)
