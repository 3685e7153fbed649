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
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from . import _kernels
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

    mu traps are filled per avalanche on average. Release delays are
    exponential(tau_trap) by default; the power-law mode draws
    t_min * u**(1/(1-alpha)) instead, for trap populations with a broad
    lifetime spectrum.
    """

    mu: float = 0.0
    tau_trap_ps: float = 32000.0
    mode: str = "exponential"
    t_min_ps: float = 1000.0
    alpha: float = 2.0

    def validate(self) -> None:
        if self.mu < 0:
            raise ValueError(f"afterpulse.mu must be >= 0, got {self.mu}")
        if self.tau_trap_ps <= 0:
            raise ValueError(f"afterpulse.tau_trap_ps must be > 0, got {self.tau_trap_ps}")
        if self.mode not in ("exponential", "power-law"):
            raise ValueError(
                f"afterpulse.mode must be 'exponential' or 'power-law', got {self.mode!r}"
            )
        if self.t_min_ps <= 0:
            raise ValueError(f"afterpulse.t_min_ps must be > 0, got {self.t_min_ps}")
        if self.alpha <= 1:
            raise ValueError(f"afterpulse.alpha must be > 1, got {self.alpha}")


@dataclass(frozen=True)
class BlankingConfig:
    """Non-retriggerable output blanking stage."""

    t_b_ps: int = 24000
    out_width_ps: int = 12000

    def validate(self) -> None:
        if self.t_b_ps <= 0:
            raise ValueError(f"blanking.t_b_ps must be > 0, got {self.t_b_ps}")
        if self.out_width_ps < 0:
            raise ValueError(f"blanking.out_width_ps must be >= 0, got {self.out_width_ps}")


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

    def with_blanking(self, blanking: BlankingConfig | None) -> "DetectorParams":
        return replace(self, blanking=blanking)


@dataclass(frozen=True)
class PulseRecords:
    """Emitted logic pulses, sorted by output time.

    out_times is when the pulse appears at the connector; origin_times is
    the physical event that caused it (photon arrival, dark event, trap
    release, or the arrival of a twilight-detected photon); causes holds
    Cause codes. out_width_ps is pulse-shape metadata from the blanking
    stage (0 when not reshaped).
    """

    out_times: np.ndarray
    origin_times: np.ndarray
    causes: np.ndarray
    out_width_ps: int = 0

    def __len__(self) -> int:
        return int(self.out_times.shape[0])

    def of_cause(self, cause: Cause) -> np.ndarray:
        """Output times of pulses with the given cause."""
        return self.out_times[self.causes == int(cause)]


@dataclass(frozen=True)
class _CompiledParams:
    """DetectorParams lowered to the scalars and curve tables the kernel reads."""

    efficiency: float
    base_delay: int
    tau_quench: int
    dead_x: list[float]
    dead_y: list[float]
    tw_x: list[float]
    tw_y: list[float]
    jit_x: list[float]
    jit_y: list[float]
    sh_x: list[float]
    sh_y: list[float]
    ap_mu: float
    ap_mode: int
    ap_tau: float
    ap_tmin: float
    ap_alpha: float
    tau_ema: float


def _compile_params(params: DetectorParams) -> _CompiledParams:
    if params.dead_elongation:
        ex, ey = _curve_arrays(params.dead_elongation, "dead_elongation")
        dead_x = ex
        dead_y = params.tau_dead0_ps + ey
    else:
        dead_x = np.array([0.0])
        dead_y = np.array([float(params.tau_dead0_ps)])
    if params.twilight_profile:
        tw_x, tw_y = _curve_arrays(params.twilight_profile, "twilight_profile")
    else:
        tw_x = np.array([0.0])
        tw_y = np.array([0.0])
    jit_x, jit_y = _curve_arrays(params.jitter_curve, "jitter_curve")
    sh_x, sh_y = _curve_arrays(params.shift_curve, "shift_curve")
    return _CompiledParams(
        efficiency=float(params.efficiency),
        base_delay=int(params.base_delay_ps),
        tau_quench=int(params.tau_quench_ps),
        dead_x=dead_x.tolist(),
        dead_y=dead_y.tolist(),
        tw_x=tw_x.tolist(),
        tw_y=tw_y.tolist(),
        jit_x=jit_x.tolist(),
        jit_y=jit_y.tolist(),
        sh_x=sh_x.tolist(),
        sh_y=sh_y.tolist(),
        ap_mu=float(params.afterpulse.mu),
        ap_mode=_kernels.AP_EXPONENTIAL
        if params.afterpulse.mode == "exponential"
        else _kernels.AP_POWER_LAW,
        ap_tau=float(params.afterpulse.tau_trap_ps),
        ap_tmin=float(params.afterpulse.t_min_ps),
        ap_alpha=float(params.afterpulse.alpha),
        tau_ema=TAU_EMA_PS,
    )


def effective_dead_time(rate_cps: float, params: DetectorParams) -> float:
    """Dead-time length (ps) at a given sustained output rate.

    Piecewise-linear in the dead_elongation table, clamped at both ends;
    without a table the dead time is rate-independent.
    """
    if rate_cps < 0:
        raise ValueError(f"rate_cps must be >= 0, got {rate_cps}")
    c = _compile_params(params)
    return float(_kernels._interp_clamped(float(rate_cps), c.dead_x, c.dead_y))


def twilight_sensitivity(dt_since_avalanche_ps: float, params: DetectorParams) -> float:
    """Relative sensitivity at an offset into the dead period.

    0 through the quench phase, the configured profile across the twilight
    zone, 1 at and beyond the nominal dead time.
    """
    if dt_since_avalanche_ps >= params.tau_dead0_ps:
        return 1.0
    if dt_since_avalanche_ps < params.tau_quench_ps or not params.twilight_profile:
        return 0.0
    c = _compile_params(params)
    return float(_kernels._interp_clamped(float(dt_since_avalanche_ps), c.tw_x, c.tw_y))


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
    return t[_kernels._blanking_keep(t, np.int64(t_b_ps))]


def _prepare_stimuli(
    arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate inputs and merge photon arrivals with a drawn dark stream.

    Dark counts are drawn from `rng` up front, before the state machine
    consumes it, so the per-event draw sequence is independent of the dark
    stream's length. The merge is time-ordered with darks ahead of photons
    at equal timestamps.
    """
    arrivals = np.ascontiguousarray(np.asarray(arrivals, dtype=np.int64))
    if arrivals.size:
        if np.any(np.diff(arrivals) < 0):
            raise ValueError("arrivals must be sorted non-decreasing")
        if arrivals[0] < 0:
            raise ValueError("arrivals must be non-negative")
    if duration_ps <= 0:
        raise ValueError(f"duration_ps must be > 0, got {duration_ps}")
    darks = poisson_times(rng, params.dark_rate_cps, duration_ps)
    times = np.concatenate([arrivals, darks])
    kinds = np.concatenate(
        [
            np.full(arrivals.size, _kernels.KIND_PHOTON, dtype=np.int64),
            np.full(darks.size, _kernels.KIND_DARK, dtype=np.int64),
        ]
    )
    order = np.lexsort((kinds, times))
    return times[order], kinds[order]


def _finalize_records(
    out: np.ndarray, origin: np.ndarray, cause: np.ndarray, params: DetectorParams
) -> PulseRecords:
    """Sort avalanche-ordered pulses by output time and apply blanking."""
    order = np.lexsort((cause, origin, out))
    out, origin, cause = out[order], origin[order], cause[order]
    width = 0
    if params.blanking is not None:
        keep = _kernels._blanking_keep(out, np.int64(params.blanking.t_b_ps))
        out, origin, cause = out[keep], origin[keep], cause[keep]
        width = params.blanking.out_width_ps
    return PulseRecords(out_times=out, origin_times=origin, causes=cause, out_width_ps=width)


def detect(
    arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int
) -> PulseRecords:
    """Run the detector over a photon arrival stream.

    `duration_ps` bounds the dark-count stream (arrivals are consumed in
    full either way). Pulses are returned sorted by output time; when
    blanking is configured the output is the transmitted subset.
    """
    params.validate()
    times, kinds = _prepare_stimuli(arrivals, params, rng, duration_ps)
    out, origin, cause = _kernels._detect_kernel(times, kinds, _compile_params(params), rng)
    return _finalize_records(out, origin, cause, params)
