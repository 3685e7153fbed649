"""Hot numeric kernels, in plain Python.

The detection kernel and the event-engine reference implementation share
the small float helpers below, so both paths perform identical
floating-point operations and produce bit-identical pulse streams from the
same rng state.

Draw-order contract of the detection state machine (the reference mirrors it
exactly; changing it breaks stream compatibility):

  ARMED photon:        uniform(efficiency) -> [if detected] normal
                       -> [if mu>0] poisson -> one delay draw per trap
  ARMED dark/release:  normal -> [if mu>0] poisson -> trap delay draws
  TWILIGHT photon/dark: uniform (always) -> [if triggered, mu>0] poisson
                       -> trap delay draws (no normal: held pulses carry no
                       sampled jitter)
  TWILIGHT release, QUENCH anything: no draws.

Trap delay draws are exponential(tau_trap) in exponential mode and one
uniform transformed to t_min * u**(1/(1-alpha)) in power-law mode.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop, heappush

import numpy as np

from .rng import FWHM_TO_SIGMA

# Placeholder "previous avalanche" gap before any avalanche happened; far
# right of every calibration curve, so first pulses get the relaxed values.
_HUGE_DT = 2.0**62

# Upper clamp for trap release delays
_MAX_TRAP_DELAY = 1.0e15

# PulseRecord cause codes
CAUSE_PHOTON = 0
CAUSE_DARK = 1
CAUSE_AFTERPULSE = 2
CAUSE_TWILIGHT = 3

# Stimulus kind codes in the merged input arrays (match engine.EventKind)
KIND_TRAP_RELEASE = 1
KIND_DARK = 2
KIND_PHOTON = 3

# Afterpulse release-time models
AP_EXPONENTIAL = 0
AP_POWER_LAW = 1


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


def _trap_delay_power_law(u: float, t_min_ps: float, alpha: float) -> float:
    """Power-law release delay >= t_min for alpha > 1, clamped."""
    d = t_min_ps * u ** (1.0 / (1.0 - alpha))
    if d > _MAX_TRAP_DELAY:
        d = _MAX_TRAP_DELAY
    return d


def _detect_kernel(times: np.ndarray, kinds: np.ndarray, c, rng: np.random.Generator):
    """Actively-quenched SPAD state machine over a merged stimulus stream.

    `times`/`kinds` are the merged stimuli sorted by (time, kind), and `c`
    is the detector's `_CompiledParams`. Returns int64 arrays (out_times,
    origin_times, causes) in avalanche order. Trap releases are generated
    internally and interleaved by (time, creation order); a release ties
    with an external stimulus at the same picosecond by processing first.
    """
    out_t: list[int] = []
    out_o: list[int] = []
    out_c: list[int] = []
    traps: list[tuple[int, int]] = []  # min-heap of (release time, creation order)
    trap_seq = 0

    dead_start = -(2**62)  # avalanche instant of the current dead period
    dead_end = 0  # armed iff t >= dead_end
    last_avalanche = -(2**62)
    lam = 0.0  # EMA detection-rate estimate, events per ps
    t_lam = 0

    times = times.tolist()
    kinds = kinds.tolist()
    n_in = len(times)
    i = 0
    while i < n_in or traps:
        if traps and (i >= n_in or traps[0][0] <= times[i]):
            t = heappop(traps)[0]
            kind = KIND_TRAP_RELEASE
        else:
            t = times[i]
            kind = kinds[i]
            i += 1

        triggered = False
        held = False
        cause = CAUSE_PHOTON

        if t >= dead_end:
            # ARMED: photons face the efficiency draw; dark counts are
            # post-efficiency by definition and trap releases fire with
            # probability 1.
            if kind == KIND_PHOTON:
                if rng.random() < c.efficiency:
                    triggered = True
            elif kind == KIND_DARK:
                triggered = True
                cause = CAUSE_DARK
            else:
                triggered = True
                cause = CAUSE_AFTERPULSE
        else:
            dt = t - dead_start
            if dt >= c.tau_quench:
                # TWILIGHT: partially re-armed, sensing electronics off.
                # Releases are discarded; photons and darks can avalanche.
                if kind != KIND_TRAP_RELEASE:
                    u = rng.random()
                    prof = _interp_clamped(float(dt), c.tw_x, c.tw_y)
                    thr = c.efficiency * prof if kind == KIND_PHOTON else prof
                    if u < thr:
                        triggered = True
                        held = True
                        cause = CAUSE_TWILIGHT
            # QUENCH: below breakdown; everything is lost without a draw.

        if triggered:
            # Emit the output pulse before drawing traps.
            if held:
                # Held to the end of the dead period active at arrival;
                # deterministic, no sampled jitter or shift.
                ot = dead_end + c.base_delay
            else:
                gap = t - last_avalanche
                dt_prev = _HUGE_DT if gap > 2**61 else float(gap)
                shift = _interp_clamped(dt_prev, c.sh_x, c.sh_y)
                fwhm = _interp_clamped(dt_prev, c.jit_x, c.jit_y)
                ot = t + c.base_delay + _emit_delta(shift, fwhm, rng.standard_normal())
                if ot < t:
                    ot = t
            out_t.append(ot)
            out_o.append(t)
            out_c.append(cause)

            # Avalanche bookkeeping: the dead-time length comes from the
            # rate estimate just before this avalanche is counted.
            lam = _ema_decay(lam, t - t_lam, c.tau_ema)
            t_lam = t
            dlen = _round_ps(_interp_clamped(lam * 1.0e12, c.dead_x, c.dead_y))
            lam += 1.0 / c.tau_ema
            dead_start = t
            dead_end = t + dlen
            last_avalanche = t

            # Trap filling: every avalanche fills k ~ Poisson(mu) traps.
            if c.ap_mu > 0.0:
                for _ in range(rng.poisson(c.ap_mu)):
                    if c.ap_mode == AP_EXPONENTIAL:
                        d = rng.exponential(c.ap_tau)
                        if d > _MAX_TRAP_DELAY:
                            d = _MAX_TRAP_DELAY
                    else:
                        d = _trap_delay_power_law(rng.random(), c.ap_tmin, c.ap_alpha)
                    heappush(traps, (t + _round_ps(d), trap_seq))
                    trap_seq += 1

    return (
        np.array(out_t, dtype=np.int64),
        np.array(out_o, dtype=np.int64),
        np.array(out_c, dtype=np.int64),
    )


def _blanking_keep(out_times, t_b):
    """Non-retriggerable blanking mask over time-sorted pulses.

    The first pulse is transmitted; a pulse is transmitted iff it falls at
    least t_b after the previous *transmitted* pulse. Withheld pulses do not
    extend the window.
    """
    n = out_times.shape[0]
    keep = np.zeros(n, dtype=np.bool_)
    if n == 0:
        return keep
    keep[0] = True
    last = out_times[0]
    for i in range(1, n):
        if out_times[i] - last >= t_b:
            keep[i] = True
            last = out_times[i]
    return keep


def _match_pairs(a, b, window):
    """Greedy earliest-pair coincidence matching with a strict window.

    Both inputs sorted. Each element participates in at most one match.
    Returns index arrays (into a and b) of the matched pairs.
    """
    a = a.tolist()
    b = b.tolist()
    window = int(window)
    na = len(a)
    nb = len(b)
    ia_out: list[int] = []
    ib_out: list[int] = []
    ia = 0
    ib = 0
    while ia < na and ib < nb:
        d = b[ib] - a[ia]
        if d >= window:
            ia += 1
        elif d <= -window:
            ib += 1
        else:
            ia_out.append(ia)
            ib_out.append(ib)
            ia += 1
            ib += 1
    return np.array(ia_out, dtype=np.int64), np.array(ib_out, dtype=np.int64)


def _autocorr_counts(times, bin_width, n_bins):
    """Counts of pairwise forward differences t_j - t_i in [0, n_bins*bin_width)."""
    counts = np.zeros(n_bins, dtype=np.int64)
    span = bin_width * n_bins
    n = times.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            d = times[j] - times[i]
            if d >= span:
                break
            counts[d // bin_width] += 1
    return counts


def _crosscorr_counts(a, b, bin_width, n_bins, origin):
    """Counts of differences (b_j - a_i) in [origin, origin + n_bins*bin_width)."""
    counts = np.zeros(n_bins, dtype=np.int64)
    span = bin_width * n_bins
    na = a.shape[0]
    nb = b.shape[0]
    j_lo = 0
    for i in range(na):
        lo = a[i] + origin
        while j_lo < nb and b[j_lo] < lo:
            j_lo += 1
        j = j_lo
        while j < nb and b[j] < lo + span:
            counts[(b[j] - lo) // bin_width] += 1
            j += 1
    return counts
