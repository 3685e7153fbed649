"""Hot numeric kernels.

Every function here is compiled with numba when the backend enables it and
runs as plain Python otherwise (see _backend). The detection kernel and the
event-engine reference implementation share the small float helpers below,
so both paths perform identical floating-point operations and produce
bit-identical pulse streams from the same rng state.

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

import numpy as np

from ._backend import jit_kernel
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


@jit_kernel
def _interp_clamped(x: float, xs: np.ndarray, ys: np.ndarray) -> float:
    """Piecewise-linear interpolation clamped at both table ends."""
    n = xs.shape[0]
    if n == 1 or x <= xs[0]:
        return ys[0]
    if x >= xs[n - 1]:
        return ys[n - 1]
    lo = 0
    hi = n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] <= x:
            lo = mid
        else:
            hi = mid
    t = (x - xs[lo]) / (xs[lo + 1] - xs[lo])
    return ys[lo] + t * (ys[lo + 1] - ys[lo])


@jit_kernel
def _round_ps(x: float) -> np.int64:
    """Round to the integer picosecond grid, halves up."""
    return np.int64(math.floor(x + 0.5))


@jit_kernel
def _ema_decay(lam: float, dt_ps: np.int64, tau_ema_ps: float) -> float:
    """Exponential-moving-average rate estimate decayed over a quiet gap."""
    return lam * math.exp(-float(dt_ps) / tau_ema_ps)


@jit_kernel
def _emit_delta(shift_ps: float, fwhm_ps: float, z: float) -> np.int64:
    """Signed output-delay offset: calibrated shift plus sampled jitter."""
    return _round_ps(shift_ps + z * (fwhm_ps * FWHM_TO_SIGMA))


@jit_kernel
def _trap_delay_power_law(u: float, t_min_ps: float, alpha: float) -> float:
    """Power-law release delay >= t_min for alpha > 1, clamped."""
    d = t_min_ps * u ** (1.0 / (1.0 - alpha))
    if d > _MAX_TRAP_DELAY:
        d = _MAX_TRAP_DELAY
    return d


@jit_kernel
def _heap_push(times, seqs, n, t, s):
    """Min-heap push keyed on (time, seq); grows the arrays as needed."""
    if n >= times.shape[0]:
        nt = np.empty(times.shape[0] * 2, dtype=np.int64)
        ns = np.empty(times.shape[0] * 2, dtype=np.int64)
        nt[:n] = times[:n]
        ns[:n] = seqs[:n]
        times, seqs = nt, ns
    times[n] = t
    seqs[n] = s
    i = n
    n += 1
    while i > 0:
        p = (i - 1) // 2
        if times[p] < times[i] or (times[p] == times[i] and seqs[p] < seqs[i]):
            break
        times[p], times[i] = times[i], times[p]
        seqs[p], seqs[i] = seqs[i], seqs[p]
        i = p
    return times, seqs, n


@jit_kernel
def _heap_pop(times, seqs, n):
    """Min-heap pop; returns (time, new_size). The seq key only breaks ties."""
    root = times[0]
    n -= 1
    times[0] = times[n]
    seqs[0] = seqs[n]
    i = 0
    while True:
        left = 2 * i + 1
        right = left + 1
        m = i
        if left < n and (
            times[left] < times[m] or (times[left] == times[m] and seqs[left] < seqs[m])
        ):
            m = left
        if right < n and (
            times[right] < times[m] or (times[right] == times[m] and seqs[right] < seqs[m])
        ):
            m = right
        if m == i:
            break
        times[m], times[i] = times[i], times[m]
        seqs[m], seqs[i] = seqs[i], seqs[m]
        i = m
    return root, n


@jit_kernel
def _grow_i64(arr, n):
    out = np.empty(arr.shape[0] * 2, dtype=np.int64)
    out[:n] = arr[:n]
    return out


@jit_kernel
def _detect_kernel(
    times,  # int64[:] merged stimulus times, sorted by (time, kind)
    kinds,  # int64[:] KIND_DARK or KIND_PHOTON per stimulus
    efficiency,
    base_delay,  # int64 ps
    tau_quench,  # int64 ps
    dead_x,  # float64[:] rate (cps) knots of the absolute dead-time table
    dead_y,  # float64[:] absolute dead time (ps) at those rates
    tw_x,  # float64[:] twilight profile knots: offset into dead period (ps)
    tw_y,  # float64[:] relative sensitivity at those offsets
    jit_x,  # float64[:] jitter curve knots: gap since previous avalanche (ps)
    jit_y,  # float64[:] FWHM (ps)
    sh_x,  # float64[:] shift curve knots (ps)
    sh_y,  # float64[:] added delay (ps)
    ap_mu,
    ap_mode,  # AP_EXPONENTIAL or AP_POWER_LAW
    ap_tau,  # exponential release lifetime (ps)
    ap_tmin,  # power-law minimum delay (ps)
    ap_alpha,  # power-law exponent (> 1)
    tau_ema,  # rate-estimator time constant (ps)
    rng,
):
    """Actively-quenched SPAD state machine over a merged stimulus stream.

    Returns (out_times, origin_times, causes) in avalanche order. Trap
    releases are generated internally and interleaved by (time, creation
    order); a release ties with an external stimulus at the same picosecond
    by processing first.
    """
    n_in = times.shape[0]
    cap = 1024
    out_t = np.empty(cap, dtype=np.int64)
    out_o = np.empty(cap, dtype=np.int64)
    out_c = np.empty(cap, dtype=np.int64)
    n_out = 0

    heap_t = np.empty(64, dtype=np.int64)
    heap_s = np.empty(64, dtype=np.int64)
    heap_n = 0
    trap_seq = np.int64(0)

    dead_start = np.int64(-(2**62))  # avalanche instant of the current dead period
    dead_end = np.int64(0)  # armed iff t >= dead_end
    last_avalanche = np.int64(-(2**62))
    lam = 0.0  # EMA detection-rate estimate, events per ps
    t_lam = np.int64(0)

    i = 0
    while i < n_in or heap_n > 0:
        if heap_n > 0 and (i >= n_in or heap_t[0] <= times[i]):
            t, heap_n = _heap_pop(heap_t, heap_s, heap_n)
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
                u = rng.random()
                if u < efficiency:
                    triggered = True
                    cause = CAUSE_PHOTON
            elif kind == KIND_DARK:
                triggered = True
                cause = CAUSE_DARK
            else:
                triggered = True
                cause = CAUSE_AFTERPULSE
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
                        cause = CAUSE_TWILIGHT
            # QUENCH: below breakdown; everything is lost without a draw.

        if triggered:
            # Emit the output pulse before drawing traps.
            if held:
                # Held to the end of the dead period active at arrival;
                # deterministic, no sampled jitter or shift.
                ot = dead_end + base_delay
            else:
                gap = t - last_avalanche
                dt_prev = _HUGE_DT if gap > np.int64(2**61) else float(gap)
                shift = _interp_clamped(dt_prev, sh_x, sh_y)
                fwhm = _interp_clamped(dt_prev, jit_x, jit_y)
                z = rng.standard_normal()
                ot = t + base_delay + _emit_delta(shift, fwhm, z)
                if ot < t:
                    ot = t
            if n_out >= cap:
                out_t = _grow_i64(out_t, n_out)
                out_o = _grow_i64(out_o, n_out)
                out_c = _grow_i64(out_c, n_out)
                cap *= 2
            out_t[n_out] = ot
            out_o[n_out] = t
            out_c[n_out] = cause
            n_out += 1

            # Avalanche bookkeeping: the dead-time length comes from the
            # rate estimate just before this avalanche is counted.
            lam = _ema_decay(lam, t - t_lam, tau_ema)
            t_lam = t
            dlen = _round_ps(_interp_clamped(lam * 1.0e12, dead_x, dead_y))
            lam += 1.0 / tau_ema
            dead_start = t
            dead_end = t + dlen
            last_avalanche = t

            # Trap filling: every avalanche fills k ~ Poisson(mu) traps.
            if ap_mu > 0.0:
                k = rng.poisson(ap_mu)
                for _ in range(k):
                    if ap_mode == AP_EXPONENTIAL:
                        d = rng.exponential(ap_tau)
                        if d > _MAX_TRAP_DELAY:
                            d = _MAX_TRAP_DELAY
                    else:
                        d = _trap_delay_power_law(rng.random(), ap_tmin, ap_alpha)
                    heap_t, heap_s, heap_n = _heap_push(
                        heap_t, heap_s, heap_n, t + _round_ps(d), trap_seq
                    )
                    trap_seq += 1

    return out_t[:n_out].copy(), out_o[:n_out].copy(), out_c[:n_out].copy()


@jit_kernel
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


@jit_kernel
def _match_pairs(a, b, window):
    """Greedy earliest-pair coincidence matching with a strict window.

    Both inputs sorted. Each element participates in at most one match.
    Returns index arrays (into a and b) of the matched pairs.
    """
    na = a.shape[0]
    nb = b.shape[0]
    cap = na if na < nb else nb
    ia_out = np.empty(cap, dtype=np.int64)
    ib_out = np.empty(cap, dtype=np.int64)
    ia = 0
    ib = 0
    n = 0
    while ia < na and ib < nb:
        d = b[ib] - a[ia]
        if d >= window:
            ia += 1
        elif d <= -window:
            ib += 1
        else:
            ia_out[n] = ia
            ib_out[n] = ib
            n += 1
            ia += 1
            ib += 1
    return ia_out[:n].copy(), ib_out[:n].copy()


@jit_kernel
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


@jit_kernel
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
