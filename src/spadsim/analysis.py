"""Characterization analyses over instrument outputs.

Each function turns a histogram or scan result into one detector figure of
merit: dead time, afterpulse probability and trap lifetime, twilight
transition curve, delay shift and jitter versus pulse spacing, pulsed-mode
distinguishability, heralding efficiency, and the channel key rate.

Curve results serialize to CSV with an `x,y` or `x,y,err` header; scalar
results are plain floats for the caller's JSON summary.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .instruments import (
    FWHM_PER_SIGMA,
    Histogram,
    InstrumentError,
    _check,
    _check_args,
    _check_fields,
    _int_times,
    build_histogram,
    gaussian_fit,
    levenberg_marquardt,
)

__all__ = [
    "AnalysisError",
    "AfterpulseResult",
    "TwilightCurve",
    "ShiftJitterCurve",
    "KeyRateInputs",
    "estimate_dead_time",
    "afterpulse_spectroscopy",
    "twilight_curve",
    "shift_and_jitter_vs_dt",
    "distinguishability",
    "heralding_efficiency",
    "secret_key_rate",
]


class AnalysisError(Exception):
    """An analysis could not extract its quantity from the data."""


def estimate_dead_time(h: Histogram) -> float:
    """Dead time (ps) from an interarrival histogram.

    The dead time shows up as an empty gap from zero to the onset of
    detection probability. The onset bin is the first of two consecutive
    bins exceeding 10% of the plateau level (median of the upper half of
    the range), but never fewer than one count; the two-bin requirement
    keeps isolated stray counts below the onset from triggering, and the
    one-count floor keeps two adjacent single strays under a thin plateau
    from passing as the onset. The estimate is then refined to sub-bin
    precision by interpolating where the rising edge crosses half of its
    local maximum.
    """
    counts = h.counts.astype(np.float64)
    n = counts.size
    if n < 4:
        raise AnalysisError(f"histogram too short to locate an onset ({n} bins)")
    plateau = float(np.median(counts[n // 2 :]))
    if plateau <= 0:
        raise AnalysisError("no post-onset plateau: upper-half median is zero")
    thr = max(0.1 * plateau, 1.0)
    above = (counts[:-1] > thr) & (counts[1:] > thr)
    hits = np.nonzero(above)[0]
    if hits.size == 0:
        raise AnalysisError(f"no sustained rise above the onset threshold {thr:.3g}")
    j = int(hits[0])
    # Climb to the top of the rising edge, then interpolate the half-max
    # crossing on its left flank.
    while j + 1 < n and counts[j + 1] > counts[j]:
        j += 1
    half = counts[j] / 2.0
    k = j
    while k >= 0 and counts[k] >= half:
        k -= 1
    if k < 0:
        raise AnalysisError("rising edge extends to the histogram origin")
    center_k = h.origin_ps + (k + 0.5) * h.bin_width_ps
    frac = (half - counts[k]) / (counts[k + 1] - counts[k])
    return float(center_k + frac * h.bin_width_ps)


@dataclass(frozen=True)
class AfterpulseResult:
    """Afterpulse probability and trap lifetime from interval spectroscopy."""

    p_afterpulse: float
    tau_trap_ps: float
    residual: float


# Interval past the dead time left out of the afterpulse excess fit, so
# held twilight pulses do not bias it.
_AFTERPULSE_SKIP_PS = 2000.0


def _fit_decay(t, y, weights, t0, rate0):
    """Weighted least-squares A*exp(-(t - t0)*rate) with A >= 0 and rate >= 0.

    Returns (A, rate). For each rate the best amplitude is linear in the
    data, max(0, sum(w*y*e) / sum(w*e**2)) with e = exp(-(t - t0)*rate), so
    levenberg_marquardt fits the rate alone. The rate, not the lifetime
    1/rate, is the fitted parameter: data that do not decay within the
    window (a background lifetime far beyond the histogram span) then put
    it at 0 in a few steps instead of sending the lifetime off to infinity.
    A start where the amplitude is 0 (no decay of that sign in the data)
    returns (0, rate0): every rate fits equally there. From any other start,
    a step to an amplitude of 0 raises chi2, so the fit never leaves the
    positive amplitudes.
    """
    s = t - t0
    wy = weights * y

    def amplitude(e):
        norm = float(weights @ (e * e))
        return max(0.0, float(wy @ e) / norm) if norm > 0.0 else 0.0

    def model(p):
        e = np.exp(-s * p[0])
        amp = amplitude(e)
        if amp == 0.0:
            return np.zeros_like(e), np.zeros((1, e.size))
        de = -s * e
        d_amp = (float(wy @ de) - 2.0 * amp * float(weights @ (e * de))) / float(weights @ (e * e))
        return amp * e, (d_amp * e + amp * de)[np.newaxis]

    if amplitude(np.exp(-s * rate0)) == 0.0:
        return 0.0, rate0
    (rate,) = levenberg_marquardt(model, [rate0], y, weights, lower=[0.0])
    return amplitude(np.exp(-s * rate)), float(rate)


def afterpulse_spectroscopy(
    h: Histogram,
    tau_dead_ps: float,
    *,
    tau_trap_guess_ps: float = 32000.0,
) -> AfterpulseResult:
    """Extract afterpulse probability and trap lifetime from an interarrival
    histogram.

    The interval distribution just past the dead time is the Poisson
    background plus an excess of trap-release events. The background
    exponential is fitted beyond tau_dead + 5 guessed lifetimes, where the
    excess has decayed away, and extrapolated under the peak; the excess is
    then fitted with B*exp(-(t - tau_dead)/tau_trap), leaving out the first
    2 ns past the dead time. Both fits weight each bin by 1/max(count, 1)
    and keep the amplitude non-negative; `_fit_decay` solves the amplitude
    in closed form and fits the decay rate 1/tau by `levenberg_marquardt`.
    An excess that does not decay (best rate 0) fails the analysis.
    p_afterpulse integrates the fitted excess and normalizes by the total
    event count.
    """
    _check("tau_dead_ps", "> 0", tau_dead_ps)
    _check("tau_trap_guess_ps", "> 0", tau_trap_guess_ps)
    bg_cut_ps = tau_dead_ps + 5.0 * tau_trap_guess_ps
    t = h.bin_centers
    c = h.counts.astype(np.float64)
    bw = float(h.bin_width_ps)
    w = 1.0 / np.maximum(c, 1.0)

    bg_mask = t >= bg_cut_ps
    n_bg = int(np.count_nonzero(bg_mask))
    if n_bg < 5:
        raise AnalysisError(
            f"only {n_bg} bins beyond the background cut at {bg_cut_ps:.0f} ps; "
            "widen the histogram or lower tau_trap_guess_ps"
        )
    t_bg = t[bg_mask]
    c_bg = c[bg_mask]
    if c_bg.sum() <= 0:
        raise AnalysisError("background region is empty, cannot fit the tail")
    t_mean = float(np.sum(t_bg * c_bg) / c_bg.sum())
    tau0 = max(t_mean - bg_cut_ps, bw)
    try:
        a_bg, rate_bg = _fit_decay(t_bg, c_bg, w[bg_mask], bg_cut_ps, 1.0 / tau0)
    except InstrumentError as exc:
        raise AnalysisError(f"background tail fit failed: {exc}") from exc

    ex_mask = (t >= tau_dead_ps + _AFTERPULSE_SKIP_PS) & (t < bg_cut_ps)
    n_ex = int(np.count_nonzero(ex_mask))
    if n_ex < 3:
        raise AnalysisError(
            f"only {n_ex} bins between the dead time and the background cut; "
            "need at least 3 for the excess fit"
        )
    t_ex = t[ex_mask]
    w_ex = w[ex_mask]
    with np.errstate(over="ignore"):
        # A background too steep to extrapolate overflows to an excess of
        # -inf, which the negative-excess check below rejects.
        excess = c[ex_mask] - a_bg * np.exp((bg_cut_ps - t_ex) * rate_bg)
    total_excess = float(excess.sum())
    total_sigma = float(np.sqrt(np.sum(1.0 / w_ex)))
    if total_excess < -3.0 * total_sigma:
        raise AnalysisError(
            f"excess over background is negative ({total_excess:.1f} counts, "
            f"-{abs(total_excess) / total_sigma:.1f} sigma); background model "
            "does not describe the tail"
        )

    try:
        b_fit, rate = _fit_decay(t_ex, excess, w_ex, tau_dead_ps, 1.0 / tau_trap_guess_ps)
    except InstrumentError as exc:
        raise AnalysisError(f"excess fit failed: {exc}") from exc
    if rate == 0.0:
        raise AnalysisError("excess fit failed: the excess does not decay")
    model = b_fit * np.exp(-(t_ex - tau_dead_ps) * rate)
    chi2 = float(np.sum(w_ex * (excess - model) ** 2))
    residual = chi2 / max(n_ex - 2, 1)
    p = float(b_fit / (rate * bw * h.total))
    return AfterpulseResult(p_afterpulse=p, tau_trap_ps=1.0 / rate, residual=residual)


@dataclass(frozen=True)
class TwilightCurve:
    """Relative second-photon efficiency vs pair spacing; NaN marks missing."""

    delta_ts: np.ndarray
    ratios: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,y\n")
        for dt, r in zip(self.delta_ts.tolist(), self.ratios.tolist()):
            buf.write(f"{dt},{r:.10g}\n")
        return buf.getvalue()


def twilight_curve(points) -> TwilightCurve:
    """Relative efficiency for the second photon of a pair, per spacing.

    Each point supplies (delta_t_ps, n_pairs, n_first, n_both): pair slots
    offered, first-slot detections, and pairs with both slots detected. The
    ratio is P(second | first) normalized by the unconditional single-slot
    efficiency n_first/n_pairs, so a fully recovered detector sits at 1.
    Points with no pair slot or no first detection are kept but marked NaN.
    """
    dts = []
    ratios = []
    for delta_t, n_pairs, n_first, n_both in points:
        _check("n_pairs", ">= 0", n_pairs)
        dts.append(int(delta_t))
        if n_pairs == 0 or n_first == 0:
            ratios.append(float("nan"))
            continue
        p_first = n_first / n_pairs
        p_second_given_first = n_both / n_first
        ratios.append(p_second_given_first / p_first)
    return TwilightCurve(
        delta_ts=np.asarray(dts, dtype=np.int64), ratios=np.asarray(ratios, dtype=np.float64)
    )


@dataclass(frozen=True)
class ShiftJitterCurve:
    """Mean delay shift and interval FWHM vs pair spacing."""

    delta_ts: np.ndarray
    shifts: np.ndarray
    fwhms: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,y,err\n")
        for dt, s, f in zip(self.delta_ts.tolist(), self.shifts.tolist(), self.fwhms.tolist()):
            buf.write(f"{dt},{s:.10g},{f:.10g}\n")
        return buf.getvalue()


# Bin width of the interval histogram behind each pair spacing's jitter fit.
_JITTER_FIT_BIN_PS = 25


def shift_and_jitter_vs_dt(points, *, min_pairs: Annotated[int, ">= 1"] = 1000) -> ShiftJitterCurve:
    """Per pair spacing: mean(measured interval - delta_t) and interval FWHM.

    Each point supplies (delta_t_ps, intervals) with intervals the measured
    out-time differences of both-detected pairs, as int64 picoseconds (a
    ValueError names intervals otherwise). Points with fewer than
    min_pairs intervals are marked NaN. The FWHM comes from a Gaussian fit
    of the interval histogram; if the fit window is degenerate (fewer than
    five populated bins, e.g. a jitter-free detector) the sample standard
    deviation is converted to FWHM instead.
    """
    _check_args(shift_and_jitter_vs_dt, locals())
    dts = []
    shifts = []
    fwhms = []
    for delta_t, intervals in points:
        iv = _int_times(intervals, "intervals")
        dts.append(int(delta_t))
        if iv.size < min_pairs:
            shifts.append(float("nan"))
            fwhms.append(float("nan"))
            continue
        shifts.append(float(iv.mean() - delta_t))
        std = float(iv.std())
        if std == 0.0:
            fwhms.append(0.0)
            continue
        lo = int(iv.min())
        hi = int(iv.max())
        span = (hi - lo) // _JITTER_FIT_BIN_PS + 1
        hist = build_histogram(iv, _JITTER_FIT_BIN_PS, span * _JITTER_FIT_BIN_PS, lo)
        try:
            fwhms.append(gaussian_fit(hist).fwhm_ps)
        except InstrumentError:
            fwhms.append(FWHM_PER_SIGMA * std)
    return ShiftJitterCurve(
        delta_ts=np.asarray(dts, dtype=np.int64),
        shifts=np.asarray(shifts, dtype=np.float64),
        fwhms=np.asarray(fwhms, dtype=np.float64),
    )


def distinguishability(ac: Histogram, period_ps: float) -> float:
    """Visibility of the pulse-period structure in an autocorrelation.

    Averages the counts of the bins containing multiples of the period
    (peaks) and half-period offsets (valleys), restricted to lags past the
    dead-time notch, and returns (P - V)/(P + V). The notch edge is the
    left edge of the first bin reaching 20% of the histogram maximum.
    """
    _check("period_ps", "> 0", period_ps)
    if period_ps < 2 * ac.bin_width_ps:
        raise AnalysisError(
            f"period {period_ps} ps needs at least 2 bins, bin width is {ac.bin_width_ps} ps"
        )
    counts = ac.counts
    top = counts.max()
    if top <= 0:
        raise AnalysisError("autocorrelation is empty")
    edge = int(np.argmax(counts >= 0.2 * top))  # the first bin reaching 20% of the top
    min_lag_ps = float(ac.origin_ps + edge * ac.bin_width_ps)
    span_end = ac.origin_ps + ac.n_bins * ac.bin_width_ps
    # Periods m = m0, m0 + 1, ... while the valley lag (m + 0.5) * period
    # stays below the span end; the lag grows with m, so the kept m form a
    # prefix of a range that runs safely past the last one.
    m0 = max(1, math.ceil(min_lag_ps / period_ps))
    ms = np.arange(m0, max(m0, math.ceil(span_end / period_ps) + 1))
    valley_lags = (ms + 0.5) * period_ps
    inside = valley_lags < span_end
    ms, valley_lags = ms[inside], valley_lags[inside]
    if not ms.size:
        raise AnalysisError(
            f"autocorrelation span leaves no full period beyond lag {min_lag_ps:.0f} ps"
        )
    peaks = counts[((ms * period_ps - ac.origin_ps) // ac.bin_width_ps).astype(np.int64)]
    valleys = counts[((valley_lags - ac.origin_ps) // ac.bin_width_ps).astype(np.int64)]
    p_mean = float(np.mean(peaks.astype(np.float64)))
    v_mean = float(np.mean(valleys.astype(np.float64)))
    if p_mean + v_mean == 0.0:
        raise AnalysisError("peak and valley bins are all empty")
    return (p_mean - v_mean) / (p_mean + v_mean)


def heralding_efficiency(coincidences: int, singles_a: int, singles_b: int) -> float:
    """Coincidences over total singles; 1/2 for a lossless pair source."""
    counts = {"coincidences": coincidences, "singles_a": singles_a, "singles_b": singles_b}
    for name, n in counts.items():
        _check(name, ">= 0", n)
    if singles_a + singles_b == 0:
        raise AnalysisError("no singles recorded, heralding efficiency undefined")
    return coincidences / (singles_a + singles_b)


@dataclass(frozen=True)
class KeyRateInputs:
    """Inputs of the multi-channel key-rate formula."""

    m_channels: Annotated[int, ">= 0"]
    eta: Annotated[float, "[0, 1]"]
    n_mean: Annotated[float, ">= 0"]
    xi: Annotated[float, ">= 0"]
    bin_width_ps: Annotated[float, "> 0"]

    def __post_init__(self) -> None:
        _check_fields(self)


def secret_key_rate(k: KeyRateInputs) -> float:
    """Key rate in bits/s: m * eta^2 * n_mean * xi / bin_width.

    Multilinear in every factor; the squared eta charges the channel
    efficiency once per photon of the pair. A bin width that underflows to 0 s gives inf or NaN.
    """
    bits = k.m_channels * k.eta**2 * k.n_mean * k.xi
    seconds = k.bin_width_ps * 1e-12
    return bits / seconds if seconds else bits * math.inf
