"""Virtual measurement chain: histogrammer, TAC, coincidence unit, Gaussian
fitter, auto/cross correlators.

Everything operates on integer-picosecond time arrays and is a pure function
of its inputs (plus an rng where physics demands one), so runs are freely
parallelizable and bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import FWHM_TO_SIGMA

__all__ = [
    "InstrumentError",
    "Histogram",
    "TacConfig",
    "Coincidences",
    "GaussianFit",
    "build_histogram",
    "tac_measure",
    "coincidence",
    "autocorrelation",
    "cross_correlation",
    "gaussian_fit",
]

FWHM_PER_SIGMA = 1.0 / FWHM_TO_SIGMA


class InstrumentError(Exception):
    """A virtual instrument could not produce a result from its input."""


@dataclass(frozen=True)
class Histogram:
    """Binned counts over a contiguous integer-ps range.

    Bin i covers [origin + i*bin_width, origin + (i+1)*bin_width). Values
    outside the range are tallied in underflow/overflow, so `total` always
    equals the number of values offered to the histogrammer.
    """

    bin_width_ps: int
    origin_ps: int
    counts: np.ndarray
    underflow: int = 0
    overflow: int = 0

    @property
    def n_bins(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow

    @property
    def bin_starts(self) -> np.ndarray:
        return self.origin_ps + self.bin_width_ps * np.arange(self.n_bins, dtype=np.int64)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.bin_starts.astype(np.float64) + 0.5 * self.bin_width_ps

    def to_csv(self) -> str:
        # One %-format over a repeated row template costs less than formatting
        # row by row; "%s" prints each value exactly as "{}" would.
        cells: list = [None] * (2 * self.n_bins)
        cells[::2] = self.bin_starts.tolist()
        cells[1::2] = self.counts.tolist()
        rows = ("%s,%s\n" * self.n_bins) % tuple(cells)
        return (
            f"bin_start_ps,count\n{rows}"
            f"#underflow={self.underflow},#overflow={self.overflow}\n"
        )


def build_histogram(values, bin_width_ps: int, span_ps: int, origin_ps: int = 0) -> Histogram:
    """Histogram integer-ps values over [origin, origin + span).

    span must be a whole number of bins. Out-of-range values land in the
    underflow/overflow tallies, never get dropped.
    """
    if bin_width_ps <= 0:
        raise ValueError(f"bin_width_ps must be > 0, got {bin_width_ps}")
    if span_ps <= 0 or span_ps % bin_width_ps != 0:
        raise ValueError(
            f"span_ps must be a positive multiple of bin_width_ps, got {span_ps}"
        )
    n_bins = span_ps // bin_width_ps
    v = np.asarray(values, dtype=np.int64)
    idx = (v - origin_ps) // bin_width_ps
    under = int(np.count_nonzero(idx < 0))
    over = int(np.count_nonzero(idx >= n_bins))
    in_range = idx[(idx >= 0) & (idx < n_bins)]
    counts = np.bincount(in_range, minlength=n_bins).astype(np.int64)
    return Histogram(
        bin_width_ps=bin_width_ps,
        origin_ps=origin_ps,
        counts=counts,
        underflow=under,
        overflow=over,
    )


@dataclass(frozen=True)
class TacConfig:
    """Start-stop time converter settings.

    Single-stop: each accepted start opens one conversion; the conversion
    occupies the converter for the full range whether or not a stop arrives,
    and starts during a conversion are ignored.
    """

    range_ps: int
    instrument_fwhm_ps: float = 0.0
    mode: str = "single-stop"

    def validate(self) -> None:
        if self.range_ps <= 0:
            raise ValueError(f"range_ps must be > 0, got {self.range_ps}")
        if self.instrument_fwhm_ps < 0:
            raise ValueError(
                f"instrument_fwhm_ps must be >= 0, got {self.instrument_fwhm_ps}"
            )
        if self.mode != "single-stop":
            raise ValueError(f"unsupported TAC mode {self.mode!r}")


def tac_measure(starts, stops, cfg: TacConfig, rng: np.random.Generator) -> np.ndarray:
    """Measured start-stop intervals (ps), in start order.

    For each accepted start, the first stop strictly after it within range
    yields one interval; a start with no stop in range produces no record
    but still holds the converter busy. With instrument_fwhm = 0 no random
    draws happen at all.
    """
    cfg.validate()
    s = np.asarray(starts, dtype=np.int64)
    p = np.asarray(stops, dtype=np.int64)
    if s.size and np.any(np.diff(s) < 0):
        raise ValueError("starts must be sorted")
    if p.size and np.any(np.diff(p) < 0):
        raise ValueError("stops must be sorted")
    first_stop = np.searchsorted(p, s, side="right")
    intervals = []
    busy_until = np.int64(-(2**62))
    for i in range(s.shape[0]):
        t = s[i]
        if t < busy_until:
            continue
        busy_until = t + cfg.range_ps
        j = first_stop[i]
        if j < p.shape[0]:
            d = p[j] - t
            if d <= cfg.range_ps:
                intervals.append(int(d))
    out = np.asarray(intervals, dtype=np.int64)
    if cfg.instrument_fwhm_ps > 0.0 and out.size:
        sigma = cfg.instrument_fwhm_ps / FWHM_PER_SIGMA
        noise = rng.standard_normal(out.size) * sigma
        out = out + np.floor(noise + 0.5).astype(np.int64)
        out = np.maximum(out, 0)
    return out


@dataclass(frozen=True)
class Coincidences:
    """Matched pair pulses: times of the later member of each pair."""

    times: np.ndarray
    idx_a: np.ndarray
    idx_b: np.ndarray

    def __len__(self) -> int:
        return int(self.times.shape[0])


def coincidence(a, b, window_ps: int) -> Coincidences:
    """Greedy earliest-pair coincidence matching with a strict window.

    Emits one pulse per pair with |t_a - t_b| < window; each input pulse is
    consumed by at most one pair.
    """
    if window_ps <= 0:
        raise ValueError(f"window_ps must be > 0, got {window_ps}")
    ta = np.asarray(a, dtype=np.int64)
    tb = np.asarray(b, dtype=np.int64)
    if ta.size and np.any(np.diff(ta) < 0):
        raise ValueError("input a must be sorted")
    if tb.size and np.any(np.diff(tb) < 0):
        raise ValueError("input b must be sorted")
    a_list = ta.tolist()
    b_list = tb.tolist()
    na = len(a_list)
    nb = len(b_list)
    ia_out: list[int] = []
    ib_out: list[int] = []
    i = 0
    j = 0
    while i < na and j < nb:
        d = b_list[j] - a_list[i]
        if d >= window_ps:
            i += 1
        elif d <= -window_ps:
            j += 1
        else:
            ia_out.append(i)
            ib_out.append(j)
            i += 1
            j += 1
    ia = np.array(ia_out, dtype=np.int64)
    ib = np.array(ib_out, dtype=np.int64)
    times = np.maximum(ta[ia], tb[ib])
    return Coincidences(times=times, idx_a=ia, idx_b=ib)


def autocorrelation(pulses, max_lag_ps: int, bin_width_ps: int) -> Histogram:
    """Histogram of all forward pulse-time differences up to max_lag.

    The overflow tally holds the forward pairs whose difference fell beyond
    the last bin, so `total` is the full pair count n*(n-1)/2.
    """
    if bin_width_ps <= 0:
        raise ValueError(f"bin_width_ps must be > 0, got {bin_width_ps}")
    if max_lag_ps < bin_width_ps:
        raise ValueError(f"max_lag_ps must be >= bin_width_ps, got {max_lag_ps}")
    t = np.asarray(pulses, dtype=np.int64)
    if t.size and np.any(np.diff(t) < 0):
        raise ValueError("pulses must be sorted")
    n_bins = max_lag_ps // bin_width_ps
    # One numpy pass per index offset k = j - i. `t` is sorted, so the
    # smallest difference at offset k never decreases with k: the first
    # offset with no difference inside the span ends the scan without
    # missing a pair.
    counts = np.zeros(n_bins, dtype=np.int64)
    span = bin_width_ps * n_bins
    for k in range(1, t.shape[0]):
        d = t[k:] - t[:-k]
        d = d[d < span]
        if d.size == 0:
            break
        counts += np.bincount(d // bin_width_ps, minlength=n_bins)
    n = int(t.shape[0])
    overflow = n * (n - 1) // 2 - int(counts.sum())
    return Histogram(
        bin_width_ps=bin_width_ps, origin_ps=0, counts=counts, underflow=0, overflow=overflow
    )


def cross_correlation(a, b, span_ps: int, bin_width_ps: int) -> Histogram:
    """Histogram of differences (t_b - t_a) over [-span, +span).

    span must be a whole number of bins. Pair differences outside the window
    go to underflow (below -span) and overflow (at or above +span).
    """
    if bin_width_ps <= 0:
        raise ValueError(f"bin_width_ps must be > 0, got {bin_width_ps}")
    if span_ps <= 0 or span_ps % bin_width_ps != 0:
        raise ValueError(
            f"span_ps must be a positive multiple of bin_width_ps, got {span_ps}"
        )
    ta = np.asarray(a, dtype=np.int64)
    tb = np.asarray(b, dtype=np.int64)
    if ta.size and np.any(np.diff(ta) < 0):
        raise ValueError("input a must be sorted")
    if tb.size and np.any(np.diff(tb) < 0):
        raise ValueError("input b must be sorted")
    n_bins = 2 * (span_ps // bin_width_ps)
    # Each a_i's window of b is found by binary search. Pass k bins the k-th
    # member of every window that has one, so there are as many passes as
    # the longest window has members.
    counts = np.zeros(n_bins, dtype=np.int64)
    lo = ta - span_ps
    first = np.searchsorted(tb, lo, side="left")
    end = np.searchsorted(tb, ta + span_ps, side="left")
    under = int(first.sum())
    while True:
        live = first < end
        if not live.any():
            break
        lo, first, end = lo[live], first[live], end[live]
        counts += np.bincount((tb[first] - lo) // bin_width_ps, minlength=n_bins)
        first = first + 1
    over = int(ta.shape[0]) * int(tb.shape[0]) - under - int(counts.sum())
    return Histogram(
        bin_width_ps=bin_width_ps,
        origin_ps=-span_ps,
        counts=counts,
        underflow=under,
        overflow=over,
    )


@dataclass(frozen=True)
class GaussianFit:
    peak_ps: float
    fwhm_ps: float
    amplitude: float
    residual: float


def _gauss(x, amp, mu, sigma):
    return amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2)


def gaussian_fit(h: Histogram) -> GaussianFit:
    """Weighted least-squares Gaussian over the bins at or above half maximum.

    The fit window is the contiguous run of bins around the mode whose
    counts reach half the mode count; restricting to the half-max region
    keeps exponential backgrounds and secondary peaks out of the fit.
    Weights are Poisson (sigma_i = sqrt(count_i)). residual is the reduced
    chi-square of the windowed fit.
    """
    # Imported on use: scipy.optimize would dominate `import spadsim`.
    from scipy.optimize import curve_fit

    counts = h.counts.astype(np.float64)
    if counts.size == 0 or counts.max() <= 0:
        raise InstrumentError("histogram is empty, nothing to fit")
    m = int(np.argmax(counts))
    half = counts[m] / 2.0
    lo = m
    while lo > 0 and counts[lo - 1] >= half:
        lo -= 1
    hi = m
    while hi < counts.size - 1 and counts[hi + 1] >= half:
        hi += 1
    n_win = hi - lo + 1
    if n_win < 5:
        raise InstrumentError(
            f"too few bins at half maximum: need >= 5, got {n_win}"
        )
    x = h.bin_centers[lo : hi + 1]
    y = counts[lo : hi + 1]
    sigma_y = np.sqrt(y)
    width0 = n_win * h.bin_width_ps
    p0 = (counts[m], x[m - lo], width0 / FWHM_PER_SIGMA)
    try:
        popt, _ = curve_fit(
            _gauss, x, y, p0=p0, sigma=sigma_y, absolute_sigma=True, maxfev=10000
        )
    except RuntimeError as exc:
        raise InstrumentError(f"Gaussian fit did not converge: {exc}") from exc
    amp, mu, sig = popt
    chi2 = float(np.sum(((y - _gauss(x, *popt)) / sigma_y) ** 2))
    residual = float(np.sqrt(chi2 / max(n_win - 3, 1)))
    return GaussianFit(
        peak_ps=float(mu),
        fwhm_ps=float(FWHM_PER_SIGMA * abs(sig)),
        amplitude=float(amp),
        residual=residual,
    )
