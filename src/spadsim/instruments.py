"""Virtual measurement chain: histogrammer, coincidence unit, Gaussian fitter,
auto/cross correlators.

Everything operates on integer-picosecond time arrays and is a pure function
of its inputs, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import FWHM_TO_SIGMA

__all__ = [
    "InstrumentError",
    "Histogram",
    "Coincidences",
    "GaussianFit",
    "build_histogram",
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


def _sorted_times(values, name: str) -> np.ndarray:
    """values as an int64 time array; raises unless it is sorted non-decreasing."""
    t = np.asarray(values, dtype=np.int64)
    if t.size and np.any(np.diff(t) < 0):
        raise ValueError(f"{name} must be sorted")
    return t


def _check_bins(bin_width_ps: int, span_ps: int) -> None:
    """Raise unless span_ps is a positive whole number of bin_width_ps bins."""
    if bin_width_ps <= 0:
        raise ValueError(f"bin_width_ps must be > 0, got {bin_width_ps}")
    if span_ps <= 0 or span_ps % bin_width_ps != 0:
        raise ValueError(
            f"span_ps must be a positive multiple of bin_width_ps, got {span_ps}"
        )


def build_histogram(values, bin_width_ps: int, span_ps: int, origin_ps: int = 0) -> Histogram:
    """Histogram integer-ps values over [origin, origin + span).

    span must be a whole number of bins. Out-of-range values land in the
    underflow/overflow tallies, never get dropped.
    """
    _check_bins(bin_width_ps, span_ps)
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
class Coincidences:
    """Matched pair pulses: indices of each pair's members in the two inputs."""

    idx_a: np.ndarray
    idx_b: np.ndarray

    def __len__(self) -> int:
        return int(self.idx_a.shape[0])


def coincidence(a, b, window_ps: int) -> Coincidences:
    """Greedy earliest-pair coincidence matching with a strict window.

    Matches pairs with |t_a - t_b| < window; each input pulse is consumed
    by at most one pair.
    """
    if window_ps <= 0:
        raise ValueError(f"window_ps must be > 0, got {window_ps}")
    ta, tb = _sorted_times(a, "a"), _sorted_times(b, "b")
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
    return Coincidences(idx_a=ia, idx_b=ib)


def autocorrelation(pulses, max_lag_ps: int, bin_width_ps: int) -> Histogram:
    """Histogram of all forward pulse-time differences up to max_lag.

    The overflow tally holds the forward pairs whose difference fell beyond
    the last bin, so `total` is the full pair count n*(n-1)/2.
    """
    if bin_width_ps <= 0:
        raise ValueError(f"bin_width_ps must be > 0, got {bin_width_ps}")
    if max_lag_ps < bin_width_ps:
        raise ValueError(f"max_lag_ps must be >= bin_width_ps, got {max_lag_ps}")
    t = _sorted_times(pulses, "pulses")
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
    _check_bins(bin_width_ps, span_ps)
    ta, tb = _sorted_times(a, "a"), _sorted_times(b, "b")
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


# Half-width of the second fit window, in sigmas of the first fit.
_FIT_WINDOW_SIGMAS = 2.5


def _curve_fit(x, y, p0, sigma_y) -> np.ndarray:
    # Imported on use: scipy.optimize would dominate `import spadsim`.
    from scipy.optimize import curve_fit

    try:
        popt, _ = curve_fit(
            _gauss, x, y, p0=p0, sigma=sigma_y, absolute_sigma=True, maxfev=10000
        )
    except RuntimeError as exc:
        raise InstrumentError(f"Gaussian fit did not converge: {exc}") from exc
    return popt


def gaussian_fit(h: Histogram) -> GaussianFit:
    """Weighted least-squares Gaussian, fitted in two passes.

    The first pass fits the contiguous run of bins around the mode whose
    counts reach half the mode count, with Poisson weights from the counts
    (sigma_i = sqrt(count_i)). Its window is narrow and its edges follow the
    noise of the mode, so its width alone scatters by several percent; it
    only places the second pass. That one fits the bins within 2.5 sigma of
    the first fit's peak, weighted by the first fit's model counts. Both
    windows keep exponential backgrounds and secondary peaks out of the fit.
    residual is the root of the reduced chi-square of the second fit.
    """
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
    centers = h.bin_centers
    x = centers[lo : hi + 1]
    y = counts[lo : hi + 1]
    width0 = n_win * h.bin_width_ps
    p0 = (counts[m], x[m - lo], width0 / FWHM_PER_SIGMA)
    first = _curve_fit(x, y, p0, np.sqrt(y))

    window = np.abs(centers - first[1]) <= _FIT_WINDOW_SIGMAS * abs(first[2])
    n_win = int(np.count_nonzero(window))
    if n_win < 5:
        raise InstrumentError(f"too few bins in the second fit window: need >= 5, got {n_win}")
    x = centers[window]
    y = counts[window]
    sigma_y = np.sqrt(np.maximum(_gauss(x, *first), 1.0))
    popt = _curve_fit(x, y, first, sigma_y)
    amp, mu, sig = popt
    chi2 = float(np.sum(((y - _gauss(x, *popt)) / sigma_y) ** 2))
    residual = float(np.sqrt(chi2 / max(n_win - 3, 1)))
    return GaussianFit(
        peak_ps=float(mu),
        fwhm_ps=float(FWHM_PER_SIGMA * abs(sig)),
        amplitude=float(amp),
        residual=residual,
    )
