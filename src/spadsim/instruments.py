"""Virtual measurement chain: histogrammer, coincidence unit, Gaussian fitter,
auto/cross correlators.

Everything operates on integer-picosecond time arrays and is a pure function
of its inputs, so runs are bit-reproducible.
"""

from __future__ import annotations

import functools
import math
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
        head = "bin_start_ps,count\n"
        tail = f"#underflow={self.underflow},#overflow={self.overflow}\n"
        if self.counts.dtype.kind == "i":
            return head + _int_rows(self.bin_starts, self.counts).decode("ascii") + tail
        # One %-format over a repeated row template; "%s" prints each value
        # exactly as "{}" would.
        cells: list = [None] * (2 * self.n_bins)
        cells[::2] = self.bin_starts.tolist()
        cells[1::2] = self.counts.tolist()
        return head + ("%s,%s\n" * self.n_bins) % tuple(cells) + tail


# Integers are printed in groups of 4 decimal digits, each group one uint32
# cell of 4 ASCII bytes. Rows are built in blocks, so that every temporary
# array stays in cache.
_GROUP = 10_000
_GROUP_DIGITS = 4
_BLOCK_ROWS = 1 << 14


def _ascii_cell(text: bytes) -> np.uint32:
    """text, at most 4 bytes, as one cell padded with NUL bytes."""
    return np.frombuffer(text.ljust(_GROUP_DIGITS, b"\0"), dtype=np.uint32)[0]


@functools.cache
def _digit_groups() -> np.ndarray:
    """The cell of every 4-digit group, flat in three rows of 10,000.

    Row 0 holds empty cells, for the groups in front of a number. Row 1
    holds a number's first group, its leading zeros as NUL bytes (0 prints
    as "0"). Row 2 holds a later group, zero-padded. Built on first use, in
    about 0.06 ms, from uint8 arrays no larger than the 120 kB table.
    """
    # Axes: row, then one axis per digit of the group, then byte position.
    table = np.zeros((3,) + (10,) * _GROUP_DIGITS + (_GROUP_DIGITS,), dtype=np.uint8)
    for p in range(_GROUP_DIGITS):
        table[1:, ..., p] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
            (10,) + (1,) * (_GROUP_DIGITS - 1 - p)
        )
        if p < _GROUP_DIGITS - 1:
            table[(1,) + (0,) * (p + 1) + (..., p)] = 0  # digits 0..p are all zero
    return table.view(np.uint32).ravel()


def _int_layout(c: np.ndarray) -> tuple[int, bool]:
    """The 4-digit groups that c's largest magnitude needs, and whether c holds a negative value."""
    low, high = int(c.min(initial=0)), int(c.max(initial=0))
    return -(-len(str(max(-low, high))) // _GROUP_DIGITS), low < 0


def _put_int(cells: np.ndarray, j: int, c: np.ndarray, width: int, signed: bool) -> int:
    """Write the text of c into cells[:, j:], a sign cell if signed and then
    width group cells; returns the next free column."""
    if signed:
        cells[:, j] = (c < 0) * _ascii_cell(b"-")
        j += 1
    groups = _digit_groups()
    # abs(-(2**63)) wraps to -(2**63), whose uint64 view is 2**63.
    m = np.abs(c).view(np.uint64)
    # Every operand below is a uint64 array or a Python int, so the index
    # stays uint64 under the promotion rules of numpy 1.x and 2.x alike; a
    # numpy scalar here would make it float64 on numpy 1.x.
    above = printed_above = 0
    for g in range(width):
        q = m // 10 ** (_GROUP_DIGITS * (width - 1 - g))  # the digits down to group g
        printed = np.minimum(q, 1) if g < width - 1 else 1
        row = printed + printed_above  # 0 empty, 1 first, 2 later
        cells[:, j + g] = groups[q - above * _GROUP + row * _GROUP]
        above, printed_above = q, printed
    return j + width


def _int_rows(a, b) -> bytearray:
    """The rows "a,b\n" of two equal-length int64 columns, as ASCII bytes.

    A value takes one cell per 4-digit group that its column's largest
    magnitude needs, each gathered from `_digit_groups()`, and a sign cell
    when its column holds a negative value; a "," or "\n" cell follows it.
    One `bytes.translate` per block strips the NUL bytes that pad the
    cells, which costs less than a boolean mask over the same bytes.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    layout_a, layout_b = _int_layout(a), _int_layout(b)
    n_cells = sum(layout_a) + sum(layout_b) + 2  # groups, signs, separators
    comma, newline = _ascii_cell(b","), _ascii_cell(b"\n")
    # Each block goes straight into one buffer: blocks kept alive until a
    # final join were seen to fragment the heap and raise peak RSS.
    text = bytearray()
    for lo in range(0, a.shape[0], _BLOCK_ROWS):
        block_a, block_b = a[lo : lo + _BLOCK_ROWS], b[lo : lo + _BLOCK_ROWS]
        cells = np.empty((block_a.shape[0], n_cells), dtype=np.uint32)
        j = _put_int(cells, 0, block_a, *layout_a)
        cells[:, j] = comma
        j = _put_int(cells, j + 1, block_b, *layout_b)
        cells[:, j] = newline
        text += cells.tobytes().translate(None, b"\0")
    return text


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


def _check_reach(t: np.ndarray, reach_ps: int, name: str) -> None:
    """Raise unless t -/+ reach_ps lies within int64 for every time of the sorted t."""
    first, last = (int(t[0]), int(t[-1])) if t.size else (0, 0)
    if first - reach_ps < -(2**63) or last + reach_ps >= 2**63:
        raise ValueError(f"a -/+ {name} must lie within int64, got {name}={reach_ps}")


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
    by at most one pair. The pairs are those of one walk down both inputs:
    when the earlier of the two current pulses lies a window or more before
    the other it is skipped, otherwise the two are matched.

    A pulse's candidates are the other input's pulses within the window.
    Pulses linked by no chain of candidates never meet in the walk, so it
    splits into independent clusters, and a pulse whose only candidate has
    no other candidate is matched to it. Two `searchsorted` calls and two
    `bincount`s count every pulse's candidates, one array pass matches
    these lone pairs, and the walk runs in Python only over the pulses of
    the contested clusters: O((n_a + n_b) log n_b) in numpy plus
    O(contested) in Python.
    """
    if window_ps <= 0:
        raise ValueError(f"window_ps must be > 0, got {window_ps}")
    ta, tb = _sorted_times(a, "a"), _sorted_times(b, "b")
    # The candidate search computes a -/+ window in int64.
    _check_reach(ta, window_ps, "window_ps")
    # The candidates of a[i] are b[lo[i]:hi[i]]. Both bounds never decrease,
    # so b[j] has as candidates the a[i] whose range opens at or before j,
    # less those whose range also closes there.
    lo = np.searchsorted(tb, ta - window_ps, side="right")
    hi = np.searchsorted(tb, ta + window_ps, side="left")
    n_a = hi - lo
    nb = tb.shape[0]
    opened = np.bincount(lo, minlength=nb + 1)[:nb]
    n_b = np.cumsum(opened - np.bincount(hi, minlength=nb + 1)[:nb])
    lone_a = np.flatnonzero(n_a == 1)
    lone_a = lone_a[n_b[lo[lone_a]] == 1]
    lone_b = lo[lone_a]
    # The pulses left with a candidate form the contested clusters; each
    # has a candidate left in the other input.
    contested_a = n_a > 0
    contested_a[lone_a] = False
    if not contested_a.any():
        return Coincidences(idx_a=lone_a, idx_b=lone_b)
    contested_b = n_b > 0
    contested_b[lone_b] = False
    at_a, at_b = np.flatnonzero(contested_a), np.flatnonzero(contested_b)
    a_list, b_list = ta[at_a].tolist(), tb[at_b].tolist()
    na, nb = len(a_list), len(b_list)
    ia_out: list[int] = []
    ib_out: list[int] = []
    i = j = 0
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
    # Both inputs' pairs ascend together, so ordering by a orders by b too.
    ia = np.concatenate((lone_a, at_a[ia_out]))
    ib = np.concatenate((lone_b, at_b[ib_out]))
    order = np.argsort(ia, kind="stable")
    return Coincidences(idx_a=ia[order], idx_b=ib[order])


def _bin_batches(batches, n_bins: int, max_batch: int) -> np.ndarray:
    """Counts of the bin indices in the arrays that `batches` yields.

    Each array, at most max_batch long, is copied into one buffer of
    n_bins + max_batch indices, and the buffer is binned by one `bincount`
    once it holds n_bins. The binning therefore costs O(indices + bins)
    however the indices are split, in O(bins + max_batch) memory.
    """
    counts = np.zeros(n_bins, dtype=np.int64)
    held = np.empty(n_bins + max_batch, dtype=np.int64)
    n_held = 0
    for idx in batches:
        held[n_held : n_held + idx.shape[0]] = idx
        n_held += idx.shape[0]
        if n_held >= n_bins:
            counts += np.bincount(held[:n_held], minlength=n_bins)
            n_held = 0
    if n_held:
        counts += np.bincount(held[:n_held], minlength=n_bins)
    return counts


def autocorrelation(pulses, max_lag_ps: int, bin_width_ps: int) -> Histogram:
    """Histogram of all forward pulse-time differences up to max_lag.

    The overflow tally holds the forward pairs whose difference fell beyond
    the last bin, so `total` is the full pair count n*(n-1)/2. One numpy
    pass per index offset gathers the in-span pairs at that offset, and
    `_bin_batches` bins them holding at most O(pulses + bins) indices at
    once, however many pairs one lag window holds.
    """
    if bin_width_ps <= 0:
        raise ValueError(f"bin_width_ps must be > 0, got {bin_width_ps}")
    if max_lag_ps < bin_width_ps:
        raise ValueError(f"max_lag_ps must be >= bin_width_ps, got {max_lag_ps}")
    t = _sorted_times(pulses, "pulses")
    n_bins = max_lag_ps // bin_width_ps
    span = bin_width_ps * n_bins

    def offsets():
        # `t` is sorted, so the smallest difference at offset k = j - i never
        # decreases with k: the first offset with no difference inside the
        # span ends the scan without missing a pair.
        for k in range(1, t.shape[0]):
            d = t[k:] - t[:-k]
            d = d[d < span]
            if d.size == 0:
                return
            yield d // bin_width_ps

    n = int(t.shape[0])
    counts = _bin_batches(offsets(), n_bins, n)
    overflow = n * (n - 1) // 2 - int(counts.sum())
    return Histogram(
        bin_width_ps=bin_width_ps, origin_ps=0, counts=counts, underflow=0, overflow=overflow
    )


def cross_correlation(a, b, span_ps: int, bin_width_ps: int) -> Histogram:
    """Histogram of differences (t_b - t_a) over [-span, +span).

    span must be a whole number of bins, and a -/+ span must lie within
    int64. Pair differences outside the window go to underflow (below
    -span) and overflow (at or above +span). One numpy pass per window
    member gathers the in-span pairs, and `_bin_batches` bins them holding
    at most O(pulses + bins) indices at once.
    """
    _check_bins(bin_width_ps, span_ps)
    ta, tb = _sorted_times(a, "a"), _sorted_times(b, "b")
    _check_reach(ta, span_ps, "span_ps")
    n_bins = 2 * (span_ps // bin_width_ps)
    # Each a_i's window of b is found by binary search. Pass k takes the
    # k-th member of every window that has one, so there are as many passes
    # as the longest window has members.
    lo = ta - span_ps
    first = np.searchsorted(tb, lo, side="left")
    end = np.searchsorted(tb, ta + span_ps, side="left")
    under = int(first.sum())

    def passes(lo, first, end):
        while True:
            live = first < end
            if not live.any():
                return
            lo, first, end = lo[live], first[live], end[live]
            yield (tb[first] - lo) // bin_width_ps
            first = first + 1

    counts = _bin_batches(passes(lo, first, end), n_bins, int(ta.shape[0]))
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


# Convergence of levenberg_marquardt: the relative step length and the
# relative chi2 decrease that a step promises, both far below the scatter of
# any fitted figure.
_XTOL = 1e-10
_FTOL = 1e-12
# Smallest Cholesky pivot of the normal matrix, relative to its diagonal
# entry, at which the data still determine every parameter.
_SINGULAR = 1e-10
# Damping beyond which no step can lower chi2 in floating point.
_LAM_MAX = 1e20
# Accepted steps after which a fit that has not converged fails.
_MAX_STEPS = 200


def levenberg_marquardt(model, p0, y, weights, *, lower=None) -> np.ndarray:
    """Weighted least squares by Levenberg-Marquardt with More's scaling.

    Minimizes chi2 = sum(weights * (y - f)**2) over the parameters p from p0,
    where `model(p)` returns the model values f at the data points and their
    analytic Jacobian, shaped (n_params, n_points). weights are inverse
    variances: 1/count for Poisson data. Each step solves
    (J^T W J + lam * D) dp = J^T W r with D the largest diagonal of J^T W J
    met so far (J. J. More, Lecture Notes in Mathematics 630, 1978), so the
    damping does not depend on the parameters' units. lam shrinks tenfold
    after a step that lowers chi2 and grows tenfold after one that does not.
    A step never takes a parameter below its `lower` bound: it stops there.
    The fit has converged when the linearized model promises a chi2 decrease
    below 1e-12 of chi2, or a step moves the scaled parameters by less than
    1e-10 of their length. The normal equations are a few parameters wide,
    so they are solved on Python floats.

    Raises InstrumentError when the data or the model at p0 are not finite,
    when the normal equations are singular, and after 200 steps without
    convergence.
    """
    y = np.asarray(y, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (np.isfinite(y).all() and np.isfinite(weights).all() and weights.min() >= 0.0):
        raise InstrumentError("data or weights are not finite and non-negative")
    sw = np.sqrt(weights)
    n = len(p0)
    lower = [-math.inf] * n if lower is None else [float(v) for v in lower]
    p = [max(float(v), lo) for v, lo in zip(p0, lower)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, jac = model(p)
        r = sw * (y - f)
        cost = float(r @ r)
        if not (math.isfinite(cost) and np.isfinite(jac).all()):
            raise InstrumentError("model is not finite at the start point")
        scale = [0.0] * n
        lam = 1e-3
        for _ in range(_MAX_STEPS):
            jw = jac * sw
            a = (jw @ jw.T).tolist()
            g = (jw @ r).tolist()
            scale = [max(d, a[i][i]) for i, d in enumerate(scale)]
            while True:  # raise the damping until a step lowers chi2
                damped = [row[:] for row in a]
                for i in range(n):
                    damped[i][i] += lam * scale[i]
                step = _solve(damped, g)
                # The chi2 decrease that the linearized model promises.
                promised = 0.0
                for i in range(n):
                    t = 2.0 * g[i]
                    for j in range(n):
                        t -= a[i][j] * step[j]
                    promised += step[i] * t
                if promised <= _FTOL * cost:
                    return _determined(p, jw)
                p_new = [max(v + dv, lo) for v, dv, lo in zip(p, step, lower)]
                moved = length = 0.0
                for d, v, v_new in zip(scale, p, p_new):
                    moved += d * (v_new - v) ** 2
                    length += d * v * v
                small = moved <= _XTOL * _XTOL * length
                f, jac_new = model(p_new)
                r_new = sw * (y - f)
                cost_new = float(r_new @ r_new)
                if cost_new < cost:
                    break
                if small or lam > _LAM_MAX:
                    # No step down the slope is left: p is the minimum.
                    return _determined(p, jw)
                lam *= 10.0
            p, jac, r, cost = p_new, jac_new, r_new, cost_new
            if small:
                return _determined(p, jac * sw)
            lam = max(lam / 10.0, 1e-12)
    raise InstrumentError(f"no convergence within {_MAX_STEPS} steps")


def _determined(p: list, jw: np.ndarray) -> np.ndarray:
    """p as an array; raises InstrumentError unless the weighted Jacobian jw
    there determines every parameter."""
    _cholesky((jw @ jw.T).tolist(), _SINGULAR)
    return np.array(p)


def _cholesky(a: list, rtol: float = 0.0) -> list:
    """Lower Cholesky factor of the symmetric matrix a, on Python floats.

    Raises InstrumentError when a pivot is not finite or not above both zero
    and rtol times its diagonal entry: the equations are then singular.
    """
    n = len(a)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        li = low[i]
        for j in range(i + 1):
            lj = low[j]
            s = a[i][j]
            for k in range(j):
                s -= li[k] * lj[k]
            if j < i:
                li[j] = s / lj[j]
            elif s > 0.0 and s > rtol * a[i][i] and math.isfinite(s):
                li[i] = math.sqrt(s)
            else:
                raise InstrumentError("normal equations are singular")
    return low


def _solve(a: list, b: list) -> list:
    """x with a @ x = b, for a symmetric positive definite matrix a."""
    low = _cholesky(a)
    n = len(b)
    x = list(b)
    for i in range(n):
        for k in range(i):
            x[i] -= low[i][k] * x[k]
        x[i] /= low[i][i]
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            x[i] -= low[k][i] * x[k]
        x[i] /= low[i][i]
    return x


def _gauss(x, amp, mu, sigma):
    return amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2)


# Half-width of the second fit window, in sigmas of the first fit.
_FIT_WINDOW_SIGMAS = 2.5


def _fit_gaussian(x, y, p0, weights) -> np.ndarray:
    def model(p):
        amp, mu, sigma = p
        z = (x - mu) / sigma
        g = np.exp(-0.5 * z * z)
        d_mu = g * z * (amp / sigma)
        return amp * g, np.array((g, d_mu, d_mu * z))

    try:
        return levenberg_marquardt(model, p0, y, weights)
    except InstrumentError as exc:
        raise InstrumentError(f"Gaussian fit did not converge: {exc}") from exc


def gaussian_fit(h: Histogram) -> GaussianFit:
    """Weighted least-squares Gaussian, fitted in two passes.

    The first pass fits the contiguous run of bins around the mode whose
    counts reach half the mode count, with Poisson weights from the counts
    (sigma_i = sqrt(count_i)). Its window is narrow and its edges follow the
    noise of the mode, so its width alone scatters by several percent; it
    only places the second pass. That one fits the bins within 2.5 sigma of
    the first fit's peak, weighted by the first fit's model counts. Both
    windows keep exponential backgrounds and secondary peaks out of the fit.
    Both passes fit amplitude, peak and sigma by `levenberg_marquardt` with
    the Gaussian's analytic Jacobian. residual is the root of the reduced
    chi-square of the second fit.
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
    first = _fit_gaussian(x, y, p0, 1.0 / y)

    window = np.abs(centers - first[1]) <= _FIT_WINDOW_SIGMAS * abs(first[2])
    n_win = int(np.count_nonzero(window))
    if n_win < 5:
        raise InstrumentError(f"too few bins in the second fit window: need >= 5, got {n_win}")
    x = centers[window]
    y = counts[window]
    weights = 1.0 / np.maximum(_gauss(x, *first), 1.0)
    popt = _fit_gaussian(x, y, first, weights)
    amp, mu, sig = popt
    chi2 = float(np.sum(weights * (y - _gauss(x, *popt)) ** 2))
    residual = float(np.sqrt(chi2 / max(n_win - 3, 1)))
    return GaussianFit(
        peak_ps=float(mu),
        fwhm_ps=float(FWHM_PER_SIGMA * abs(sig)),
        amplitude=float(amp),
        residual=residual,
    )
