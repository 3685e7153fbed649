"""Virtual measurement chain: histogrammer, coincidence unit, Gaussian fitter,
auto/cross correlators.

Everything operates on integer-picosecond time arrays and is a pure function
of its inputs, so runs are bit-reproducible.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Annotated, get_args, get_origin

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

    def write_csv(self, path) -> None:
        """Write the CSV of the histogram to path: the header, one row
        "bin_start_ps,count" per bin, then the underflow and overflow tally.

        The rows go to the file a block at a time (`_int_rows`), the bin
        starts of each block made as it is written, so the whole text is
        never held. Counts that are not a signed integer array raise
        TypeError before the file is opened.
        """
        if self.counts.dtype.kind != "i":
            raise TypeError(f"counts must be a signed integer array, got {self.counts.dtype}")
        w, o = self.bin_width_ps, self.origin_ps
        rows = _int_rows(range(o, o + w * self.n_bins, w), self.counts)
        with open(path, "wb") as fh:
            fh.write(b"bin_start_ps,count\n")
            fh.writelines(rows)
            fh.write(f"#underflow={self.underflow},#overflow={self.overflow}\n".encode("ascii"))


# Integers are printed in groups of 4 decimal digits, each group one uint32
# cell of 4 ASCII bytes. Rows are built in blocks, so that every temporary
# array stays in cache: writing a block of two columns takes under 1 MB.
_GROUP = 10_000
_GROUP_DIGITS = 4
_BLOCK_ROWS = 1 << 13


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


def _int_layout(c) -> tuple[int, bool]:
    """The 4-digit groups that the largest magnitude of column c needs, and
    whether c holds a negative value; c is an int64 array or a range."""
    if isinstance(c, range):  # its extremes are its ends
        c = np.array([c[0], c[-1]] if c else [], dtype=np.int64)
    low, high = int(c.min(initial=0)), int(c.max(initial=0))
    return -(-len(str(max(-low, high))) // _GROUP_DIGITS), low < 0


def _row_dtype(*layouts) -> np.dtype:
    """The packed record of one row. Column c takes a 1-byte sign field
    "-c" if its layout is signed, its group cells "c.0", "c.1", ... as
    unaligned native uint32, and a 1-byte separator field "/c": "," after
    every column but the last, "\n" after it."""
    fields = []
    for c, (width, signed) in enumerate(layouts):
        if signed:
            fields.append((f"-{c}", np.uint8))
        fields += [(f"{c}.{g}", np.uint32) for g in range(width)]
        fields.append((f"/{c}", np.uint8))
    return np.dtype(fields)


def _put_int(rows: np.ndarray, c: int, values: np.ndarray, width: int, signed: bool) -> None:
    """Write the text of values into the fields of column c of the records rows."""
    if signed:
        rows[f"-{c}"] = (values < 0) * ord("-")
    groups = _digit_groups()
    # abs(-(2**63)) wraps to -(2**63), whose uint64 view is 2**63.
    m = np.abs(values).view(np.uint64)
    # Every operand below is a uint64 array or a Python int, so the index
    # stays uint64 under the promotion rules of numpy 1.x and 2.x alike; a
    # numpy scalar here would make it float64 on numpy 1.x.
    above = printed_above = 0
    for g in range(width):
        q = m // 10 ** (_GROUP_DIGITS * (width - 1 - g))  # the digits down to group g
        printed = np.minimum(q, 1) if g < width - 1 else 1
        row = printed + printed_above  # 0 empty, 1 first, 2 later
        index = q - above * _GROUP + row * _GROUP  # below 3 * _GROUP
        rows[f"{c}.{g}"] = groups[index.view(np.int64)]  # an intp index skips a cast
        above, printed_above = q, printed


def _int_rows(*columns):
    """Yield the rows "a,b,...\n" of equal-length int64 columns as ASCII
    bytes, one block of up to _BLOCK_ROWS rows at a time.

    A column is an int64 array, or a range (the bin starts of a histogram)
    whose values are made a block at a time. A value takes one cell per
    4-digit group that its column's largest magnitude needs, each gathered
    from `_digit_groups()`, and a sign byte when its column holds a
    negative value; a "," or "\n" byte follows it. The fields of a row sit
    packed in one record (`_row_dtype`), and one `bytes.translate` per
    block strips the NUL bytes that pad the cells and signs.
    """
    layouts = [_int_layout(c) for c in columns]
    dtype = _row_dtype(*layouts)
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [c[lo : lo + _BLOCK_ROWS] for c in columns]
        rows = np.empty(len(block[0]), dtype=dtype)
        for c, (values, layout) in enumerate(zip(block, layouts)):
            if isinstance(values, range):
                values = values.start + values.step * np.arange(len(values), dtype=np.int64)
            _put_int(rows, c, np.asarray(values, dtype=np.int64), *layout)
            rows[f"/{c}"] = ord("\n" if c == len(columns) - 1 else ",")
        yield rows.tobytes().translate(None, b"\0")


# The int64 time budget, in ps, as named domains. Each time, delay and
# length is checked against its domain once, where it enters: a source
# config, DetectorParams, the arrivals and duration of `detect`, the qkd
# config, or an instrument's arguments. No sum formed after that is checked.
#
# - TIME holds source and detector times (arrivals, n_pairs *
#   pair_period_ps, a qkd frame's length), DURATION a run's length.
# - DELAY holds delays and lengths: the dead time plus its largest
#   elongation, the base delay, the jitter FWHM, a source's pulse width,
#   and the qkd correlators' bin widths and spans. SIGNED_DELAY holds each
#   shift and sampled jitter, HOLD_OFF the blanking time t_b.
# - INPUT holds instrument inputs and histogram origins, REACH the spans
#   and lags of histograms and correlators, WINDOW a coincidence window.
#
# So a dead period ends before 2**61 + 2**58, and an output time (an
# avalanche plus the base delay, shift and sampled jitter, or a dead end
# plus the base delay) lies in [0, 2**61 + 3 * 2**58), below 2**62: the
# instruments take it, as they take a correlator span of under 2**58
# rounded up to whole bins. In an instrument, t -/+ a span or window and
# the start of a bin stay below 2**62 + 2**60, and v - origin and the
# difference of two sorted inputs below 2**63. A source spreads an emission
# by less than 14 pulse widths, as numpy's normal draws stay below 14 (the
# tail draw takes the log of a double of at least 2**-53), so it stays
# below 2**61 + 14 * 2**58 < 2**62 until the source drops it.
# A trap release comes at most 1e15 < 2**50 ps after its avalanche, so the
# bounds hold for afterpulse chains of up to 1,280 links. A chain ends with
# probability 1, as DetectorParams keeps p < 1, but has no hard bound.
TIME = "[0, 2**61) ps"
DURATION = "(0, 2**61) ps"
DELAY = "[0, 2**58) ps"
SIGNED_DELAY = "(-2**58, 2**58) ps"
HOLD_OFF = "(0, 2**58) ps"
INPUT = "(-2**62, 2**62) ps"
REACH = "[0, 2**60) ps"
WINDOW = "(0, 2**60) ps"


def _number(text: str):
    """A bound: an integer, a float such as 1e12, or a power such as -2**62."""
    base, _, power = text.partition("**")
    if power:  # -2**62 is -(2**62)
        return (-1 if base[0] == "-" else 1) * abs(int(base)) ** int(power)
    return int(text) if text.lstrip("-").isdigit() else float(text)


@functools.cache
def _domain(text: str) -> tuple:
    """(low, low_open, high, high_open) of an interval such as "[0, 1]" or "(0, 2**61) ps",
    any unit after it, or of one bound such as ">= 0" or "< 2**62", its other end None."""
    if text[0] in "[(":
        end = next(i for i, c in enumerate(text) if c in ")]")
        low, high = text[1:end].split(", ")
        return _number(low), text[0] == "(", _number(high), text[end] == ")"
    op, bound = text.split(" ")
    if op[0] == ">":
        return _number(bound), op == ">", None, False
    return None, False, _number(bound), op == "<"


def _check(name: str, domain: str, *values) -> None:
    """Raise ValueError naming `name` unless each of values lies in the domain (see `_domain`).

    NaN and +-inf lie in no domain: the message reads "{name} must lie in
    {domain}", "{name} must be {domain}" for one bound, or "{name} must be
    finite" for an infinity on a bound's open side.
    """
    low, low_open, high, high_open = _domain(domain)
    for v in values:
        above = low is None or (low < v if low_open else low <= v)
        below = high is None or (v < high if high_open else v <= high)
        if not (above and below):
            shape = "be" if low is None or high is None else "lie in"
            raise ValueError(f"{name} must {shape} {domain}, got {v}")
        if v in (math.inf, -math.inf):
            raise ValueError(f"{name} must be finite, got {v}")


@functools.cache
def _declared(owner) -> dict:
    """Name -> domains of each parameter of owner, a dataclass or a function, annotated
    Annotated[type, domain, ...]. `inspect.signature` keeps such an annotation intact where
    typing.get_type_hints on Python 3.10 wraps a parameter that defaults to None in Optional."""
    params = inspect.signature(owner, eval_str=True).parameters.values()
    hints = {p.name: p.annotation for p in params}
    return {k: get_args(tp)[1:] for k, tp in hints.items() if get_origin(tp) is Annotated}


def _check_args(owner, args: dict) -> None:
    """Raise ValueError naming the first declared parameter of owner (see `_declared`)
    whose value in args leaves one of its domains; None, a default left out, passes."""
    for name, domains in _declared(owner).items():
        if args[name] is not None:
            for domain in domains:
                _check(name, domain, args[name])


def _check_fields(obj) -> None:
    """`_check_args` over the fields of the dataclass instance obj."""
    _check_args(type(obj), vars(obj))


def _int_times(values, name: str) -> np.ndarray:
    """values as an int64 array; raises ValueError naming `name` unless int64
    holds their dtype, so that no fractional time is truncated. An empty
    list, a float64 array, is accepted."""
    t = np.asarray(values)
    if t.size and not np.can_cast(t.dtype, np.int64):
        raise ValueError(f"{name} must be int64 picoseconds, got dtype {t.dtype}")
    return t.astype(np.int64, copy=False)


def _sorted_times(values, name: str, domain: str = INPUT) -> np.ndarray:
    """values as an int64 time array; raises unless it is sorted non-decreasing
    and lies in the domain, by default that of an instrument input."""
    t = _int_times(values, name)
    if t.size:
        if np.any(t[1:] < t[:-1]):
            raise ValueError(f"{name} must be sorted")
        _check(name, domain, t[0], t[-1])
    return t


def _check_bins(bin_width_ps: int, span_ps: int) -> None:
    """Raise unless span_ps is a positive whole number of bin_width_ps bins, in the budget."""
    _check("bin_width_ps", "> 0", bin_width_ps)
    if span_ps <= 0 or span_ps % bin_width_ps != 0:
        raise ValueError(
            f"span_ps must be a positive multiple of bin_width_ps, got {span_ps}"
        )
    _check("span_ps", REACH, span_ps)


def build_histogram(values, bin_width_ps: int, span_ps: int, origin_ps: int = 0) -> Histogram:
    """Histogram integer-ps values over [origin, origin + span).

    span must be a whole number of bins. Out-of-range values land in the
    underflow/overflow tallies, never get dropped.
    """
    _check_bins(bin_width_ps, span_ps)
    v = _int_times(values, "values")
    _check("values", INPUT, v.min(initial=0), v.max(initial=0))
    _check("origin_ps", INPUT, origin_ps)
    n_bins = span_ps // bin_width_ps
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
    _check("window_ps", WINDOW, window_ps)
    ta, tb = _sorted_times(a, "a"), _sorted_times(b, "b")
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


def autocorrelation(pulses, max_lag_ps: int, bin_width_ps: int) -> Histogram:
    """Histogram of all forward pulse-time differences up to max_lag.

    The overflow tally holds the forward pairs whose difference fell beyond
    the last bin, so `total` is the full pair count n*(n-1)/2. One numpy
    pass per index offset gathers the in-span pairs at that offset and
    bins them into the counts in place with `np.add.at`, so at most one
    pass's O(pulses) indices are held beside the counts, however many
    pairs one lag window holds.
    """
    _check("bin_width_ps", "> 0", bin_width_ps)
    if max_lag_ps < bin_width_ps:
        raise ValueError(f"max_lag_ps must be >= bin_width_ps, got {max_lag_ps}")
    _check("max_lag_ps", REACH, max_lag_ps)
    t = _sorted_times(pulses, "pulses")
    n_bins = max_lag_ps // bin_width_ps
    span = bin_width_ps * n_bins
    counts = np.zeros(n_bins, dtype=np.int64)
    # `t` is sorted, so the smallest difference at offset k = j - i never
    # decreases with k: the first offset with no difference inside the
    # span ends the scan without missing a pair.
    for k in range(1, t.shape[0]):
        d = t[k:] - t[:-k]
        d = d[d < span]
        if d.size == 0:
            break
        np.add.at(counts, np.floor_divide(d, bin_width_ps, out=d), 1)
    n = int(t.shape[0])
    overflow = n * (n - 1) // 2 - int(counts.sum())
    return Histogram(
        bin_width_ps=bin_width_ps, origin_ps=0, counts=counts, underflow=0, overflow=overflow
    )


def cross_correlation(a, b, span_ps: int, bin_width_ps: int) -> Histogram:
    """Histogram of differences (t_b - t_a) over [-span, +span).

    span must be a whole number of bins. Pair differences outside the
    window go to underflow (below -span) and overflow (at or above +span).
    One numpy pass per window member gathers the in-span pairs and bins
    them into the counts in place with `np.add.at`, holding at most one
    pass's O(pulses) indices beside the counts.
    """
    _check_bins(bin_width_ps, span_ps)
    ta, tb = _sorted_times(a, "a"), _sorted_times(b, "b")
    counts = np.zeros(2 * (span_ps // bin_width_ps), dtype=np.int64)
    # Each a_i's window of b is found by binary search. Pass k takes the
    # k-th member of every window that has one, so there are as many passes
    # as the longest window has members.
    lo = ta - span_ps
    first = np.searchsorted(tb, lo, side="left")
    end = np.searchsorted(tb, ta + span_ps, side="left")
    under = int(first.sum())
    while True:
        live = first < end
        if not live.any():
            break
        lo, first, end = lo[live], first[live], end[live]
        np.add.at(counts, (tb[first] - lo) // bin_width_ps, 1)
        first += 1
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
# Smallest squared pivot of the Cholesky factor of the normal matrix,
# relative to its diagonal entry, at which the data still determine every
# parameter.
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
    1e-10 of their length. Each trial step is one `np.linalg.solve`. The
    data determine the result when every squared pivot of the Cholesky
    factor of J^T W J there is finite and above 1e-10 of its diagonal entry.

    Raises InstrumentError when the data or the model at p0 are not finite,
    when the normal equations are singular, and after 200 steps without
    convergence.
    """
    y = np.asarray(y, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (np.isfinite(y).all() and np.isfinite(weights).all() and weights.min() >= 0.0):
        raise InstrumentError("data or weights are not finite and non-negative")
    sw = np.sqrt(weights)
    lower = -np.inf if lower is None else np.asarray(lower, dtype=np.float64)
    p = np.maximum(np.asarray(p0, dtype=np.float64), lower)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, jac = model(p)
        r = sw * (y - f)
        cost = float(r @ r)
        if not (math.isfinite(cost) and np.isfinite(jac).all()):
            raise InstrumentError("model is not finite at the start point")
        scale = np.zeros_like(p)
        lam = 1e-3
        for _ in range(_MAX_STEPS):
            jw = jac * sw
            a, g = jw @ jw.T, jw @ r
            scale = np.maximum(scale, np.diagonal(a))
            while True:  # raise the damping until a step lowers chi2
                try:
                    step = np.linalg.solve(a + np.diag(lam * scale), g)
                except np.linalg.LinAlgError:
                    raise InstrumentError("normal equations are singular") from None
                # The chi2 decrease that the linearized model promises.
                if step @ (2.0 * g - a @ step) <= _FTOL * cost:
                    return _determined(p, a)
                p_new = np.maximum(p + step, lower)
                small = scale @ (p_new - p) ** 2 <= _XTOL * _XTOL * (scale @ p**2)
                f, jac_new = model(p_new)
                r_new = sw * (y - f)
                cost_new = float(r_new @ r_new)
                if cost_new < cost:
                    break
                if small or lam > _LAM_MAX:
                    # No step down the slope is left: p is the minimum.
                    return _determined(p, a)
                lam *= 10.0
            p, jac, r, cost = p_new, jac_new, r_new, cost_new
            if small:
                jw = jac * sw
                return _determined(p, jw @ jw.T)
            lam = max(lam / 10.0, 1e-12)
    raise InstrumentError(f"no convergence within {_MAX_STEPS} steps")


def _determined(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """p; raises InstrumentError unless the normal matrix a there determines
    every parameter: each squared pivot of its Cholesky factor is finite and
    above _SINGULAR times its diagonal entry."""
    try:
        determined = (np.diagonal(np.linalg.cholesky(a)) ** 2 > _SINGULAR * np.diagonal(a)).all()
    except np.linalg.LinAlgError:
        determined = False
    if not determined:
        raise InstrumentError("normal equations are singular")
    return p


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
