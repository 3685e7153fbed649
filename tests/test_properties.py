"""Invariants that must hold for arbitrary inputs, checked with hypothesis."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spadsim import (
    Histogram,
    KeyRateInputs,
    autocorrelation,
    build_histogram,
    coincidence,
    cross_correlation,
    poisson_times,
    secret_key_rate,
)
from spadsim import instruments
from spadsim.detector import _blanking_keep
from spadsim.instruments import _int_rows

sorted_times = st.lists(st.integers(min_value=0, max_value=500_000), min_size=0, max_size=60).map(
    lambda v: np.array(sorted(set(v)), dtype=np.int64)
)


@settings(deadline=None)
@given(times=sorted_times, t_b=st.integers(min_value=1, max_value=120_000))
@example(times=np.array([0, 100, 150, 250, 349], dtype=np.int64), t_b=100)
# Gaps of exactly t_b and t_b - 1.
@example(times=np.array([0, 100, 199, 299, 398, 498], dtype=np.int64), t_b=100)
# One cluster of short gaps: 120 passes only because the withheld 60 does not
# restart the window.
@example(times=np.array([0, 60, 120, 180, 240, 400], dtype=np.int64), t_b=100)
# Repeated timestamps.
@example(times=np.array([0, 0, 50, 50, 150, 150, 150], dtype=np.int64), t_b=100)
def test_blanking_matches_quadratic_oracle(times, t_b):
    kept = times[_blanking_keep(times, t_b)].tolist()
    expect = []
    for t in times.tolist():
        if not any(0 <= t - s < t_b for s in expect):
            expect.append(t)
    assert kept == expect


@settings(deadline=None)
@given(times=sorted_times, t_b=st.integers(min_value=1, max_value=120_000))
def test_blanking_gap_floor(times, t_b):
    kept = times[_blanking_keep(times, t_b)]
    if len(kept) > 1:
        assert int(np.diff(kept).min()) >= t_b
    assert set(kept.tolist()) <= set(times.tolist())


@given(
    values=st.lists(st.integers(min_value=-10_000_000, max_value=10_000_000), max_size=200),
    bin_width=st.integers(min_value=1, max_value=5000),
    n_bins=st.integers(min_value=1, max_value=64),
    origin=st.integers(min_value=-50_000, max_value=50_000),
)
def test_histogram_conserves_every_sample(values, bin_width, n_bins, origin):
    h = build_histogram(
        np.array(values, dtype=np.int64), bin_width, bin_width * n_bins, origin_ps=origin
    )
    assert int(h.counts.sum()) + h.underflow + h.overflow == len(values)
    assert h.total == len(values)


def greedy_pairs(a, b, window):
    """Greedy earliest-first matching: walk both streams once and pair
    whatever fits the strict window."""
    pairs = []
    i = j = 0
    while i < len(a) and j < len(b):
        if int(b[j]) - int(a[i]) >= window:
            i += 1
        elif int(a[i]) - int(b[j]) >= window:
            j += 1
        else:
            pairs.append((i, j))
            i += 1
            j += 1
    return pairs


@settings(deadline=None)
@given(a=sorted_times, b=sorted_times, window=st.integers(min_value=1, max_value=50_000))
def test_coincidence_greedy_invariants(a, b, window):
    m = coincidence(a, b, window)
    ia, ib = m.idx_a.tolist(), m.idx_b.tolist()
    assert ia == sorted(set(ia)) and ib == sorted(set(ib))
    for i, j in zip(ia, ib):
        assert abs(int(a[i]) - int(b[j])) < window
    # The instrument must produce exactly the greedy walk's pairs.
    assert list(zip(ia, ib)) == greedy_pairs(a, b, window)


# Sorted times that may repeat, dense enough for contested clusters.
times_with_repeats = st.lists(st.integers(min_value=-1_000, max_value=3_000), max_size=60).map(
    lambda v: np.array(sorted(v), dtype=np.int64)
)


@settings(deadline=None)
@given(a=times_with_repeats, b=times_with_repeats, window=st.integers(min_value=1, max_value=400))
# One time repeated in each input, each copy with the same candidates.
@example(
    a=np.array([5, 5, 5], dtype=np.int64), b=np.array([4, 5, 5, 300], dtype=np.int64), window=2
)
def test_coincidence_with_repeated_times_matches_greedy_walk(a, b, window):
    m = coincidence(a, b, window)
    assert list(zip(m.idx_a.tolist(), m.idx_b.tolist())) == greedy_pairs(a, b, window)


@given(
    m=st.integers(min_value=0, max_value=64),
    eta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    n_mean=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    xi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    bw=st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
)
def test_key_rate_scaling_laws(m, eta, n_mean, xi, bw):
    base = secret_key_rate(KeyRateInputs(m, eta, n_mean, xi, bw))
    assert base >= 0.0
    doubled_m = secret_key_rate(KeyRateInputs(2 * m, eta, n_mean, xi, bw))
    assert doubled_m == pytest.approx(2.0 * base, rel=1e-12, abs=1e-300)
    if eta <= 0.5:
        doubled_eta = secret_key_rate(KeyRateInputs(m, 2.0 * eta, n_mean, xi, bw))
        assert doubled_eta == pytest.approx(4.0 * base, rel=1e-9, abs=1e-300)
    halved_bin = secret_key_rate(KeyRateInputs(m, eta, n_mean, xi, bw / 2.0))
    assert halved_bin == pytest.approx(2.0 * base, rel=1e-9, abs=1e-300)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_poisson_stream_is_deterministic(seed):
    a = poisson_times(np.random.default_rng(seed), 1.0e6, 10_000_000)
    b = poisson_times(np.random.default_rng(seed), 1.0e6, 10_000_000)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)
    assert a.size == 0 or (a[0] >= 0 and a[-1] <= 10_000_000)


def _all_pairs_oracle(diffs, origin, bin_width, n_bins):
    """Bin every pair difference one at a time: (counts, underflow, overflow)."""
    counts = [0] * n_bins
    under = over = 0
    for d in diffs.tolist():
        if d < origin:
            under += 1
        elif d >= origin + n_bins * bin_width:
            over += 1
        else:
            counts[(d - origin) // bin_width] += 1
    return counts, under, over


@st.composite
def correlator_times(draw, bin_width, n_bins, max_size=40):
    """Sorted times, repeats allowed, around a random (possibly negative) base.

    Half the draws sit on a lattice of the bin width, so pair differences
    land exactly on bin edges and exactly at the ends of the span.
    """
    reach = 4 * n_bins * bin_width
    lattice = st.integers(-4 * n_bins, 4 * n_bins).map(lambda k: k * bin_width)
    free = st.integers(-reach, reach)
    values = draw(st.lists(st.one_of(lattice, free), max_size=max_size))
    base = draw(st.integers(-(10**12), 10**12))
    return np.array(sorted(values), dtype=np.int64) + base


@st.composite
def autocorr_case(draw):
    bin_width = draw(st.integers(min_value=1, max_value=40))
    n_bins = draw(st.integers(min_value=1, max_value=6))
    max_lag = n_bins * bin_width + draw(st.integers(min_value=0, max_value=bin_width - 1))
    return draw(correlator_times(bin_width, n_bins)), max_lag, bin_width


@settings(deadline=None, max_examples=300)
@given(case=autocorr_case())
@example(case=(np.array([], dtype=np.int64), 30, 10))
@example(case=(np.array([-7], dtype=np.int64), 30, 10))
@example(case=(np.array([-5, -5, -5, 5, 25, 25], dtype=np.int64), 35, 10))
# Offsets with fewer in-span pairs than bins are gathered before a bincount.
@example(case=(np.arange(5, dtype=np.int64), 60, 10))
# 58 pulses 7 ps apart: about 430 pairs in 6 bins, a bincount per offset.
@example(case=(np.arange(0, 400, 7, dtype=np.int64), 60, 10))
def test_autocorrelation_matches_all_pairs(case):
    t, max_lag, bin_width = case
    h = autocorrelation(t, max_lag, bin_width)
    n_bins = max_lag // bin_width
    diffs = np.subtract.outer(t, t)[np.tril_indices(t.size, k=-1)]  # t[j] - t[i], j > i
    counts, under, over = _all_pairs_oracle(diffs, 0, bin_width, n_bins)
    assert h.counts.dtype == np.int64
    assert h.counts.tolist() == counts
    assert (h.underflow, h.overflow) == (under, over)
    assert h.origin_ps == 0 and h.bin_width_ps == bin_width


@st.composite
def crosscorr_case(draw):
    bin_width = draw(st.integers(min_value=1, max_value=40))
    half_bins = draw(st.integers(min_value=1, max_value=4))
    a = draw(correlator_times(bin_width, 2 * half_bins, max_size=25))
    b = draw(correlator_times(bin_width, 2 * half_bins, max_size=25))
    if draw(st.booleans()):
        b = b - b[:1].sum() + a[:1].sum()  # share the base, so the lattices line up
    return a, b, half_bins * bin_width, bin_width


@settings(deadline=None, max_examples=300)
@given(case=crosscorr_case())
@example(case=(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 20, 10))
@example(case=(np.array([3], dtype=np.int64), np.array([], dtype=np.int64), 20, 10))
@example(case=(np.array([], dtype=np.int64), np.array([3], dtype=np.int64), 20, 10))
@example(case=(np.array([0], dtype=np.int64), np.array([-20, -10, 0, 0, 19, 20], dtype=np.int64), 20, 10))
# About 500 pairs in 4 bins, a bincount per pass.
@example(case=(np.arange(0, 90, 3, dtype=np.int64), np.arange(0, 80, 2, dtype=np.int64), 20, 10))
def test_cross_correlation_matches_all_pairs(case):
    a, b, span, bin_width = case
    h = cross_correlation(a, b, span, bin_width)
    diffs = np.subtract.outer(b, a).ravel()  # b[j] - a[i]
    counts, under, over = _all_pairs_oracle(diffs, -span, bin_width, 2 * span // bin_width)
    assert h.counts.dtype == np.int64
    assert h.counts.tolist() == counts
    assert (h.underflow, h.overflow) == (under, over)
    assert h.origin_ps == -span and h.bin_width_ps == bin_width


int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@given(rows=st.lists(st.tuples(int64s, int64s), max_size=50), block=st.integers(1, 8))
@example(rows=[(0, -1), (-1, 0)], block=1)
@example(rows=[(10**k - 1, -(10**k)) for k in range(19)], block=4)
@example(rows=[(-(10**k - 1), 10**k) for k in range(19)], block=4)
@example(rows=[(2**63 - 1, -(2**63)), (-(2**63), 2**63 - 1)], block=1)  # np.abs(-(2**63)) wraps
@example(rows=[], block=8)
def test_int_rows_match_python_text(rows, block):
    # With small blocks the rows stream in several blocks, as a long column's do.
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    with mock.patch.object(instruments, "_BLOCK_ROWS", block):
        text = b"".join(_int_rows(a, b)).decode("ascii")
    assert text == "".join(f"{x},{y}\n" for x, y in rows)


@st.composite
def histograms(draw):
    """A histogram whose bin starts all lie in int64, with int64 counts."""
    counts = draw(st.lists(int64s, max_size=20))
    steps = max(len(counts) - 1, 0)
    width = draw(st.integers(1, min(2**63 - 1, (2**64 - 1) // max(steps, 1))))
    origin = draw(st.integers(-(2**63), 2**63 - 1 - width * steps))
    return Histogram(
        bin_width_ps=width,
        origin_ps=origin,
        counts=np.array(counts, dtype=np.int64),
        underflow=draw(st.integers(0, 2**63)),
        overflow=draw(st.integers(0, 2**63)),
    )


@settings(deadline=None)
@given(h=histograms(), block=st.integers(1, 8))
# Bin starts from -(2**63), whose products with the width wrap in int64.
@example(h=Histogram(2**62, -(2**63), np.array([-(2**63), 0, 5, 2**63 - 1]), 1, 2), block=3)
# Bin starts across the 10**4 and 10**8 group edges, signs in both columns.
@example(h=Histogram(1, 9_998, np.array([9_999, 10_000, -1, -10_000])), block=2)
@example(h=Histogram(10**8, -(10**8), np.array([0, 10**8 - 1, 10**8])), block=1)
def test_histogram_csv_matches_python_text(h, block):
    starts = [h.origin_ps + i * h.bin_width_ps for i in range(h.n_bins)]
    rows = "".join(f"{s},{c}\n" for s, c in zip(starts, h.counts.tolist()))
    tally = f"#underflow={h.underflow},#overflow={h.overflow}\n"
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(instruments, "_BLOCK_ROWS", block):
        path = os.path.join(tmp, "h.csv")
        h.write_csv(path)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == f"bin_start_ps,count\n{rows}{tally}".encode("ascii")
