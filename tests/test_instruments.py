import tracemalloc

import numpy as np
import pytest

from spadsim import (
    Histogram,
    InstrumentError,
    autocorrelation,
    build_histogram,
    coincidence,
    cross_correlation,
    gaussian_fit,
)
from spadsim import instruments
from spadsim.instruments import FWHM_PER_SIGMA, levenberg_marquardt


class TestHistogram:
    def test_counts_are_conserved(self):
        v = np.array([-5, 0, 999, 1000, 1500, 3999, 4000, 10**9], dtype=np.int64)
        h = build_histogram(v, 1000, 4000)
        assert h.counts.tolist() == [2, 2, 0, 1]
        assert h.underflow == 1 and h.overflow == 2
        assert h.total == v.size

    def test_origin_offsets_bins(self):
        v = np.array([10, 11, 12], dtype=np.int64)
        h = build_histogram(v, 2, 4, origin_ps=10)
        assert h.counts.tolist() == [2, 1]
        assert h.bin_starts.tolist() == [10, 12]
        assert h.bin_centers.tolist() == [11.0, 13.0]

    def test_validation(self):
        v = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            build_histogram(v, 0, 4000)
        with pytest.raises(ValueError):
            build_histogram(v, 1000, 4500)  # span not a multiple
        with pytest.raises(ValueError):
            build_histogram(v, 1000, 0)
        # A cast to int64 would count these in bins 1 and 2.
        fractional = r"^values must be int64 picoseconds, got dtype float64$"
        with pytest.raises(ValueError, match=fractional):
            build_histogram([1.9, 2.2], 1, 10)

    def test_values_and_origin_must_lie_in_the_budget(self):
        # v - origin would wrap: 2**63 - 1 would then be tallied as underflow.
        with pytest.raises(ValueError, match=r"^values must lie in \(-2\*\*62, 2\*\*62\) ps"):
            build_histogram(np.array([2**63 - 1]), 100, 1000, origin_ps=-(2**62))
        with pytest.raises(ValueError, match=r"^origin_ps must lie in \(-2\*\*62, 2\*\*62\) ps"):
            build_histogram(np.array([0]), 100, 1000, origin_ps=-(2**62))
        with pytest.raises(ValueError, match=r"^span_ps must lie in \[0, 2\*\*60\) ps"):
            build_histogram(np.array([0]), 2**59, 2**60)
        h = build_histogram(np.array([2**62 - 1, -(2**62) + 1]), 2**59, 2**60 - 2**59, -(2**62) + 1)
        assert (h.counts.tolist(), h.underflow, h.overflow) == ([1], 0, 1)
        assert h.bin_starts.tolist() == [-(2**62) + 1]

    def test_csv_layout(self, tmp_path):
        h = build_histogram(np.array([0, 1, 5000], dtype=np.int64), 1000, 2000)
        h.write_csv(tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_bytes().split(b"\n")
        assert lines == [b"bin_start_ps,count", b"0,2", b"1000,0", b"#underflow=0,#overflow=1", b""]

    @pytest.mark.parametrize(
        "counts",
        [
            np.array([0], dtype=np.int64),
            np.array([7, 0, 12345678901, 3], dtype=np.int64),
        ],
    )
    def test_csv_matches_row_by_row_text(self, counts, tmp_path):
        h = Histogram(bin_width_ps=250, origin_ps=-500, counts=counts, underflow=4, overflow=9)
        rows = "".join(
            f"{s},{c}\n" for s, c in zip(h.bin_starts.tolist(), h.counts.tolist())
        )
        h.write_csv(tmp_path / "h.csv")
        text = f"bin_start_ps,count\n{rows}#underflow=4,#overflow=9\n"
        assert (tmp_path / "h.csv").read_bytes() == text.encode("ascii")

    def test_csv_rejects_non_integer_counts(self, tmp_path):
        counts = np.array([0.5, 2.0, 1e-7], dtype=np.float64)
        h = Histogram(bin_width_ps=250, origin_ps=-500, counts=counts, underflow=4, overflow=9)
        path = tmp_path / "h.csv"
        with pytest.raises(TypeError, match="float64"):
            h.write_csv(path)
        assert not path.exists()
        path.write_bytes(b"kept")
        with pytest.raises(TypeError, match="float64"):
            h.write_csv(path)
        assert path.read_bytes() == b"kept"

    @staticmethod
    def _pulsed_autocorr_shape() -> Histogram:
        # The pulsed-autocorr shape: bin starts up to 11,999,950 need two
        # 4-digit groups, and the rows span many formatting blocks.
        counts = np.random.default_rng(3).poisson(1.5, 240_000).astype(np.int64)
        counts[::9973] = 12345678
        return Histogram(bin_width_ps=50, origin_ps=0, counts=counts, underflow=0, overflow=77)

    def test_csv_of_a_240000_bin_histogram(self, tmp_path):
        h = self._pulsed_autocorr_shape()
        rows = "".join(f"{s},{c}\n" for s, c in zip(h.bin_starts.tolist(), h.counts.tolist()))
        h.write_csv(tmp_path / "h.csv")
        text = f"bin_start_ps,count\n{rows}#underflow=0,#overflow=77\n"
        assert (tmp_path / "h.csv").read_bytes() == text.encode("ascii")

    def test_csv_write_holds_a_block_not_the_text(self, tmp_path):
        # The text is about 3 MB; the rows go to the file a block at a time.
        h = self._pulsed_autocorr_shape()
        h.write_csv(tmp_path / "warm.csv")  # builds the cached digit table
        tracemalloc.start()
        try:
            h.write_csv(tmp_path / "h.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MB"


class TestCoincidence:
    def test_greedy_matching(self):
        a = np.array([0, 100], dtype=np.int64)
        b = np.array([60, 140], dtype=np.int64)
        c = coincidence(a, b, 80)
        assert len(c) == 2
        assert c.idx_a.tolist() == [0, 1]
        assert c.idx_b.tolist() == [0, 1]

    def test_window_is_strict(self):
        a = np.array([0], dtype=np.int64)
        b = np.array([80], dtype=np.int64)
        assert len(coincidence(a, b, 80)) == 0
        assert len(coincidence(a, b, 81)) == 1

    def test_each_pulse_used_once(self):
        a = np.array([0, 10], dtype=np.int64)
        b = np.array([5], dtype=np.int64)
        c = coincidence(a, b, 100)
        assert len(c) == 1
        assert c.idx_a.tolist() == [0]

    def test_all_pulses_uncontested(self):
        a = np.array([0, 1000, 2000, 3000], dtype=np.int64)
        b = np.array([10, 990, 2049, 5000], dtype=np.int64)
        c = coincidence(a, b, 50)
        assert c.idx_a.tolist() == [0, 1, 2]
        assert c.idx_b.tolist() == [0, 1, 2]

    def test_chain_is_matched_in_walk_order(self):
        # Each of b[0], b[1] lies 10 ps after one a and 90 ps after the
        # previous one: the walk pairs each a with the b after it, not with
        # the nearest b.
        a = np.array([0, 100, 200], dtype=np.int64)
        b = np.array([90, 190, 290], dtype=np.int64)
        c = coincidence(a, b, 100)
        assert c.idx_a.tolist() == [0, 1, 2]
        assert c.idx_b.tolist() == [0, 1, 2]
        # With b[2] out of reach the walk keeps its first two pairs, and a[2]
        # goes unmatched although it lies 10 ps before b[1].
        b = np.array([90, 190, 500], dtype=np.int64)
        c = coincidence(a, b, 100)
        assert c.idx_a.tolist() == [0, 1]
        assert c.idx_b.tolist() == [0, 1]

    def test_clusters_at_both_ends(self):
        a = np.array([0, 5, 1000, 2000, 2003], dtype=np.int64)
        b = np.array([3, 1004, 2001, 2006], dtype=np.int64)
        c = coincidence(a, b, 10)
        assert c.idx_a.tolist() == [0, 2, 3, 4]
        assert c.idx_b.tolist() == [0, 1, 2, 3]

    def test_empty_inputs(self):
        empty = np.array([], dtype=np.int64)
        one = np.array([7], dtype=np.int64)
        for a, b in ((empty, empty), (empty, one), (one, empty)):
            c = coincidence(a, b, 10)
            assert len(c) == 0
            assert c.idx_a.dtype == c.idx_b.dtype == np.int64

    def test_window_arithmetic_must_fit_in_int64(self):
        # The time budget keeps a -/+ window inside int64: inputs lie in
        # (-2**62, 2**62) and the window below 2**60.
        b = np.array([0], dtype=np.int64)
        for a in ([2**62], [-(2**62)]):
            with pytest.raises(ValueError, match=r"^a must lie in \(-2\*\*62, 2\*\*62\) ps"):
                coincidence(np.array(a, dtype=np.int64), b, 11)
            assert len(coincidence(np.array(a, dtype=np.int64) - np.sign(a), b, 2**60 - 1)) == 0
        for window in (0, 2**60):
            with pytest.raises(ValueError, match=r"^window_ps must lie in \(0, 2\*\*60\) ps"):
                coincidence([], b, window)
        # Fractional times are refused, not truncated on the cast to int64.
        with pytest.raises(ValueError, match=r"^a must be int64 picoseconds, got dtype float64$"):
            coincidence([0.5], b, 11)


class TestAutocorrelation:
    def test_comb_concentrates_at_multiples(self):
        t = np.arange(200, dtype=np.int64) * 1000
        h = autocorrelation(t, 10_000, 100)
        nz = np.nonzero(h.counts)[0]
        lags = h.bin_starts[nz]
        assert np.all(lags % 1000 == 0)
        assert h.counts[nz].tolist() == [199, 198, 197, 196, 195, 194, 193, 192, 191]

    def test_translation_invariance(self):
        t = np.sort(np.random.default_rng(4).integers(0, 10**7, 500)).astype(np.int64)
        h1 = autocorrelation(t, 100_000, 500)
        h2 = autocorrelation(t + 12345, 100_000, 500)
        assert np.array_equal(h1.counts, h2.counts)

    def test_pair_count_conservation(self):
        t = np.array([0, 10, 20, 10_000], dtype=np.int64)
        h = autocorrelation(t, 100, 10)
        assert h.total == 4 * 3 // 2

    def test_sorted_span_across_the_budget_is_refused(self):
        # Sorted, but the difference of the two would wrap past int64.
        with pytest.raises(ValueError, match=r"^pulses must lie in \(-2\*\*62, 2\*\*62\) ps"):
            autocorrelation(np.array([-(2**62) - 10, 2**62 + 10]), 1000, 100)
        with pytest.raises(ValueError, match=r"^pulses must be sorted$"):
            autocorrelation(np.array([2**62 - 1, -(2**62) + 1]), 1000, 100)
        with pytest.raises(ValueError, match=r"^max_lag_ps must lie in \[0, 2\*\*60\) ps"):
            autocorrelation(np.array([0]), 2**60, 100)
        h = autocorrelation(np.array([-(2**62) + 1, 2**62 - 1]), 1000, 100)
        assert (h.total, h.overflow) == (1, 1)

    def test_memory_is_the_counts_and_one_pass(self):
        # The pulsed-autocorr shape: about 23,000 pulses at 1.28 Mcps, at
        # least 8 ns apart, binned into 240,000 bins of 50 ps; about 30
        # pulses share one 12 us lag window.
        gaps = 8_000 + np.random.default_rng(8).exponential(773_000, 23_000).astype(np.int64)
        t = np.cumsum(gaps)
        tracemalloc.start()
        try:
            h = autocorrelation(t, 12_000_000, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.total == t.size * (t.size - 1) // 2
        bound = h.counts.nbytes + 2**20
        assert peak < bound, f"traced peak {peak / 2**20:.2f} MB, bound {bound / 2**20:.2f} MB"


class TestCrossCorrelation:
    def test_known_offsets(self):
        a = np.array([0, 1000], dtype=np.int64)
        b = np.array([300], dtype=np.int64)
        h = cross_correlation(a, b, 2000, 100)
        # Differences b - a: +300 and -700.
        assert h.origin_ps == -2000
        nz = np.nonzero(h.counts)[0]
        assert h.bin_starts[nz].tolist() == [-700, 300]
        assert h.total == 2

    def test_out_of_span_counted(self):
        a = np.array([0], dtype=np.int64)
        b = np.array([10_000, -10_000 + 0], dtype=np.int64)  # both outside span
        b.sort()
        h = cross_correlation(a, b, 2000, 100)
        assert h.counts.sum() == 0
        assert h.underflow + h.overflow == 2
        assert h.total == 2

    def test_span_arithmetic_must_fit_in_int64(self):
        # As in coincidence: the time budget keeps a -/+ span inside int64.
        b = np.array([0], dtype=np.int64)
        for a in ([2**62], [-(2**62)]):
            with pytest.raises(ValueError, match=r"^a must lie in \(-2\*\*62, 2\*\*62\) ps"):
                cross_correlation(np.array(a, dtype=np.int64), b, 1100, 100)
            a = np.array(a, dtype=np.int64) - np.sign(a)
            assert cross_correlation(a, b, 2**60 - 2**59, 2**59).total == 1
        with pytest.raises(ValueError, match=r"^span_ps must lie in \[0, 2\*\*60\) ps"):
            cross_correlation([], b, 2**60, 2**60)


class TestGaussianFit:
    def make_hist(self, mu, fwhm, n, bw=25, seed=5):
        g = np.random.default_rng(seed)
        v = np.round(g.normal(mu, fwhm / FWHM_PER_SIGMA, n)).astype(np.int64)
        lo = int(mu - 5 * fwhm)
        span = ((int(10 * fwhm) + bw - 1) // bw) * bw
        return build_histogram(v, bw, span, origin_ps=lo)

    def test_recovers_peak_and_width(self):
        h = self.make_hist(50_000.0, 470.0, 200_000)
        fit = gaussian_fit(h)
        assert fit.peak_ps == pytest.approx(50_000.0, abs=3.0)
        assert fit.fwhm_ps == pytest.approx(470.0, abs=5.0)
        assert fit.amplitude > 0

    def test_scale_equivariance(self):
        h = self.make_hist(10_000.0, 300.0, 50_000)
        big = Histogram(
            bin_width_ps=h.bin_width_ps,
            origin_ps=h.origin_ps,
            counts=h.counts * 1000,
            underflow=h.underflow,
            overflow=h.overflow,
        )
        f1 = gaussian_fit(h)
        f2 = gaussian_fit(big)
        assert f2.peak_ps == pytest.approx(f1.peak_ps, rel=1e-6)
        assert f2.fwhm_ps == pytest.approx(f1.fwhm_ps, rel=1e-6)
        assert f2.amplitude == pytest.approx(1000 * f1.amplitude, rel=1e-4)

    def test_noiseless_histogram_is_recovered(self):
        bw, n = 25, 200
        centers = 40_000 + bw * (np.arange(n) + 0.5)
        counts = 900.0 * np.exp(-0.5 * ((centers - 42_345.6) / 210.0) ** 2)
        fit = gaussian_fit(Histogram(bin_width_ps=bw, origin_ps=40_000, counts=counts))
        assert fit.amplitude == pytest.approx(900.0, rel=1e-9)
        assert fit.peak_ps == pytest.approx(42_345.6, rel=1e-9)
        assert fit.fwhm_ps == pytest.approx(210.0 * FWHM_PER_SIGMA, rel=1e-9)
        assert fit.residual < 1e-6

    def test_degenerate_histograms_raise(self):
        empty = Histogram(
            bin_width_ps=10, origin_ps=0, counts=np.zeros(64, dtype=np.int64)
        )
        with pytest.raises(InstrumentError):
            gaussian_fit(empty)
        spike = np.zeros(64, dtype=np.int64)
        spike[30] = 1000
        with pytest.raises(InstrumentError):
            gaussian_fit(
                Histogram(bin_width_ps=10, origin_ps=0, counts=spike)
            )


def gauss_model(x):
    def model(p):
        amp, mu, sigma = p
        z = (x - mu) / sigma
        g = np.exp(-0.5 * z * z)
        return amp * g, np.array((g, amp * g * z / sigma, amp * g * z * z / sigma))

    return model


class TestLevenbergMarquardt:
    x = np.linspace(-3.0, 5.0, 41)

    def test_noiseless_gaussian_is_recovered(self):
        truth = (250.0, 1.25, 0.8)
        y, _ = gauss_model(self.x)(truth)
        p = levenberg_marquardt(gauss_model(self.x), (180.0, 0.5, 1.5), y, 1.0 / np.maximum(y, 1.0))
        np.testing.assert_allclose(p, truth, rtol=1e-9)

    def test_noiseless_exponential_is_recovered(self):
        def model(p):
            amp, tau = p
            e = np.exp(-self.x / tau)
            return amp * e, np.array((e, amp * e * self.x / tau**2))

        y, _ = model((40.0, 2.5))
        p = levenberg_marquardt(model, (10.0, 1.0), y, 1.0 / y, lower=(0.0, 1e-3))
        np.testing.assert_allclose(p, (40.0, 2.5), rtol=1e-9)

    def test_parameter_stops_on_its_lower_bound(self):
        def model(p):
            return np.full(self.x.size, p[0]), np.ones((1, self.x.size))

        p = levenberg_marquardt(model, [3.0], np.ones(self.x.size), np.ones(self.x.size), lower=[2.0])
        assert p.tolist() == [2.0]

    def test_all_weight_on_one_bin_is_singular(self):
        y, _ = gauss_model(self.x)((250.0, 1.25, 0.8))
        weights = np.zeros(self.x.size)
        weights[20] = 1.0
        with pytest.raises(InstrumentError, match="singular"):
            levenberg_marquardt(gauss_model(self.x), (180.0, 0.5, 1.5), y, weights)

    @pytest.mark.parametrize(
        "y, weights, p0",
        [
            ([1.0, np.nan, 2.0], [1.0, 1.0, 1.0], [1.0]),
            ([1.0, 2.0, 3.0], [1.0, -1.0, 1.0], [1.0]),
            ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [np.inf]),
        ],
    )
    def test_non_finite_input_raises(self, y, weights, p0):
        def model(p):
            return np.full(3, p[0]), np.ones((1, 3))

        with pytest.raises(InstrumentError, match="finite"):
            levenberg_marquardt(model, p0, np.array(y), np.array(weights))

    def test_step_limit_raises(self, monkeypatch):
        monkeypatch.setattr(instruments, "_MAX_STEPS", 2)
        y, _ = gauss_model(self.x)((250.0, 1.25, 0.8))
        with pytest.raises(InstrumentError, match="no convergence within 2 steps"):
            levenberg_marquardt(gauss_model(self.x), (180.0, 0.5, 1.5), y, 1.0 / y)

    def test_ignored_parameter_is_singular(self):
        def model(p):
            return np.full(self.x.size, p[0]), np.array((np.ones(self.x.size), np.zeros(self.x.size)))

        with pytest.raises(InstrumentError, match="singular"):
            levenberg_marquardt(model, (3.0, 1.0), np.ones(self.x.size), np.ones(self.x.size))

    def test_non_finite_jacobian_after_a_step_is_singular(self):
        def model(p):
            jac = np.ones((1, self.x.size)) if p[0] == 3.0 else np.full((1, self.x.size), np.nan)
            return np.full(self.x.size, p[0]), jac

        with pytest.raises(InstrumentError, match="singular"):
            levenberg_marquardt(model, [3.0], np.ones(self.x.size), np.ones(self.x.size))

    def test_linear_model_matches_weighted_lstsq(self):
        basis = np.array((np.ones(self.x.size), self.x))
        # Residuals small enough that the chi2 test stops within 1e-9 of the minimum.
        y = 2.0 + 0.5 * self.x + 1e-4 * np.sin(7.0 * self.x)
        weights = 1.0 / (1.0 + self.x**2)

        def model(p):
            return p @ basis, basis

        p = levenberg_marquardt(model, (0.0, 0.0), y, weights)
        sw = np.sqrt(weights)
        expected = np.linalg.lstsq((basis * sw).T, y * sw, rcond=None)[0]
        np.testing.assert_allclose(p, expected, rtol=1e-9)
