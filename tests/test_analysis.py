import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spadsim import (
    AnalysisError,
    Histogram,
    KeyRateInputs,
    afterpulse_spectroscopy,
    autocorrelation,
    build_histogram,
    distinguishability,
    estimate_dead_time,
    heralding_efficiency,
    secret_key_rate,
    shift_and_jitter_vs_dt,
    twilight_curve,
)
from spadsim.analysis import _fit_decay


def step_histogram(onset_bin=24, n=256, bw=1000):
    """Zero below the onset, then a cleanly decaying plateau."""
    counts = np.zeros(n, dtype=np.int64)
    counts[onset_bin:] = (4000 * np.exp(-0.02 * np.arange(n - onset_bin))).astype(np.int64)
    return Histogram(bin_width_ps=bw, origin_ps=0, counts=counts)


class TestDeadTime:
    def test_clean_step_is_exact(self):
        # Half-max of the onset bin interpolates to exactly the bin edge.
        assert estimate_dead_time(step_histogram()) == 24000.0

    def test_sampled_intervals_close(self):
        g = np.random.default_rng(6)
        iv = (24000 + g.exponential(500_000, 300_000)).astype(np.int64)
        h = build_histogram(iv, 1000, 4_096_000)
        assert estimate_dead_time(h) == pytest.approx(24000.0, abs=600.0)

    def test_isolated_stray_counts_below_onset_ignored(self):
        h = step_histogram()
        counts = h.counts.copy()
        counts[7] = 50  # lone stray far below the onset
        h2 = Histogram(bin_width_ps=1000, origin_ps=0, counts=counts)
        assert estimate_dead_time(h2) == 24000.0

    def test_adjacent_single_strays_under_thin_plateau_ignored(self):
        # A plateau of about 5 counts puts 10% of it below one count; two
        # adjacent single strays must not pass for the onset.
        counts = np.zeros(4096, dtype=np.int64)
        counts[28:] = 5
        counts[19:21] = 1
        h = Histogram(bin_width_ps=1000, origin_ps=0, counts=counts)
        assert estimate_dead_time(h) == 28000.0

    def test_degenerate_inputs_raise(self):
        with pytest.raises(AnalysisError):
            estimate_dead_time(
                Histogram(bin_width_ps=1000, origin_ps=0, counts=np.zeros(64, dtype=np.int64))
            )
        with pytest.raises(AnalysisError):
            estimate_dead_time(
                Histogram(bin_width_ps=1000, origin_ps=0, counts=np.array([1, 2], dtype=np.int64))
            )


def synth_interarrivals(rng, n, tau_dead, tau_trap, p_ap, bg_mean):
    """Mixture oracle: afterpulse fraction decays with tau_trap, rest is the
    Poissonian background, both offset by the dead time."""
    is_ap = rng.random(n) < p_ap
    iv = np.where(
        is_ap, rng.exponential(tau_trap, n), rng.exponential(bg_mean, n)
    )
    return (tau_dead + iv).astype(np.int64)


class TestAfterpulseSpectroscopy:
    @pytest.mark.parametrize("tau_dead", [21_500, 29_100, 78_000])
    @pytest.mark.parametrize("tau_trap", [20_000.0, 32_000.0, 60_000.0])
    def test_round_trip_grid(self, tau_dead, tau_trap):
        g = np.random.default_rng(int(tau_dead + tau_trap))
        p_true = 0.02
        iv = synth_interarrivals(g, 400_000, tau_dead, tau_trap, p_true, 12_000_000.0)
        h = build_histogram(iv, 1000, 4_096_000)
        res = afterpulse_spectroscopy(h, float(tau_dead), tau_trap_guess_ps=32_000.0)
        assert res.tau_trap_ps == pytest.approx(tau_trap, rel=0.15)
        assert res.p_afterpulse == pytest.approx(p_true, rel=0.15)

    def test_pure_background_reports_near_zero(self):
        g = np.random.default_rng(9)
        iv = synth_interarrivals(g, 400_000, 24_000, 32_000.0, 0.0, 12_000_000.0)
        h = build_histogram(iv, 1000, 4_096_000)
        res = afterpulse_spectroscopy(h, 24_000.0)
        assert res.p_afterpulse < 0.002

    def test_noiseless_decay_is_recovered(self):
        t = 30_500.0 + 1000.0 * np.arange(150)
        y = 85.0 * np.exp(-(t - 29_100.0) / 32_000.0)
        amp, rate = _fit_decay(t, y, 1.0 / y, 29_100.0, 1.0 / 20_000.0)
        assert amp == pytest.approx(85.0, rel=1e-9)
        assert 1.0 / rate == pytest.approx(32_000.0, rel=1e-9)

    def test_negative_excess_fits_zero_amplitude(self):
        t = 30_500.0 + 1000.0 * np.arange(150)
        y = -np.exp(-(t - 29_100.0) / 32_000.0)
        assert _fit_decay(t, y, np.ones(t.size), 29_100.0, 1.0 / 20_000.0) == (0.0, 1.0 / 20_000.0)

    def test_rising_data_stop_at_zero_rate(self):
        t = 30_500.0 + 1000.0 * np.arange(150)
        y = 50.0 + 0.01 * (t - t[0]) / 1000.0
        amp, rate = _fit_decay(t, y, 1.0 / y, t[0], 1.0 / 20_000.0)
        assert rate == 0.0
        assert amp == pytest.approx(y.size / np.sum(1.0 / y))

    def test_too_little_data_raises(self):
        h = build_histogram(np.array([30_000] * 3, dtype=np.int64), 1000, 64_000)
        with pytest.raises(AnalysisError):
            afterpulse_spectroscopy(h, 24_000.0)


class TestTwilightCurve:
    def test_fully_recovered_detector_sits_at_one(self):
        c = twilight_curve([(50_000, 1000, 600, 360)])
        assert c.ratios[0] == pytest.approx(1.0)

    def test_dead_detector_is_zero(self):
        c = twilight_curve([(5_000, 1000, 600, 0)])
        assert c.ratios[0] == 0.0

    def test_no_first_detections_marks_nan(self):
        c = twilight_curve([(5_000, 1000, 0, 0)])
        assert np.isnan(c.ratios[0])

    def test_rejects_empty_slots(self):
        with pytest.raises(ValueError):
            twilight_curve([(5_000, -1, 0, 0)])

    def test_csv_layout(self):
        c = twilight_curve([(10_000, 100, 60, 20), (20_000, 100, 50, 25)])
        lines = c.to_csv().strip().split("\n")
        assert lines[0] == "x,y"
        assert lines[1].startswith("10000,")


class TestShiftJitter:
    def test_recovers_mean_and_width(self):
        g = np.random.default_rng(11)
        dt = 40_000
        iv = np.round(g.normal(dt + 300.0, 470.0 / 2.3548200450309493, 20_000)).astype(np.int64)
        curve = shift_and_jitter_vs_dt([(dt, iv)])
        assert curve.shifts[0] == pytest.approx(300.0, abs=10.0)
        assert curve.fwhms[0] == pytest.approx(470.0, abs=15.0)

    def test_width_is_stable_across_samples(self):
        # Criterion 3's sample size: 8,450 intervals of a 473.8 ps FWHM pair
        # jitter. A fit on the half-maximum bins alone scatters by 17 ps.
        fwhms = []
        for seed in range(10):
            g = np.random.default_rng(seed)
            iv = np.round(g.normal(200_000.0, 473.8 / 2.3548200450309493, 8450)).astype(np.int64)
            fwhms.append(shift_and_jitter_vs_dt([(200_000, iv)]).fwhms[0])
        assert np.all(np.abs(np.array(fwhms) - 473.8) <= 15.0), fwhms

    def test_fractional_intervals_are_refused(self):
        # Cast to int64, 1000.9 ps would read as 1000 ps: a shift of 0.
        with pytest.raises(ValueError, match="^intervals must be int64 picoseconds"):
            shift_and_jitter_vs_dt([(1000, [1000.9] * 5)], min_pairs=1)

    @pytest.mark.parametrize("min_pairs", [0, -5])
    def test_min_pairs_below_one_is_refused(self, min_pairs):
        # Checked on entry: below 1 an empty spacing would average no intervals.
        with pytest.raises(ValueError, match=rf"^min_pairs must be >= 1, got {min_pairs}$"):
            shift_and_jitter_vs_dt([(1000, np.empty(0, dtype=np.int64))], min_pairs=min_pairs)

    def test_small_points_are_nan(self):
        curve = shift_and_jitter_vs_dt([(40_000, np.array([40_100] * 10, dtype=np.int64))])
        assert np.isnan(curve.shifts[0]) and np.isnan(curve.fwhms[0])

    def test_zero_width_detector(self):
        iv = np.full(5_000, 40_250, dtype=np.int64)
        curve = shift_and_jitter_vs_dt([(40_000, iv)])
        assert curve.shifts[0] == 250.0
        assert curve.fwhms[0] == 0.0

    def test_csv_layout(self):
        iv = np.full(2_000, 40_250, dtype=np.int64)
        curve = shift_and_jitter_vs_dt([(40_000, iv)])
        assert curve.to_csv().startswith("x,y,err\n40000,")


class TestDistinguishability:
    def test_perfect_comb_is_one(self):
        t = np.arange(400, dtype=np.int64) * 1000
        h = autocorrelation(t, 50_000, 100)
        assert distinguishability(h, 1000.0) == pytest.approx(1.0)

    def test_flat_history_is_near_zero(self):
        g = np.random.default_rng(12)
        t = np.sort(g.integers(0, 10**8, 20_000)).astype(np.int64)
        h = autocorrelation(t, 50_000, 100)
        assert abs(distinguishability(h, 1000.0)) < 0.05

    def test_rejects_unresolvable_period(self):
        t = np.arange(100, dtype=np.int64) * 1000
        h = autocorrelation(t, 50_000, 600)
        with pytest.raises(AnalysisError):
            distinguishability(h, 1000.0)

    def test_rejects_empty(self):
        h = Histogram(bin_width_ps=100, origin_ps=0, counts=np.zeros(500, dtype=np.int64))
        with pytest.raises(AnalysisError):
            distinguishability(h, 1000.0)

    @pytest.mark.parametrize("period_ps", [float("nan"), float("inf"), 0.0, -1000.0])
    def test_period_outside_its_domain_is_named(self, period_ps):
        h = autocorrelation(np.arange(400, dtype=np.int64) * 1000, 50_000, 100)
        with pytest.raises(ValueError, match=r"^period_ps must be "):
            distinguishability(h, period_ps)


def _distinguishability_loop(ac, period_ps):
    """Oracle: distinguishability as a loop over periods on numpy scalars."""
    if period_ps < 2 * ac.bin_width_ps:
        raise AnalysisError("period too short")
    counts = ac.counts.astype(np.float64)
    if counts.max() <= 0:
        raise AnalysisError("autocorrelation is empty")
    above = np.nonzero(counts >= 0.2 * counts.max())[0]
    min_lag_ps = float(ac.origin_ps + int(above[0]) * ac.bin_width_ps)
    span_end = ac.origin_ps + ac.n_bins * ac.bin_width_ps
    m = max(1, math.ceil(min_lag_ps / period_ps))
    peaks = []
    valleys = []
    while True:
        valley_lag = (m + 0.5) * period_ps
        if valley_lag >= span_end:
            break
        peak_bin = int((m * period_ps - ac.origin_ps) // ac.bin_width_ps)
        valley_bin = int((valley_lag - ac.origin_ps) // ac.bin_width_ps)
        peaks.append(counts[peak_bin])
        valleys.append(counts[valley_bin])
        m += 1
    if not peaks:
        raise AnalysisError("no full period")
    p_mean = float(np.mean(peaks))
    v_mean = float(np.mean(valleys))
    if p_mean + v_mean == 0.0:
        raise AnalysisError("peak and valley bins are all empty")
    return (p_mean - v_mean) / (p_mean + v_mean)


def _outcome(f, *args):
    try:
        return f(*args)
    except (AnalysisError, IndexError) as exc:
        return type(exc)


@st.composite
def periodic_histograms(draw):
    """A histogram and a period. Half the draws put the span end
    exactly on a valley lag, (m + 0.5) * period == span_end."""
    bw = draw(st.integers(min_value=1, max_value=200))
    if draw(st.booleans()):
        half = draw(st.integers(min_value=bw, max_value=20 * bw))
        odd = 2 * draw(st.integers(min_value=1, max_value=30)) + 1
        n_bins = draw(st.integers(min_value=1, max_value=600))
        origin = odd * half - n_bins * bw
        period = 2 * half if draw(st.booleans()) else float(2 * half)
    else:
        n_bins = draw(st.integers(min_value=1, max_value=600))
        origin = draw(st.integers(min_value=-20 * bw, max_value=20 * bw))
        period = draw(
            st.one_of(
                st.integers(min_value=2 * bw, max_value=100 * bw),
                st.floats(min_value=2.0 * bw, max_value=100.0 * bw, allow_nan=False),
            )
        )
    counts = draw(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=n_bins, max_size=n_bins)
    )
    h = Histogram(bin_width_ps=bw, origin_ps=origin, counts=np.array(counts, dtype=np.int64))
    return h, period


@settings(deadline=None, max_examples=400)
@given(case=periodic_histograms())
@example(
    case=(
        Histogram(bin_width_ps=100, origin_ps=0, counts=np.arange(35, dtype=np.int64)),
        1000.0,
    )
)
def test_distinguishability_matches_period_loop(case):
    h, period = case
    got = _outcome(distinguishability, h, period)
    want = _outcome(_distinguishability_loop, h, period)
    if isinstance(want, float):
        assert isinstance(got, float) and got == want
    else:
        assert got is want


class TestKeyRate:
    def test_hand_example(self):
        k = KeyRateInputs(m_channels=1, eta=0.1, n_mean=0.001, xi=8.0, bin_width_ps=260.0)
        assert secret_key_rate(k) == pytest.approx(3.0769230769e5, rel=1e-9)

    def test_unit_inputs_give_one_bit_per_second(self):
        k = KeyRateInputs(m_channels=1, eta=1.0, n_mean=1.0, xi=1.0, bin_width_ps=1e12)
        assert secret_key_rate(k) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            secret_key_rate(KeyRateInputs(1, 1.5, 1.0, 1.0, 100.0))
        with pytest.raises(ValueError):
            secret_key_rate(KeyRateInputs(1, 0.5, -1.0, 1.0, 100.0))
        with pytest.raises(ValueError):
            secret_key_rate(KeyRateInputs(1, 0.5, 1.0, 1.0, 0.0))


class TestHeralding:
    def test_basic_ratio(self):
        assert heralding_efficiency(5, 10, 10) == 0.25

    def test_lossless_cap(self):
        assert heralding_efficiency(10, 10, 10) == 0.5

    def test_zero_singles_raises(self):
        with pytest.raises(AnalysisError):
            heralding_efficiency(0, 0, 0)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            heralding_efficiency(-1, 5, 5)
