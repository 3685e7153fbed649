from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from conftest import as_json, inline_detector
from scipy import stats

from spadsim import (
    AfterpulseModel,
    BlankingConfig,
    Cause,
    DetectorParams,
    afterpulse_prob_vs_rs,
    blanking_filter,
    calibrate_afterpulse_mu,
    circuit_timing,
    detect,
    detect_reference,
    effective_dead_time,
    make_generator,
    poisson_times,
    preset,
    twilight_sensitivity,
)
from spadsim import detector
from spadsim.detector import _interp_clamped, _interp_clamped_array

SECOND_PS = 1_000_000_000_000


def plain_params(**kw):
    base = dict(efficiency=1.0, tau_dead0_ps=24000, tau_quench_ps=10000)
    base.update(kw)
    return DetectorParams(**base)


class TestCircuitTiming:
    def test_reference_values_exact(self):
        qt = circuit_timing(6000, 4500, 500)
        assert (qt.tau_twilight_ps, qt.tau_quench_ps, qt.tau_dead_ps) == (5500, 10500, 21500)

    def test_twilight_start(self):
        qt = circuit_timing(6000, 4500, 500)
        assert qt.twilight_start_ps == 21500 - 5500

    def test_rejects_bad_delays(self):
        with pytest.raises(ValueError):
            circuit_timing(-1, 4500, 500)
        with pytest.raises(ValueError):
            circuit_timing(400, 4500, 500)  # twilight would be negative


class TestParamValidation:
    def test_round_trip_dict(self):
        p = plain_params(
            dark_rate_cps=100.0,
            dead_elongation=((0.0, 0.0), (1e7, 1000.0)),
            twilight_profile=((10000.0, 0.0), (24000.0, 1.0)),
            jitter_curve=((30000.0, 600.0), (120000.0, 300.0)),
            shift_curve=((30000.0, 800.0), (120000.0, 0.0)),
            afterpulse=AfterpulseModel(mu=0.02, tau_trap_ps=32000.0),
            blanking=BlankingConfig(t_b_ps=24000),
        )
        assert inline_detector(as_json(p)) == p

    @pytest.mark.parametrize(
        "kw",
        [
            dict(efficiency=1.5),
            dict(efficiency=-0.1),
            dict(tau_dead0_ps=0),
            dict(tau_quench_ps=30000),
            dict(tau_quench_ps=-1),
            dict(jitter_curve=((0.0, -5.0),)),
            dict(jitter_curve=((10.0, 5.0), (10.0, 6.0))),
            dict(shift_curve=((0.0, 3.0),)),  # last knot must relax to zero
            dict(twilight_profile=((10000.0, 0.2), (24000.0, 1.0))),
            dict(twilight_profile=((10000.0, 0.0), (24000.0, 0.9))),
            dict(twilight_profile=((10000.0, 0.0), (20000.0, 0.5), (18000.0, 1.0))),
            dict(twilight_profile=((5000.0, 0.0), (24000.0, 1.0))),  # starts inside quench
            dict(dead_elongation=((0.0, 0.0), (1e7, -10.0))),
        ],
    )
    def test_validate_rejects(self, kw):
        with pytest.raises(ValueError):
            plain_params(**kw)

    def test_curves_are_converted_once_when_built(self, monkeypatch):
        # custom-aq has all four curves: an elongated dead time, a twilight
        # profile, and rate-dependent jitter and shift.
        p = preset("custom-aq").params

        def convert_again(curve, name):
            raise AssertionError(f"{name} was converted after the params were built")

        monkeypatch.setattr(detector, "_curve_arrays", convert_again)
        arrivals = poisson_times(make_generator(4, "source"), 40e6, 200_000_000)
        got = detect(arrivals, p, make_generator(4, "detector"), 200_000_000)
        want = detect_reference(arrivals, p, make_generator(4, "detector"), 200_000_000)
        assert len(got) > 1000
        assert np.array_equal(got.out_times, want.out_times)
        assert effective_dead_time(30e6, p) == 23500.0
        assert twilight_sensitivity(18750, p) == pytest.approx(0.5)
        monkeypatch.undo()
        # The tables are no field: equality, hashing and asdict see the curves
        # alone, and replace builds the new object's tables.
        assert list(asdict(p)) == [f.name for f in fields(DetectorParams)]
        assert replace(p) == p and hash(replace(p)) == hash(p)
        longer = replace(p, dead_elongation=((0.0, 0.0), (30e6, 4000.0)))
        assert effective_dead_time(30e6, longer) == 25500.0


class TestHelpers:
    def test_calibrate_afterpulse_mu(self):
        assert calibrate_afterpulse_mu(0.0068, 32000.0, 29100.0) == pytest.approx(
            0.0068 * np.exp(29100.0 / 32000.0)
        )
        assert calibrate_afterpulse_mu(0.01, 50000.0, 0.0) == pytest.approx(0.01)
        with pytest.raises(ValueError):
            calibrate_afterpulse_mu(1.2, 32000.0, 29100.0)
        with pytest.raises(ValueError):
            calibrate_afterpulse_mu(0.01, 0.0, 29100.0)

    def test_afterpulse_prob_vs_rs(self):
        assert afterpulse_prob_vs_rs(500.0) == pytest.approx(0.055)
        assert afterpulse_prob_vs_rs(800.0) == pytest.approx(0.055)
        assert afterpulse_prob_vs_rs(3300.0) == pytest.approx(0.032)
        mid = afterpulse_prob_vs_rs(2050.0)
        assert 0.032 < mid < 0.055
        assert afterpulse_prob_vs_rs(50000.0) == pytest.approx(0.027, abs=0.001)
        with pytest.raises(ValueError):
            afterpulse_prob_vs_rs(-1.0)

    def test_effective_dead_time_table(self):
        p = plain_params(tau_dead0_ps=21500, dead_elongation=((0.0, 0.0), (30e6, 2000.0)))
        assert effective_dead_time(0.0, p) == 21500.0
        assert effective_dead_time(30e6, p) == 23500.0
        assert effective_dead_time(15e6, p) == pytest.approx(22500.0)
        assert effective_dead_time(1e9, p) == 23500.0  # clamped beyond the table
        pn = plain_params()
        assert effective_dead_time(5e6, pn) == 24000.0

    def test_twilight_sensitivity(self):
        p = plain_params(twilight_profile=((10000.0, 0.0), (24000.0, 1.0)))
        assert twilight_sensitivity(5000, p) == 0.0
        assert twilight_sensitivity(10000, p) == 0.0
        assert twilight_sensitivity(17000, p) == pytest.approx(0.5)
        assert twilight_sensitivity(24000, p) == 1.0
        assert twilight_sensitivity(50000, p) == 1.0
        assert twilight_sensitivity(17000, plain_params()) == 0.0


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestInterpClampedArray:
    # A shared grid of uneven knots with two value tables, and unshared
    # grids of one, two and several knots, one table each.
    SHARED = (
        [20000.0, 25000.0, 40000.0, 75000.0, 1.0e6],
        ([855.0, 603.7, 151.3, 33.1, 0.0], [608.0, 560.5, 421.9, 335.3, 335.0]),
    )
    UNSHARED = (
        ([0.0], ([0.0],)),
        ([30000.0, 120000.0], ([600.0, 300.0],)),
        ([1.0, 3.0, 7.0, 15.0], ([0.1, 0.7, 0.3, 1.0 / 3.0],)),
    )

    @staticmethod
    def probes(xs):
        """Below, at and above both end knots, on every knot and between knots."""
        xs = np.asarray(xs)
        mids = (xs[:-1] + xs[1:]) / 2.0
        thirds = xs[:-1] + (xs[1:] - xs[:-1]) / 3.0
        ends = [xs[0] - 1.0, xs[0], xs[-1], xs[-1] + 1.0, -(2.0**62), 2.0**62]
        return np.concatenate((ends, xs, mids, thirds, np.nextafter(xs, np.inf)))

    @pytest.mark.parametrize("grid", (SHARED,) + UNSHARED)
    def test_each_table_equals_the_scalar_interpolation(self, grid):
        xs, tables = grid
        x = self.probes(xs)
        out = _interp_clamped_array(x, xs, *tables)
        assert len(out) == len(tables)
        for ys, y in zip(tables, out):
            assert _bits(y) == _bits([_interp_clamped(float(v), xs, ys) for v in x])
            # One table alone reads the same bits as alongside the others.
            assert _bits(_interp_clamped_array(x, xs, ys)[0]) == _bits(y)

    def test_empty_input(self):
        xs, tables = self.SHARED
        out = _interp_clamped_array(np.array([], dtype=np.float64), xs, *tables)
        assert [y.shape for y in out] == [(0,), (0,)]


class TestBlankingFilter:
    def test_simple_trace(self):
        t = np.array([0, 10000, 30000, 53000, 77000], dtype=np.int64)
        assert blanking_filter(t, 24000).tolist() == [0, 30000, 77000]

    def test_non_retriggerable(self):
        # 20k is suppressed but must not restart the hold-off: 40k passes.
        t = np.array([0, 20000, 40000], dtype=np.int64)
        assert blanking_filter(t, 24000).tolist() == [0, 40000]

    def test_boundary_gap_passes(self):
        t = np.array([0, 24000], dtype=np.int64)
        assert blanking_filter(t, 24000).tolist() == [0, 24000]

    def test_validation(self):
        with pytest.raises(ValueError):
            blanking_filter(np.array([5, 1], dtype=np.int64), 24000)
        with pytest.raises(ValueError):
            blanking_filter(np.array([1, 5], dtype=np.int64), 0)


class TestDetect:
    def test_dead_time_gap_law(self):
        p = plain_params()
        rate = 2e6
        arr = poisson_times(make_generator(11, "source"), rate, SECOND_PS // 2)
        rec = detect(arr, p, make_generator(11, "detector"), SECOND_PS // 2)
        gaps = np.diff(rec.out_times)
        assert gaps.min() >= 24000
        # Non-paralyzable rate: r = lambda / (1 + lambda * tau)
        lam = arr.size / (SECOND_PS / 2 * 1e-12)
        expect = lam / (1.0 + lam * 24000e-12)
        got = len(rec) / (SECOND_PS / 2 * 1e-12)
        assert got == pytest.approx(expect, rel=0.02)
        # Beyond the dead time the process is memoryless again.
        excess = (gaps - 24000).astype(np.float64)
        ks = stats.kstest(excess, "expon", args=(0, excess.mean()))
        assert ks.pvalue > 1e-3
        assert np.all(rec.causes == int(Cause.PHOTON))

    def test_all_covering_cause_split(self):
        p = plain_params(
            efficiency=0.5,
            dark_rate_cps=50000.0,
            twilight_profile=((10000.0, 0.0), (24000.0, 1.0)),
            afterpulse=AfterpulseModel(mu=0.3, tau_trap_ps=32000.0),
        )
        arr = poisson_times(make_generator(12, "source"), 3e6, SECOND_PS // 10)
        rec = detect(arr, p, make_generator(12, "detector"), SECOND_PS // 10)
        present = set(np.unique(rec.causes).tolist())
        assert present == {0, 1, 2, 3}
        assert np.all(np.diff(rec.out_times) >= 0)
        assert np.all(rec.out_times >= rec.origin_times)

    def test_base_delay_exact_when_noiseless(self):
        p = plain_params(base_delay_ps=9000)
        arr = np.array([0, 100000, 200000], dtype=np.int64)
        rec = detect(arr, p, make_generator(1, "detector"), 300000)
        assert rec.out_times.tolist() == [9000, 109000, 209000]
        assert rec.origin_times.tolist() == [0, 100000, 200000]

    def test_arrival_index_names_the_triggering_photon(self):
        # Photons sharing a picosecond: the first triggers, the rest fall in
        # the quench phase; the index names the photon, not the timestamp.
        p = plain_params()
        arr = np.array([0, 0, 0, 100000, 100000], dtype=np.int64)
        rec = detect(arr, p, make_generator(1, "detector"), 200000)
        assert rec.arrival_index.tolist() == [0, 3]
        p = plain_params(dark_rate_cps=1e8)
        darks = detect(arr[:0], p, make_generator(1, "detector"), 200000)
        assert len(darks) > 0 and np.all(darks.arrival_index == -1)

    def test_efficiency_thins_detections(self):
        p = plain_params(efficiency=0.25, tau_dead0_ps=100, tau_quench_ps=50)
        arr = poisson_times(make_generator(13, "source"), 1e6, SECOND_PS // 10)
        rec = detect(arr, p, make_generator(13, "detector"), SECOND_PS // 10)
        assert abs(len(rec) - 0.25 * arr.size) < 5 * np.sqrt(0.25 * arr.size)

    def test_dark_only_rate(self):
        p = plain_params(dark_rate_cps=700.0)
        rec = detect(
            np.array([], dtype=np.int64), p, make_generator(14, "detector"), 2 * SECOND_PS
        )
        assert abs(len(rec) - 1400) < 5 * np.sqrt(1400)
        assert np.all(rec.causes == int(Cause.DARK))

    def test_twilight_pulse_lands_at_dead_end(self):
        p = plain_params(
            base_delay_ps=9000, twilight_profile=((10000.0, 0.0), (24000.0, 1.0))
        )
        # Second photon 20 ns after the first: inside the twilight zone with
        # sensitivity (20-10)/14 = 0.714, so scan seeds until it triggers.
        arr = np.array([0, 20000], dtype=np.int64)
        seen = 0
        for seed in range(40):
            rec = detect(arr, p, make_generator(seed, "detector"), 200000)
            tw = rec.out_times[rec.causes == Cause.TWILIGHT]
            if len(tw):
                seen += 1
                assert tw.tolist() == [24000 + 9000]
                mask = rec.causes == int(Cause.TWILIGHT)
                assert rec.origin_times[mask].tolist() == [20000]
        assert seen > 5

    def test_afterpulse_fraction_tracks_calibration(self):
        target = 0.05
        mu = calibrate_afterpulse_mu(target, 32000.0, 24000.0)
        p = plain_params(afterpulse=AfterpulseModel(mu=mu, tau_trap_ps=32000.0))
        arr = poisson_times(make_generator(15, "source"), 2e4, 5 * SECOND_PS)
        rec = detect(arr, p, make_generator(15, "detector"), 5 * SECOND_PS)
        n_ap = len(rec.out_times[rec.causes == Cause.AFTERPULSE])
        n_ph = len(rec.out_times[rec.causes == Cause.PHOTON])
        # Each photon pulse spawns afterpulses (and afterpulses of those).
        chain = target / (1.0 - target)
        assert n_ap / n_ph == pytest.approx(chain, rel=0.15)

    def test_blanking_applied_to_output(self):
        p = plain_params(
            tau_dead0_ps=21500,
            tau_quench_ps=10000,
            blanking=BlankingConfig(t_b_ps=24000),
        )
        arr = poisson_times(make_generator(17, "source"), 5e6, SECOND_PS // 20)
        rec = detect(arr, p, make_generator(17, "detector"), SECOND_PS // 20)
        assert np.diff(rec.out_times).min() >= 24000
        un = detect(arr, replace(p, blanking=None), make_generator(17, "detector"), SECOND_PS // 20)
        assert len(un) > len(rec)
        assert np.diff(un.out_times).min() < 24000

    def test_rejects_unsorted_or_negative_arrivals(self):
        p = plain_params()
        g = make_generator(1, "detector")
        with pytest.raises(ValueError):
            detect(np.array([5, 1], dtype=np.int64), p, g, 1000)
        with pytest.raises(ValueError):
            detect(np.array([-5], dtype=np.int64), p, g, 1000)
        with pytest.raises(ValueError):
            detect(np.array([], dtype=np.int64), p, g, 0)

    def test_identical_seeds_identical_records(self):
        p = plain_params(
            efficiency=0.6,
            dark_rate_cps=1000.0,
            jitter_curve=((30000.0, 600.0), (120000.0, 300.0)),
            afterpulse=AfterpulseModel(mu=0.05, tau_trap_ps=32000.0),
        )
        arr = poisson_times(make_generator(18, "source"), 1e6, SECOND_PS // 20)
        a = detect(arr, p, make_generator(18, "detector"), SECOND_PS // 20)
        b = detect(arr, p, make_generator(18, "detector"), SECOND_PS // 20)
        assert np.array_equal(a.out_times, b.out_times)
        assert np.array_equal(a.origin_times, b.origin_times)
        assert np.array_equal(a.causes, b.causes)
