import numpy as np
import pytest

from spadsim import (
    AfterpulseModel,
    AnalysisError,
    DetectorParams,
    EntangledPairConfig,
    FrameConfig,
    bin_assign,
    correlator_grids,
    preset,
    raw_key_rate,
    run_qkd_scenario,
)


def ideal_detector(
    *, tau_dead_ps: int = 100, efficiency: float = 1.0, jitter_fwhm_ps: float = 0.0
) -> DetectorParams:
    quench = tau_dead_ps // 2
    return DetectorParams(
        efficiency=efficiency,
        tau_dead0_ps=tau_dead_ps,
        tau_quench_ps=quench,
        base_delay_ps=9_000,
        dark_rate_cps=0.0,
        dead_elongation=(),
        twilight_profile=((float(quench), 0.0), (float(tau_dead_ps), 1.0)),
        jitter_curve=((0.0, jitter_fwhm_ps),),
        shift_curve=((0.0, 0.0),),
        afterpulse=AfterpulseModel(mu=0.0, tau_trap_ps=32_000.0),
    )


def source(mean: float, duration_ps: int) -> EntangledPairConfig:
    return EntangledPairConfig(
        rep_rate_hz=1.0e9, mean_pairs_per_pulse=mean, duration_ps=duration_ps
    )


FRAME = FrameConfig(bin_width_ps=1000, bins_per_frame=1024)


class TestFrameConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="power of two"):
            FrameConfig(bin_width_ps=260, bins_per_frame=1000)
        with pytest.raises(ValueError, match="power of two"):
            FrameConfig(bin_width_ps=260, bins_per_frame=1)
        with pytest.raises(ValueError, match="bin_width_ps"):
            FrameConfig(bin_width_ps=0)

    def test_derived_quantities(self):
        f = FrameConfig(bin_width_ps=260, bins_per_frame=1024)
        assert f.frame_length_ps == 266_240


class TestBinAssign:
    def test_scalar_examples(self):
        f = FrameConfig(bin_width_ps=260, bins_per_frame=1024)
        assert bin_assign(0, f) == (0, 0)
        assert bin_assign(266_239, f) == (0, 1023)
        assert bin_assign(266_240, f) == (1, 0)

    def test_array_input_recomposes(self):
        f = FrameConfig(bin_width_ps=260, bins_per_frame=1024)
        t = np.array([0, 259, 260, 266_239, 266_240, 10_000_000], dtype=np.int64)
        frame, b = bin_assign(t, f)
        start = frame * f.frame_length_ps + b * f.bin_width_ps
        assert np.all(start <= t) and np.all(t < start + f.bin_width_ps)


class TestRawKeyRate:
    def test_log2_bins(self):
        assert raw_key_rate(100.0, 1024) == pytest.approx(1000.0)
        assert raw_key_rate(0.0, 2) == 0.0

    def test_rejects_degenerate_alphabet(self):
        with pytest.raises(ValueError):
            raw_key_rate(100.0, 1)


class TestCorrelatorGrids:
    def test_defaults_and_rounding(self):
        f = FrameConfig(bin_width_ps=521)
        assert correlator_grids(f) == (65, 80_015, 130, 100_100)
        assert correlator_grids(FrameConfig(bin_width_ps=3)) == (1, 80_000, 1, 100_000)
        grids = correlator_grids(f, ac_bin_width_ps=300, ac_span_ps=900, cc_span_ps=130)
        assert grids == (300, 900, 130, 130)

    def test_span_rounded_past_int64_is_rejected(self):
        f = FrameConfig(bin_width_ps=521)
        with pytest.raises(ValueError, match=r"^cc_span_ps rounded up to whole 130 ps bins"):
            correlator_grids(f, cc_span_ps=2**63 - 1)
        with pytest.raises(ValueError, match=r"^ac_span_ps rounded up to whole 11 ps bins"):
            correlator_grids(f, ac_bin_width_ps=11, ac_span_ps=2**63 - 1)
        assert correlator_grids(f, cc_bin_width_ps=1, cc_span_ps=2**63 - 1)[3] == 2**63 - 1


class TestScenario:
    def test_rejects_source_frame_mismatch(self):
        bad = EntangledPairConfig(
            rep_rate_hz=1.2e9, mean_pairs_per_pulse=0.001, duration_ps=1_000_000
        )
        with pytest.raises(ValueError, match=r"^rep_rate_hz 1\.2e\+09 does not match the 1000 ps"):
            run_qkd_scenario(bad, ideal_detector(), ideal_detector(), FRAME, seed=1)

    def test_span_past_int64_rejected_before_detecting(self, monkeypatch):
        def no_detect(*args):
            raise AssertionError("detected before checking the grids")

        monkeypatch.setattr("spadsim.qkd.detect", no_detect)
        with pytest.raises(ValueError, match=r"^cc_span_ps rounded up"):
            run_qkd_scenario(
                source(1e-3, 1_000_000), ideal_detector(), ideal_detector(), FRAME, seed=1,
                cc_span_ps=2**63 - 1,
            )

    def test_ideal_detectors_error_free(self):
        rep = run_qkd_scenario(
            source(2e-4, 1_000_000_000), ideal_detector(), ideal_detector(), FRAME, seed=5
        )
        assert rep.n_coincidences > 100
        assert rep.ber == 0.0
        assert rep.heralding == pytest.approx(0.5)
        assert rep.singles_a == rep.singles_b == rep.n_coincidences
        assert rep.n_truth_coincidences == rep.n_coincidences
        assert rep.raw_key_rate_bits_per_s == pytest.approx(rep.coincidence_rate_cps * 10.0)

    def test_report_serializes_without_histogram(self):
        rep = run_qkd_scenario(
            source(2e-4, 200_000_000), ideal_detector(), ideal_detector(), FRAME, seed=5
        )
        d = rep.to_json_dict()
        assert "crosscorr" not in d
        assert d["n_coincidences"] == rep.n_coincidences
        assert all(isinstance(k, str) for k in d)

    def test_same_seed_reproduces(self):
        def go():
            return run_qkd_scenario(
                source(1e-3, 100_000_000),
                ideal_detector(jitter_fwhm_ps=400.0),
                ideal_detector(tau_dead_ps=50_000),
                FRAME,
                seed=77,
            )

        a, b = go(), go()
        assert a.to_json_dict() == b.to_json_dict()
        assert np.array_equal(a.crosscorr.counts, b.crosscorr.counts)

    def test_multi_pair_pulses_score_pair_mismatches(self):
        # Half a pair per pulse on the 1 ns comb puts several photons on one
        # picosecond; a pulse's pair is the one of the photon that fired it,
        # not the first arrival at its timestamp, so Alice and Bob often
        # click on members of different pairs of the same pulse.
        det = DetectorParams(efficiency=0.5, tau_dead0_ps=1000, tau_quench_ps=1000)
        rep = run_qkd_scenario(source(0.5, 20_000_000), det, det, FRAME, seed=3)
        assert rep.n_coincidences > 1000
        assert rep.ber > 0.0
        assert rep.n_truth_coincidences < rep.n_coincidences

    def test_truth_coincidences_are_matched_coincidences(self):
        # spcm-aqrh arms detect many pairs in both arms that the matcher
        # pairs with other pulses; only matched same-pair coincidences count.
        link = EntangledPairConfig(
            rep_rate_hz=1.92e9, mean_pairs_per_pulse=0.008, duration_ps=500_000_000
        )
        det = preset("spcm-aqrh").params
        rep = run_qkd_scenario(link, det, det, FrameConfig(bin_width_ps=521), seed=1)
        assert rep.n_coincidences > 1000
        assert 0 < rep.n_truth_coincidences <= rep.n_coincidences

    def test_dark_only_arm_raises_analysis_error(self):
        # Alice sees only a few darks: every pulse has arrival_index -1 over
        # an empty pair-id array, and her empty autocorrelation is reported.
        det = DetectorParams(
            efficiency=0.5, tau_dead0_ps=1000, tau_quench_ps=1000, dark_rate_cps=1e5
        )
        src = EntangledPairConfig(
            rep_rate_hz=1.0e9, mean_pairs_per_pulse=0.01, duration_ps=100_000_000, eta_alice=0.0
        )
        with pytest.raises(AnalysisError, match="autocorrelation is empty"):
            run_qkd_scenario(src, det, det, FRAME, seed=1)

    def test_ber_grows_with_timing_jitter(self):
        bers = []
        for fwhm in (0.0, 400.0, 900.0, 2000.0):
            det = ideal_detector(jitter_fwhm_ps=fwhm)
            rep = run_qkd_scenario(source(2e-3, 1_000_000_000), det, det, FRAME, seed=9)
            assert rep.n_coincidences > 200
            bers.append(rep.ber)
        assert bers[0] == 0.0
        assert all(a < b for a, b in zip(bers, bers[1:]))

    def test_heralding_drops_with_dead_time(self):
        hs = []
        for dead in (100, 20_000, 40_000, 70_000):
            det = ideal_detector(tau_dead_ps=dead, efficiency=0.5)
            rep = run_qkd_scenario(source(2e-3, 4_000_000_000), det, det, FRAME, seed=13)
            assert 0.0 <= rep.heralding <= 0.5
            hs.append(rep.heralding)
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert hs[0] == pytest.approx(0.25, abs=0.02)
