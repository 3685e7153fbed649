import math

import numpy as np
import pytest
from conftest import as_json, inline_detector

from spadsim import (
    available_presets,
    circuit_timing,
    preset,
)
from spadsim.presets import TAU_RECOVERY_PS


def curve_value(curve, x):
    xs = np.array([p[0] for p in curve])
    ys = np.array([p[1] for p in curve])
    return float(np.interp(x, xs, ys))


def test_available_names():
    assert available_presets() == ("spcm-aqrh", "spd-050", "custom-aq")


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="spcm-aqrh"):
        preset("nope")
    with pytest.raises(ValueError):
        preset("spd-050", variant="fancy")
    with pytest.raises(ValueError, match="^preset 'custom-aq' has no variants, got 'ttl'$"):
        preset("custom-aq", variant="ttl")


def test_all_presets_validate_and_round_trip():
    for name in available_presets():
        p = preset(name).params
        assert inline_detector(as_json(p)) == p


class TestSpcm:
    def test_anchor_values(self):
        p = preset("spcm-aqrh").params
        assert p.tau_dead0_ps == 29100
        assert p.efficiency == 0.65
        assert p.dark_rate_cps == 726.0
        assert p.blanking is None
        assert curve_value(p.jitter_curve, 30_000) == pytest.approx(608.0)
        assert p.jitter_curve[-1] == (120_000, 335.0)
        assert curve_value(p.shift_curve, 30_000) == pytest.approx(855.0)
        assert p.shift_curve[-1][1] == 0.0

    def test_shift_relaxes_below_100ps_past_50ns(self):
        p = preset("spcm-aqrh").params
        assert curve_value(p.shift_curve, 50_000) == 100.0
        for dt in range(50_001, 200_000, 37):
            assert curve_value(p.shift_curve, dt) < 100.0

    def test_afterpulse_calibration(self):
        ap = preset("spcm-aqrh").params.afterpulse
        assert ap.tau_trap_ps == 32_000.0
        assert ap.mu == pytest.approx(0.0068 * math.exp(29_100 / 32_000))

    def test_twilight_spans_quench_to_dead(self):
        p = preset("spcm-aqrh").params
        assert p.twilight_profile[0] == (10_000.0, 0.0)
        assert p.twilight_profile[-1] == (29_100.0, 1.0)


class TestSpd:
    def test_variants(self):
        t = preset("spd-050", variant="timing").params
        l = preset("spd-050", variant="ttl").params
        assert t.tau_dead0_ps == 74_500
        assert l.tau_dead0_ps == 78_000
        assert t.twilight_profile[0][0] == 72_500.0
        assert l.twilight_profile[0][0] == 70_000.0
        assert t.efficiency == 0.33

    def test_low_jitter(self):
        p = preset("spd-050").params
        assert p.jitter_curve[-1][1] == 35.0
        assert curve_value(p.jitter_curve, 75_000) == pytest.approx(50.0)
        assert p.shift_curve == ((0, 0.0),)


class TestCustom:
    def test_derived_from_loop_delays(self):
        p = preset("custom-aq").params
        qt = circuit_timing(6000, 4500, 500)
        assert p.tau_dead0_ps == qt.tau_dead_ps == 21_500
        assert p.tau_quench_ps == qt.twilight_start_ps == 16_000
        assert p.twilight_profile == ((16_000.0, 0.0), (21_500.0, 1.0))

    def test_blanking_and_elongation(self):
        p = preset("custom-aq").params
        assert p.blanking is not None
        assert p.blanking.t_b_ps == 24_000
        assert p.dead_elongation[-1] == (30_000_000.0, 2000.0)

    def test_afterpulse_from_series_resistance(self):
        ap = preset("custom-aq").params.afterpulse
        assert ap.mu == pytest.approx(0.032 * math.exp(21_500 / 32_000))


def test_recovery_constant_pins_spcm_shift():
    # 855 * exp(-20 ns / tau) = 100 defines the shared relaxation constant.
    assert 855.0 * math.exp(-20_000.0 / TAU_RECOVERY_PS) == pytest.approx(100.0, rel=1e-12)
