"""Calibrated detector presets.

Three detectors ship ready to simulate:

  spcm-aqrh   thick-junction commercial module: 29.1 ns dead time, strong
              twilighting across most of the dead period, jitter degrading
              335 -> 608 ps FWHM and delay shifting up to 855 ps at high
              rate, 0.68% afterpulsing with a 32 ns trap lifetime.
  spd-050     slow commercial module: 74.5 ns (timing output) or 78.0 ns
              (TTL output) dead time, short twilight zone, 33% efficiency,
              low jitter (35-50 ps), < 0.5% afterpulsing.
  custom-aq   fast actively-quenched design: 21.5 ns nominal dead time
              elongating to 23.5 ns at 30 Mcps, 24 ns non-retriggerable
              blanking with 12 ns output pulses, twilight window under
              1.5 ns after blanking, jitter 164 -> 233 ps, delay shift
              up to 26 ps.

Table entries between measured endpoints are interpolated with a common
exponential recovery constant; the notes dict of each preset says which
entries are measured values and which are representative fill-ins.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

from .detector import (
    AfterpulseModel,
    BlankingConfig,
    DetectorParams,
    afterpulse_prob_vs_rs,
    calibrate_afterpulse_mu,
    circuit_timing,
)

__all__ = ["DetectorPreset", "preset", "available_presets"]

# Common recovery constant of the post-dead-time relaxation, chosen so the
# spcm-aqrh delay shift decays from its 855 ps peak through 100 ps at a
# 50 ns pulse spacing.
TAU_RECOVERY_PS = 20000.0 / math.log(8.55)


@dataclass(frozen=True)
class DetectorPreset:
    """Named parameter set plus per-entry provenance notes."""

    name: str
    params: DetectorParams
    notes: dict


def _recovery_curve(
    knots_ps: tuple, floor: float, amplitude: float, *, final: float | None = None
) -> tuple:
    """Exponential relaxation floor + amplitude*exp(-(dt-dt0)/tau) on a knot grid.

    The last knot is pinned to `final` (default: the floor) so clamped
    extrapolation holds the fully relaxed value exactly.
    """
    dt0 = knots_ps[0]
    ys = [floor + amplitude * math.exp(-(dt - dt0) / TAU_RECOVERY_PS) for dt in knots_ps]
    ys[-1] = floor if final is None else final
    return tuple(zip(knots_ps, ys))


_SPCM_GRID = (30000, 34000, 38000, 42000, 46000, 50000, 60000, 80000, 120000)
_CUSTOM_GRID = tuple(range(24000, 124000, 4000))
_SPD_GRID = (75000, 80000, 90000, 110000, 160000)


def _force_knot(curve: tuple, x: float, y: float) -> tuple:
    return tuple((px, y if px == x else py) for px, py in curve)


def _spcm_aqrh() -> DetectorPreset:
    tau_dead = 29100
    jitter = _recovery_curve(_SPCM_GRID, 335.0, 273.0)
    shift = _recovery_curve(_SPCM_GRID, 0.0, 855.0, final=0.0)
    shift = _force_knot(shift, 50000, 100.0)
    params = DetectorParams(
        efficiency=0.65,
        tau_dead0_ps=tau_dead,
        tau_quench_ps=10000,
        base_delay_ps=9000,
        dark_rate_cps=726.0,
        dead_elongation=(),
        twilight_profile=((10000.0, 0.0), (float(tau_dead), 1.0)),
        jitter_curve=jitter,
        shift_curve=shift,
        afterpulse=AfterpulseModel(
            mu=calibrate_afterpulse_mu(0.0068, 32000.0, tau_dead), tau_trap_ps=32000.0
        ),
        blanking=None,
    )
    notes = {
        "efficiency": "measured (approximate figure)",
        "tau_dead0_ps": "measured",
        "dark_rate_cps": "measured",
        "afterpulse": "mu calibrated to the measured 0.68% observed fraction at the 32 ns trap lifetime",
        "jitter_curve": "endpoints measured (335 and 608 ps FWHM); interior interpolated",
        "shift_curve": "peak (855 ps) and 100 ps crossing at 50 ns measured; interior interpolated",
        "twilight_profile": "ramp representative; only the endpoint at the dead time is pinned",
        "tau_quench_ps": "representative, not directly measured",
        "base_delay_ps": "representative, not directly measured",
    }
    return DetectorPreset(name="spcm-aqrh", params=params, notes=notes)


def _spd_050(variant: str = "timing") -> DetectorPreset:
    if variant == "timing":
        tau_dead = 74500
        tw = ((72500.0, 0.0), (74500.0, 1.0))
        tau_quench = 72500
    elif variant == "ttl":
        tau_dead = 78000
        tw = ((70000.0, 0.0), (78000.0, 1.0))
        tau_quench = 70000
    else:
        raise ValueError(f"unknown spd-050 variant {variant!r}: expected 'timing' or 'ttl'")
    jitter = _recovery_curve(_SPD_GRID, 35.0, 15.0)
    params = DetectorParams(
        efficiency=0.33,
        tau_dead0_ps=tau_dead,
        tau_quench_ps=tau_quench,
        base_delay_ps=9000,
        dark_rate_cps=500.0,
        dead_elongation=(),
        twilight_profile=tw,
        jitter_curve=jitter,
        shift_curve=((0.0, 0.0),),
        afterpulse=AfterpulseModel(
            mu=calibrate_afterpulse_mu(0.004, 32000.0, tau_dead), tau_trap_ps=32000.0
        ),
        blanking=None,
    )
    notes = {
        "efficiency": "measured",
        "tau_dead0_ps": f"measured ({variant} output)",
        "jitter_curve": "range measured (35-50 ps); knot placement representative",
        "twilight_profile": "window qualitative (short); ramp representative",
        "afterpulse": "below-0.5% bound measured; 0.4% point representative",
        "dark_rate_cps": "representative, not directly measured",
        "tau_quench_ps": "representative, not directly measured",
        "base_delay_ps": "representative, not directly measured",
        "shift_curve": "no measurable shift reported; held at zero",
    }
    return DetectorPreset(name="spd-050", params=params, notes=notes)


def _custom_aq() -> DetectorPreset:
    # State-machine windows derive from the quenching-loop delays:
    # blind through tau_dead - tau_twilight, twilight across the last 5.5 ns.
    qt = circuit_timing(6000, 4500, 500)
    tau_dead = qt.tau_dead_ps
    jitter = _recovery_curve(_CUSTOM_GRID, 164.0, 69.0)
    shift = _recovery_curve(_CUSTOM_GRID, 0.0, 26.0, final=0.0)
    params = DetectorParams(
        efficiency=0.65,
        tau_dead0_ps=tau_dead,
        tau_quench_ps=qt.twilight_start_ps,
        base_delay_ps=9000,
        dark_rate_cps=500.0,
        dead_elongation=((0.0, 0.0), (30.0e6, 2000.0)),
        twilight_profile=((float(qt.twilight_start_ps), 0.0), (float(tau_dead), 1.0)),
        jitter_curve=jitter,
        shift_curve=shift,
        afterpulse=AfterpulseModel(
            mu=calibrate_afterpulse_mu(afterpulse_prob_vs_rs(3300.0), 32000.0, tau_dead),
            tau_trap_ps=32000.0,
        ),
        blanking=BlankingConfig(t_b_ps=24000),
    )
    notes = {
        "tau_dead0_ps": "derived from measured loop propagation delays",
        "tau_quench_ps": "derived from measured loop propagation delays",
        "twilight_profile": "window from the loop delays (last 5.5 ns); ramp shape representative",
        "dead_elongation": "endpoint measured (+2 ns at 30 Mcps); linear in between",
        "blanking": "measured (24 ns window, 12 ns output pulses)",
        "jitter_curve": "endpoints measured (164 and 233 ps FWHM); interior interpolated",
        "shift_curve": "peak measured (26 ps); interior interpolated",
        "afterpulse": "probability from the quench-resistance curve at 3.3 kohm",
        "base_delay_ps": "measured (about 9 ns)",
        "efficiency": "representative, not directly measured",
        "dark_rate_cps": "representative, not directly measured",
    }
    return DetectorPreset(name="custom-aq", params=params, notes=notes)


_PRESETS = {"spcm-aqrh": _spcm_aqrh, "spd-050": _spd_050, "custom-aq": _custom_aq}


def available_presets() -> tuple:
    return tuple(_PRESETS)


def preset(name: str, *, variant: str | None = None) -> DetectorPreset:
    """Look up a calibrated detector preset by name.

    spd-050 has two output stages with different timing; pick one with
    variant="timing" (the default) or variant="ttl". The other presets have
    no variants and reject one.
    """
    if name not in _PRESETS:
        names = ", ".join(_PRESETS)
        raise ValueError(f"unknown preset {name!r}: available presets are {names}")
    build = _PRESETS[name]
    if variant is None:
        return build()
    if "variant" in inspect.signature(build).parameters:
        return build(variant)
    raise ValueError(f"preset {name!r} has no variants, got {variant!r}")
