"""The array kernel behind `detect` and the event-queue reference
implementation `detect_reference` must produce byte-identical pulse streams,
on fixed cases and on generated detector parameters and stimuli."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spadsim import (
    AfterpulseModel,
    BlankingConfig,
    DetectorParams,
    detect,
    detect_reference,
    make_generator,
)

DURATION = 60_000_000


def rich_params(mu: float, *, power_law: bool = False) -> DetectorParams:
    ap_kwargs = dict(mu=mu, tau_trap_ps=32_000.0)
    if power_law:
        ap_kwargs = dict(mu=mu, mode="power-law", t_min_ps=25_000.0, alpha=1.8)
    return DetectorParams(
        efficiency=0.7,
        tau_dead0_ps=24_000,
        tau_quench_ps=10_000,
        base_delay_ps=9_000,
        dark_rate_cps=40_000.0,
        dead_elongation=((0.0, 0.0), (30.0e6, 2000.0)),
        twilight_profile=((10_000.0, 0.0), (17_000.0, 0.4), (24_000.0, 1.0)),
        jitter_curve=((30_000.0, 600.0), (120_000.0, 335.0)),
        shift_curve=((30_000.0, 855.0), (50_000.0, 100.0), (120_000.0, 0.0)),
        afterpulse=AfterpulseModel(**ap_kwargs),
    )


def arrivals_for(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(30_000.0, size=2000)
    return np.cumsum(gaps).astype(np.int64) + 1


def records_equal(a, b) -> bool:
    """Byte-for-byte equality of two PulseRecords, dtypes included."""
    arrays_equal = all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(
            (a.out_times, a.origin_times, a.causes), (b.out_times, b.origin_times, b.causes)
        )
    )
    return arrays_equal and a.out_width_ps == b.out_width_ps


CASES = [
    pytest.param(rich_params(0.017), id="mu-0.017"),
    pytest.param(rich_params(0.06), id="mu-0.06"),
    pytest.param(rich_params(0.5), id="mu-0.5"),
    pytest.param(rich_params(0.06, power_law=True), id="power-law"),
]


@pytest.mark.parametrize("params", CASES)
def test_kernel_matches_event_queue_reference(params):
    arrivals = arrivals_for(7)
    a = detect(arrivals, params, make_generator(11, 2), DURATION)
    c = detect_reference(arrivals, params, make_generator(11, 2), DURATION)
    assert records_equal(a, c)


@st.composite
def generated_params(draw) -> tuple[DetectorParams, int]:
    """Detector parameters over the corners of the state machine.

    Twilight is either off or a ramp across the whole twilight zone (and off
    whenever tau_quench equals tau_dead0). With alpha = 1e6 a power-law
    delay is t_min to the picosecond, and t_min sits on the photon grid just
    past tau_dead0, so releases tie with photons while the detector is armed.
    """
    step = draw(st.sampled_from([250, 1000]))
    tau_dead0 = draw(st.integers(2_000, 30_000))
    tau_quench = draw(st.one_of(st.just(tau_dead0), st.integers(0, tau_dead0)))
    twilight = ()
    if tau_quench < tau_dead0 and draw(st.booleans()):
        mid = draw(st.floats(0.0, 1.0))
        twilight = (
            (float(tau_quench), 0.0),
            ((tau_quench + tau_dead0) / 2.0, mid),
            (float(tau_dead0), 1.0),
        )
    elongation = draw(
        st.sampled_from([(), ((0.0, 0.0), (30.0e6, 2000.0)), ((1.0e6, 0.0), (2.0e8, 9000.0))])
    )
    jitter = draw(st.sampled_from([((0.0, 0.0),), ((30_000.0, 600.0), (120_000.0, 335.0))]))
    shift = draw(
        st.sampled_from([((0.0, 0.0),), ((30_000.0, 855.0), (50_000.0, 100.0), (120_000.0, 0.0))])
    )
    mu = draw(st.sampled_from([0.0, 0.2, 0.5]))
    if draw(st.booleans()):
        afterpulse = AfterpulseModel(mu=mu, tau_trap_ps=draw(st.floats(1.0, 50_000.0)))
    else:
        afterpulse = AfterpulseModel(
            mu=mu,
            mode="power-law",
            t_min_ps=float(step * (math.ceil(tau_dead0 / step) + draw(st.integers(0, 3)))),
            alpha=draw(st.one_of(st.floats(1.05, 4.0), st.just(1.0e6))),
        )
    blanking = None
    if draw(st.booleans()):
        blanking = BlankingConfig(
            t_b_ps=draw(st.integers(1, 40_000)), out_width_ps=draw(st.integers(0, 20_000))
        )
    params = DetectorParams(
        efficiency=draw(st.floats(0.3, 1.0)),
        tau_dead0_ps=tau_dead0,
        tau_quench_ps=tau_quench,
        base_delay_ps=draw(st.integers(0, 10_000)),
        dark_rate_cps=draw(st.sampled_from([0.0, 1.0e7, 1.0e9, 5.0e9])),
        dead_elongation=elongation,
        twilight_profile=twilight,
        jitter_curve=jitter,
        shift_curve=shift,
        afterpulse=afterpulse,
        blanking=blanking,
    )
    return params, step


@st.composite
def dense_arrivals(draw, step: int) -> tuple[np.ndarray, int]:
    """Photon arrivals inside a window of at most 200 ns.

    Photons sit on a `step` grid: either on every point of the full 200 ns
    window, or on up to 300 random points (coarse next to the window, so
    timestamps repeat). A burst fills up to 2000 consecutive picoseconds,
    so the dark stream drawn over the same window lands on photons too.
    """
    if draw(st.booleans()):
        window = 200_000
        grid = np.arange(0, window + 1, step)
    else:
        window = draw(st.integers(1_000, 200_000))
        layout = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        grid = layout.integers(0, window // step + 1, size=draw(st.integers(0, 300))) * step
    burst_start = draw(st.integers(0, window))
    burst = np.arange(burst_start, min(burst_start + draw(st.integers(0, 2000)), window + 1))
    arrivals = np.sort(np.concatenate([grid, burst]).astype(np.int64))
    return arrivals, window + 1


@st.composite
def detector_cases(draw):
    params, step = draw(generated_params())
    arrivals, duration = draw(dense_arrivals(step))
    return params, arrivals, duration, draw(st.integers(0, 2**32 - 1))


# Ties the reference must order as the kernel does: a photon on every
# picosecond lands exactly on each dead_end (the re-arm timer pops first),
# and darks at 0.05 per picosecond land on photons while the detector is
# armed (the dark is processed first).
TIE_CASE = (
    DetectorParams(efficiency=0.3, tau_dead0_ps=2_000, tau_quench_ps=2_000, dark_rate_cps=5.0e10),
    np.arange(0, 40_001, dtype=np.int64),
    40_001,
    0,
)


@settings(deadline=None, max_examples=150)
@given(case=detector_cases())
@example(case=TIE_CASE)
def test_kernel_matches_reference_on_generated_params(case):
    params, arrivals, duration, seed = case
    a = detect(arrivals, params, make_generator(seed, 2), duration)
    b = detect_reference(arrivals, params, make_generator(seed, 2), duration)
    assert records_equal(a, b)
