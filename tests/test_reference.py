"""The array kernel behind `detect` and the event-queue reference
implementation `detect_reference` must produce byte-identical pulse streams,
on fixed cases and on generated detector parameters and stimuli."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spadsim import (
    RATE_WINDOW_PS,
    AfterpulseModel,
    BlankingConfig,
    Cause,
    DetectorParams,
    detect,
    detect_reference,
    make_generator,
)
from spadsim import detector

DURATION = 60_000_000


def rich_params(mu: float) -> DetectorParams:
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
        afterpulse=AfterpulseModel(mu=mu, tau_trap_ps=32_000.0),
    )


def arrivals_for(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(30_000.0, size=2000)
    return np.cumsum(gaps).astype(np.int64) + 1


def records_equal(a, b) -> bool:
    """Byte-for-byte equality of two PulseRecords, dtypes included."""
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(
            (a.out_times, a.origin_times, a.causes, a.arrival_index),
            (b.out_times, b.origin_times, b.causes, b.arrival_index),
        )
    )


# 0.9 live traps per avalanche on average, just under the limit of 1: an
# afterpulse chain runs about ten avalanches long, and the kernel draws trap
# counts for several times more avalanches than stimuli, over dozens of rounds.
NEAR_CRITICAL = DetectorParams(
    efficiency=1.0,
    tau_dead0_ps=2_000,
    tau_quench_ps=1_000,
    afterpulse=AfterpulseModel(mu=0.9 * math.exp(1_999.5 / 50_000.0), tau_trap_ps=50_000.0),
)

CASES = [
    pytest.param(rich_params(0.017), id="mu-0.017"),
    pytest.param(rich_params(0.06), id="mu-0.06"),
    pytest.param(rich_params(0.5), id="mu-0.5"),
    pytest.param(NEAR_CRITICAL, id="near-critical"),
]


@pytest.mark.parametrize(
    "block, scalar",
    [
        pytest.param(lambda g, n: g.random(n), lambda g: g.random(), id="random"),
        pytest.param(
            lambda g, n: g.standard_normal(n), lambda g: g.standard_normal(), id="standard_normal"
        ),
        pytest.param(lambda g, n: g.poisson(0.06, n), lambda g: g.poisson(0.06), id="poisson"),
        pytest.param(lambda g, n: g.poisson(25.0, n), lambda g: g.poisson(25.0), id="poisson-25"),
        pytest.param(
            lambda g, n: g.exponential(32_000.0, n),
            lambda g: g.exponential(32_000.0),
            id="exponential",
        ),
    ],
)
def test_block_draws_equal_successive_scalar_draws(block, scalar):
    """The kernel reads its draws from blocks where the reference draws them
    one at a time; a Philox generator gives the same values either way, also
    across the boundary between two blocks."""
    blocks = make_generator(5, 2)
    drawn = np.concatenate([block(blocks, 700), block(blocks, 1300)])
    one_by_one = make_generator(5, 2)
    expected = np.array([scalar(one_by_one) for _ in range(2000)], dtype=drawn.dtype)
    assert drawn.tobytes() == expected.tobytes()


@pytest.mark.parametrize("params", CASES)
def test_kernel_matches_event_queue_reference(params):
    arrivals = arrivals_for(7)
    a = detect(arrivals, params, make_generator(11, 2), DURATION)
    c = detect_reference(arrivals, params, make_generator(11, 2), DURATION)
    assert records_equal(a, c)


@pytest.mark.parametrize("run", [detect, detect_reference])
@pytest.mark.parametrize("k", [0, 1, 7, 300])
@pytest.mark.parametrize("first, counted", [(-RATE_WINDOW_PS, 0), (1 - RATE_WINDOW_PS, 1)])
def test_dead_time_follows_the_avalanches_counted_in_the_window(run, k, first, counted):
    """The elongation adds 1 ps per avalanche less than RATE_WINDOW_PS before
    the one at t: a probe one picosecond before the elongated dead end is
    lost, and one at the dead end fires. The earliest avalanche sits exactly
    RATE_WINDOW_PS before t, where it is not counted, or 1 ps later."""
    tau_dead0 = 2_000
    params = DetectorParams(
        efficiency=1.0,
        tau_dead0_ps=tau_dead0,
        tau_quench_ps=tau_dead0,
        dead_elongation=((0.0, 0.0), (1.0e9, 1000.0)),
    )
    t = 5_000_000
    # k avalanches 3 ns apart (the longest dead time is 3 ns) before t.
    earlier = [t + first] + [t - 3_000 * i for i in range(k, 0, -1)]
    dead = tau_dead0 + k + counted
    for probe, fires in ((t + dead - 1, False), (t + dead, True)):
        arrivals = np.array(earlier + [t, probe], dtype=np.int64)
        rec = run(arrivals, params, make_generator(3, 2), probe + 1)
        assert np.array_equal(rec.origin_times, arrivals if fires else arrivals[:-1])


def test_first_avalanche_at_the_top_of_the_budget():
    """The first avalanche has no previous one: its gap is the far end of the
    curves however late it comes, with nothing subtracted (an int64 overflow
    warning fails the suite). Arrivals lie below 2**61 ps, the time budget."""
    arrivals = np.array([2**61 - 200_000, 2**61 - 100_000], dtype=np.int64)
    params = DetectorParams(efficiency=1.0, tau_dead0_ps=24_000, tau_quench_ps=10_000)
    a = detect(arrivals, params, make_generator(12, 2), 1_000)
    b = detect_reference(arrivals, params, make_generator(12, 2), 1_000)
    assert len(a) == 2 and records_equal(a, b)


@pytest.mark.parametrize("run", [detect, detect_reference])
def test_arrivals_past_the_budget_are_refused_alike(run):
    """An avalanche one dead time before 2**63 would end its dead period past
    int64; both implementations refuse the arrival at the budget instead.
    Both refuse fractional arrivals, which a cast to int64 would truncate."""
    arrivals = np.array([2**63 - 20_000], dtype=np.int64)
    params = DetectorParams(efficiency=1.0, tau_dead0_ps=24_000, tau_quench_ps=10_000)
    message = r"^arrivals must lie in \[0, 2\*\*61\) ps, got 9223372036854755808$"
    with pytest.raises(ValueError, match=message):
        run(arrivals, params, make_generator(12, 2), 1_000)
    fractional = r"^arrivals must be int64 picoseconds, got dtype float64$"
    with pytest.raises(ValueError, match=fractional):
        run(np.array([1000.9, 50000.5]), params, make_generator(12, 2), 1_000)


@st.composite
def generated_params(draw) -> tuple[DetectorParams, int]:
    """Detector parameters over the corners of the state machine.

    Twilight is either off or a ramp across the whole twilight zone (and off
    whenever tau_quench equals tau_dead0).
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
        st.sampled_from(
            [
                (),
                ((0.0, 0.0), (30.0e6, 2000.0)),
                ((1.0e6, 0.0), (2.0e8, 9000.0)),
                ((0.0, 500.0),),
                ((0.0, 0.0), (1.0e30, 1.0e6)),
            ]
        )
    )
    jitter = draw(st.sampled_from([((0.0, 0.0),), ((30_000.0, 600.0), (120_000.0, 335.0))]))
    shift = draw(
        st.sampled_from([((0.0, 0.0),), ((30_000.0, 855.0), (50_000.0, 100.0), (120_000.0, 0.0))])
    )
    afterpulse = AfterpulseModel(
        mu=draw(st.sampled_from([0.0, 0.2, 0.5])), tau_trap_ps=draw(st.floats(1.0, 50_000.0))
    )
    blanking = None
    if draw(st.booleans()):
        blanking = BlankingConfig(t_b_ps=draw(st.integers(1, 40_000)))
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
    if draw(st.booleans()):
        # The same photons just under the top of the arrival budget, 2**61 ps.
        arrivals = arrivals + (2**61 - duration)
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

# Trap releases the reference must order before a photon on the same
# picosecond: with a photon on every picosecond, a 1 ps dead time and 3 ps
# trap lifetimes, most releases land on a photon while the detector is armed.
RELEASE_TIE_CASE = (
    DetectorParams(
        efficiency=0.3,
        tau_dead0_ps=1,
        tau_quench_ps=1,
        afterpulse=AfterpulseModel(mu=0.5, tau_trap_ps=3.0),
    ),
    np.arange(0, 20_001, dtype=np.int64),
    20_001,
    0,
)


def corner_params(efficiency: float, dark_rate_cps: float) -> DetectorParams:
    """A detector with every feature on."""
    return DetectorParams(
        efficiency=efficiency,
        tau_dead0_ps=20_000,
        tau_quench_ps=8_000,
        base_delay_ps=3_000,
        dark_rate_cps=dark_rate_cps,
        dead_elongation=((0.0, 0.0), (30.0e6, 2000.0)),
        twilight_profile=((8_000.0, 0.0), (14_000.0, 0.5), (20_000.0, 1.0)),
        jitter_curve=((30_000.0, 600.0), (120_000.0, 335.0)),
        shift_curve=((30_000.0, 855.0), (50_000.0, 100.0), (120_000.0, 0.0)),
        afterpulse=AfterpulseModel(mu=0.5, tau_trap_ps=30_000.0),
    )


# Efficiency 0 thins every photon away before the kernel's loop, and
# efficiency 1 none; the reference keeps them all either way.
EVERY_50_PS = np.arange(0, 200_001, 50, dtype=np.int64)
EFFICIENCY_ZERO_CASE = (corner_params(0.0, 2.0e8), EVERY_50_PS, 200_001, 3)
EFFICIENCY_ONE_CASE = (corner_params(1.0, 2.0e8), EVERY_50_PS, 200_001, 4)

# A photon every 3 ps and darks at 5 per ns: every twilight zone is crossed
# by thousands of trials, photons (thinned at efficiency 0.3) and darks alike.
EVERY_3_PS = np.arange(0, 60_001, 3, dtype=np.int64)
TWILIGHT_DENSE_CASE = (corner_params(0.3, 5.0e9), EVERY_3_PS, 60_001, 5)


# The kernel takes a stimulus at least H after the previous one (H the longest
# dead time the table gives) as an uncontested run member, without stepping
# the state machine. The cases below drive that path.


def horizon_case(elongation: tuple) -> tuple:
    """Photons exactly H and H - 1 apart, every one kept: at H - 1 the
    detector is still dead (here, in the last picosecond of its twilight
    zone), at H it is armed."""
    params = DetectorParams(
        efficiency=1.0,
        tau_dead0_ps=2_000,
        tau_quench_ps=1_000,
        dead_elongation=elongation,
        twilight_profile=((1_000.0, 0.0), (2_000.0, 1.0)),
    )
    h = 2_000 + int(elongation[-1][1]) if elongation else 2_000
    gaps = np.tile([h, h, h, h - 1, h, h - 1, h - 1, h], 200)
    arrivals = np.cumsum(gaps).astype(np.int64)
    return params, arrivals, int(arrivals[-1]) + 1, 6


# H is tau_dead0; with the elongation saturated, H is tau_dead0 + 500.
HORIZON_CASE = horizon_case(())
ELONGATED_HORIZON_CASE = horizon_case(((0.0, 0.0), (1.0e8, 500.0)))


def gaps_with_clusters(layout, n: int, every: int, long_gaps, short_gaps) -> np.ndarray:
    """n photon times: every `every`-th gap drawn from `short_gaps`, the rest from `long_gaps`."""
    gaps = layout.integers(*long_gaps, size=n)
    gaps[::every] = layout.integers(*short_gaps, size=gaps[::every].size)
    return np.cumsum(gaps).astype(np.int64)


# More than 4096 avalanches with mu > 0: trap fills cut uncontested runs of
# about 40 photons mid-run.
LONG_RUN_ARRIVALS = gaps_with_clusters(
    np.random.default_rng(21), 6_000, 40, (5_000, 7_000), (500, 5_000)
)
BLOCK_CROSSING_CASE = (
    DetectorParams(
        efficiency=0.9,
        tau_dead0_ps=5_000,
        tau_quench_ps=2_000,
        dark_rate_cps=2.0e7,
        twilight_profile=((2_000.0, 0.0), (5_000.0, 1.0)),
        afterpulse=AfterpulseModel(mu=0.05, tau_trap_ps=8_000.0),
    ),
    LONG_RUN_ARRIVALS,
    int(LONG_RUN_ARRIVALS[-1]) + 1,
    7,
)

# A photon every 2 ps and a 2 ps dead time: every photon is uncontested, and
# about half of the trap releases land on the same picosecond as a photon.
RUN_RELEASE_TIE_CASE = (
    DetectorParams(
        efficiency=1.0,
        tau_dead0_ps=2,
        tau_quench_ps=2,
        afterpulse=AfterpulseModel(mu=0.05, tau_trap_ps=40.0),
    ),
    np.arange(0, 8_000, 2, dtype=np.int64),
    8_000,
    8,
)

# Runs of about 40 photons with the dead time elongated well short of its
# table's end (H = 29 ns); the five contested photons between runs come
# 20.0-20.6 ns apart, so whether each finds the detector armed turns on the
# count of avalanches in the preceding microsecond, run members included.
ELONGATED_RUN_ARRIVALS = gaps_with_clusters(
    np.random.default_rng(22), 1_800, 8, (29_000, 34_000), (20_000, 20_600)
)
ELONGATED_RUNS_CASE = (
    DetectorParams(
        efficiency=1.0,
        tau_dead0_ps=20_000,
        tau_quench_ps=8_000,
        dead_elongation=((0.0, 0.0), (1.0e9, 9_000.0)),
        twilight_profile=((8_000.0, 0.0), (20_000.0, 1.0)),
        afterpulse=AfterpulseModel(mu=0.02, tau_trap_ps=30_000.0),
    ),
    ELONGATED_RUN_ARRIVALS,
    int(ELONGATED_RUN_ARRIVALS[-1]) + 1,
    9,
)


# A photon every 60-140 ps and a dead time of 50 ps plus 1 ps per 200
# avalanches counted: about 9k avalanches fall in each window, so the
# kernel's avalanche list passes its trim of 4096 (`_AV_TRIM`).
PAST_CAP_ARRIVALS = np.cumsum(np.random.default_rng(23).integers(60, 141, size=25_000))
PAST_CAP_CASE = (
    DetectorParams(
        efficiency=1.0,
        tau_dead0_ps=50,
        tau_quench_ps=25,
        dead_elongation=((0.0, 0.0), (1.0e10, 50.0)),
        twilight_profile=((25.0, 0.0), (50.0, 1.0)),
        afterpulse=AfterpulseModel(mu=0.05, tau_trap_ps=200.0),
    ),
    PAST_CAP_ARRIVALS,
    int(PAST_CAP_ARRIVALS[-1]) + 1,
    10,
)


def generated_and_fixed_cases(test):
    """Run `test` on generated cases and on every fixed case above."""
    for case in (
        TIE_CASE,
        RELEASE_TIE_CASE,
        EFFICIENCY_ZERO_CASE,
        EFFICIENCY_ONE_CASE,
        TWILIGHT_DENSE_CASE,
        HORIZON_CASE,
        ELONGATED_HORIZON_CASE,
        BLOCK_CROSSING_CASE,
        RUN_RELEASE_TIE_CASE,
        ELONGATED_RUNS_CASE,
        PAST_CAP_CASE,
    ):
        test = example(case=case)(test)
    return settings(deadline=None, max_examples=150)(given(case=detector_cases())(test))


@generated_and_fixed_cases
def test_kernel_matches_reference_on_generated_params(case):
    assert_kernel_matches_reference(case)


@pytest.mark.parametrize(
    "name, value",
    [
        # Output times in blocks of 3 avalanches: every case crosses many blocks.
        pytest.param("_EMIT_BLOCK", 3, id="emit-blocks-of-3"),
        # The loop reads the stimuli through a list, or through a view, whatever
        # its runs per stimulus.
        pytest.param("_VIEW_BELOW", 0.0, id="stimulus-list"),
        pytest.param("_VIEW_BELOW", math.inf, id="stimulus-view"),
    ],
)
@generated_and_fixed_cases
def test_kernel_matches_reference_with_either_stimulus_path_and_small_blocks(case, name, value):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector, name, value)
        assert_kernel_matches_reference(case)


def assert_kernel_matches_reference(case):
    params, arrivals, duration, seed = case
    a = detect(arrivals, params, make_generator(seed, 2), duration)
    b = detect_reference(arrivals, params, make_generator(seed, 2), duration)
    assert records_equal(a, b)
    # `detect` sorts by output time alone; origin and cause never break a tie.
    order = np.lexsort((a.causes, a.origin_times, a.out_times))
    assert np.array_equal(order, np.arange(len(a)))
    # Provenance: a photon pulse names its arrival, darks and afterpulses
    # name none, and a named arrival is distinct and sits at the origin.
    idx = a.arrival_index
    assert np.all(idx[a.causes == Cause.PHOTON] >= 0)
    assert np.all(idx[(a.causes == Cause.DARK) | (a.causes == Cause.AFTERPULSE)] == -1)
    named = idx >= 0
    assert np.unique(idx[named]).size == np.count_nonzero(named)
    assert np.array_equal(arrivals[idx[named]], a.origin_times[named])
    assert np.all((a.causes[named] == Cause.PHOTON) | (a.causes[named] == Cause.TWILIGHT))
