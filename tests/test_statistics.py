"""Renewal laws of the avalanche stream, checked against the model's own law.

With a constant dead time and no afterpulsing, elongation or blanking, the
detector forgets everything at each avalanche: photons (rate lambda, each
detected with probability eta) and darks (rate d) trigger at offset t after
the last avalanche with hazard

    h(t) = (lambda * eta + d) * s(t),

where the sensitivity s is 0 before tau_quench_ps, the twilight profile up
to tau_dead0_ps (0 throughout without one), and 1 from then on. The gaps
between avalanches are then independent with survival
S(t) = exp(-integral of h over [0, t]) (J. W. Muller, "Dead-time problems",
Nucl. Instrum. Methods 112 (1973) 47, for the step profile). Each case
gates a chi-square of the gaps in 1 ns bins, the mean gap, and the count of
gaps that end in twilight. The tests build s from the knots with np.interp,
not from any spadsim helper or table, so a kernel that reads its twilight
table wrongly fails them.

The live-trap tree that afterpulses are drawn from is held to its own laws
at the end of the file.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from spadsim import (
    FWHM_TO_SIGMA,
    AfterpulseModel,
    BlankingConfig,
    Cause,
    DetectorParams,
    detect,
    make_generator,
    poisson_times,
    preset,
)
from spadsim import detector

SECOND_PS = 1_000_000_000_000
BIN_PS = 1000
RAMP = ((5000.0, 0.0), (15000.0, 0.3), (20000.0, 1.0))


def sensitivity(t, p: DetectorParams) -> np.ndarray:
    """s(t) at offsets t (ps) after an avalanche."""
    t = np.asarray(t, dtype=np.float64)
    s = np.where(t >= p.tau_dead0_ps, 1.0, 0.0)
    if p.twilight_profile:
        xs, ys = zip(*p.twilight_profile)
        zone = (t >= p.tau_quench_ps) & (t < p.tau_dead0_ps)
        s[zone] = np.interp(t[zone], xs, ys)
    return s


def survival(t, p: DetectorParams, rate_cps: float) -> np.ndarray:
    """S(t) at sorted offsets t >= 0 (ps), for a trigger rate of rate_cps when armed.

    s is linear between its knots and its jumps, so the midpoint rule on a
    grid that holds all of them integrates it exactly.
    """
    t = np.asarray(t, dtype=np.float64)
    knots = [x for x, _ in p.twilight_profile] + [p.tau_quench_ps, p.tau_dead0_ps]
    grid = np.union1d(t, np.array(knots, dtype=np.float64))
    grid = np.union1d(0.0, grid[grid > 0])
    mid = (grid[1:] + grid[:-1]) / 2
    area = np.concatenate(([0.0], np.cumsum(np.diff(grid) * sensitivity(mid, p))))
    return np.exp(-rate_cps * 1e-12 * area[np.searchsorted(grid, t)])


def mean_gap(p: DetectorParams, rate_cps: float) -> float:
    """The integral of S over [0, inf), in ps: trapezoids on a 1 ps grid up to
    the dead time, where S is exp(-rate * t) times S(tau_dead0_ps) from on."""
    t = np.arange(p.tau_dead0_ps + 1, dtype=np.float64)
    s = survival(t, p, rate_cps)
    return float(np.sum((s[1:] + s[:-1]) / 2)) + s[-1] / (rate_cps * 1e-12)


def pooled(observed, expected, least=5.0):
    """Adjacent bins merged, in order, until each expects at least `least` counts."""
    obs, exp = [], []
    o = e = 0.0
    for oi, ei in zip(observed, expected):
        o, e = o + oi, e + ei
        if e >= least:
            obs.append(o)
            exp.append(e)
            o = e = 0.0
    obs[-1] += o
    exp[-1] += e
    return np.array(obs), np.array(exp)


# (efficiency, tau_dead0_ps, tau_quench_ps, twilight_profile, photon rate, dark rate, seed)
CASES = [
    pytest.param(0.6, 20_000, 5_000, RAMP, 2e6, 0.0, 1, id="ramp"),
    pytest.param(0.6, 20_000, 5_000, RAMP, 2e6, 2e5, 1, id="ramp-with-darks"),
    pytest.param(0.6, 20_000, 5_000, (), 3e6, 0.0, 1, id="no-profile"),
    # Darks alone at a high rate: about 2% of the gaps end in twilight, against
    # 0.6% in the photon cases, and the efficiency must not scale them.
    pytest.param(0.6, 20_000, 5_000, RAMP, 0.0, 5e6, 1, id="darks-only"),
]


@pytest.mark.parametrize("eta,tau_dead,tau_quench,profile,rate,dark,seed", CASES)
def test_gaps_follow_the_renewal_law(eta, tau_dead, tau_quench, profile, rate, dark, seed):
    p = DetectorParams(
        efficiency=eta,
        tau_dead0_ps=tau_dead,
        tau_quench_ps=tau_quench,
        dark_rate_cps=dark,
        twilight_profile=profile,
    )
    duration = SECOND_PS // 5
    arrivals = poisson_times(make_generator(seed, "source"), rate, duration)
    rec = detect(arrivals, p, make_generator(seed, "detector"), duration)
    gaps = np.diff(np.sort(rec.origin_times))
    n = gaps.size
    trigger_rate = rate * eta + dark
    assert n > 100_000
    # Nothing triggers while s is 0.
    assert gaps.min() >= (tau_quench if profile else tau_dead)

    # 1 ns bins up to the longest gap, then one bin for the rest of the tail.
    edges = np.arange(0, int(gaps.max()) + 2 * BIN_PS, BIN_PS)
    observed = np.append(np.histogram(gaps, edges)[0], 0)
    s_edges = survival(edges, p, trigger_rate)
    expected = n * np.append(-np.diff(s_edges), s_edges[-1])
    obs, exp = pooled(observed, expected)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    p_value = stats.chi2.sf(chi2, obs.size - 1)
    assert p_value > 1e-3, f"chi2 {chi2:.1f} on {obs.size - 1} dof"

    mean = mean_gap(p, trigger_rate)
    z = (gaps.mean() - mean) / (gaps.std(ddof=1) / np.sqrt(n))
    assert abs(z) < 4, f"mean gap {gaps.mean():.1f} ps vs {mean:.1f} ps, z = {z:.2f}"

    # The gaps that end in twilight, where the kernel reads its profile,
    # against their binomial law: the chi-square spreads them over thousands
    # of bins, where a profile 10% too high goes unseen.
    if profile:
        q = 1.0 - float(survival([tau_dead], p, trigger_rate)[0])
        k = np.count_nonzero(gaps < tau_dead)
        z = (k - n * q) / np.sqrt(n * q * (1.0 - q))
        assert abs(z) < 4, f"{k} gaps end in twilight vs {n * q:.1f}, z = {z:.2f}"


def test_survival_matches_the_step_law():
    # Without a profile, S is 1 through the dead time and exp(-r (t - tau)) after it,
    # and the mean gap is tau + 1 / r: the non-paralyzable counter.
    p = DetectorParams(efficiency=1.0, tau_dead0_ps=20_000, tau_quench_ps=5_000)
    t = np.array([0.0, 19_999.0, 20_000.0, 520_000.0])
    want = [1.0, 1.0, 1.0, np.exp(-1e6 * 500_000e-12)]
    assert survival(t, p, 1e6) == pytest.approx(want, rel=1e-12)
    assert mean_gap(p, 1e6) == pytest.approx(20_000 + 1e6, rel=1e-9)


def test_relaxed_pulses_follow_the_jitter_law():
    # A pulse that is not held in twilight, and whose previous avalanche lies
    # at least the last shift and jitter knots earlier, reads both curves at
    # their relaxed ends: a shift of 0 and sigma = FWHM * FWHM_TO_SIGMA. So
    # out - origin - base_delay is floor(N(0, sigma) + 0.5), which lies in
    # [a, b) iff the normal lies in [a - 0.5, b - 0.5).
    p = preset("spcm-aqrh").params
    duration = SECOND_PS // 10
    arrivals = poisson_times(make_generator(1, "source"), 2e6, duration)
    rec = detect(arrivals, p, make_generator(1, "detector"), duration)
    order = np.argsort(rec.origin_times)
    origin, out, causes = rec.origin_times[order], rec.out_times[order], rec.causes[order]
    relaxed = max(p.jitter_curve[-1][0], p.shift_curve[-1][0])
    free = np.flatnonzero((np.diff(origin) >= relaxed) & (causes[1:] != Cause.TWILIGHT)) + 1
    delay = out[free] - origin[free] - p.base_delay_ps
    n = delay.size
    assert n > 100_000

    sigma = p.jitter_curve[-1][1] * FWHM_TO_SIGMA
    width = 25
    edges = np.arange(delay.min() // width * width, delay.max() + 2 * width, width)
    observed = np.histogram(delay, edges)[0]
    cdf = stats.norm.cdf((edges - 0.5) / sigma)
    expected = n * np.diff(cdf)
    expected[0] += n * cdf[0]  # the end bins take the tails
    expected[-1] += n * (1.0 - cdf[-1])
    obs, exp = pooled(observed, expected)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    p_value = stats.chi2.sf(chi2, obs.size - 1)
    assert p_value > 1e-3, f"chi2 {chi2:.1f} on {obs.size - 1} dof"


@pytest.mark.parametrize("p_live", [0.02, 0.5])
def test_darks_are_followed_by_an_afterpulse_by_the_trap_law(p_live):
    # Darks alone, 500 us apart on average, with a 32 ns trap lifetime: each
    # avalanche fills Poisson(mu) traps, and a trap is live, releasing after
    # the dead time, with probability exp(-(tau_dead0 - 0.5) / tau_trap). So
    # the live traps are Poisson(p) with p = mu * exp(-(tau_dead0 - 0.5) /
    # tau_trap), and a dark's next avalanche is an afterpulse iff it has at
    # least one: probability 1 - exp(-p), not p.
    tau_dead, tau_trap = 20_000, 32_000.0
    mu = p_live * math.exp((tau_dead - 0.5) / tau_trap)
    params = DetectorParams(
        efficiency=0.6,
        tau_dead0_ps=tau_dead,
        tau_quench_ps=5_000,
        dark_rate_cps=2000.0,
        afterpulse=AfterpulseModel(mu=mu, tau_trap_ps=tau_trap),
    )
    duration = 10 * SECOND_PS
    rec = detect(np.zeros(0, dtype=np.int64), params, make_generator(1, "detector"), duration)
    causes = rec.causes[np.argsort(rec.origin_times)]
    followed = causes[1:][causes[:-1] == Cause.DARK] == Cause.AFTERPULSE
    n, k = followed.size, int(np.count_nonzero(followed))
    assert n > 15_000

    def z_score(q):
        return (k - n * q) / math.sqrt(n * q * (1.0 - q))

    z = z_score(-math.expm1(-p_live))
    assert abs(z) < 4, f"{k} of {n} darks followed by an afterpulse, z = {z:.2f}"
    if p_live == 0.5:
        # calibrate_afterpulse_mu equates the fraction with p; at p = 0.5
        # the run tells the two laws apart.
        assert z_score(p_live) < -4


# The live-trap tree (`detector._live_traps`). Every node owns Poisson(p)
# live traps, p = mu * exp(-(tau_dead0 - 0.5) / tau_trap), and a live delay,
# clamped and rounded, is tau_dead0 - 0.5 plus an exponential(tau_trap):
# tau_dead0 + floor(E), so the excess over tau_dead0 is at least k with
# probability exp(-k / tau_trap).


def trap_params(p_live: float, tau_trap: float = 2_000.0, **kw) -> DetectorParams:
    tau_dead = 20_000
    mu = p_live * math.exp((tau_dead - 0.5) / tau_trap)
    return DetectorParams(
        efficiency=1.0,
        tau_dead0_ps=tau_dead,
        tau_quench_ps=5_000,
        afterpulse=AfterpulseModel(mu=mu, tau_trap_ps=tau_trap),
        **kw,
    )


def live_trap_tree(params: DetectorParams, n: int, seed: int = 1) -> dict:
    draws = detector._draw_streams(make_generator(seed, "detector"))
    return detector._live_traps(draws, params, n)


def test_the_roots_own_poisson_many_live_traps():
    n, p_live = 200_000, 0.05
    tree = live_trap_tree(trap_params(p_live), n)
    k = sum(len(children) for node, children in tree.items() if node < n)
    z = (k - n * p_live) / math.sqrt(n * p_live)
    assert abs(z) < 4, f"{k} live traps on {n} roots, z = {z:.2f}"


def test_live_delays_follow_the_shifted_exponential():
    params = trap_params(0.3)
    tau_dead, tau_trap = params.tau_dead0_ps, params.afterpulse.tau_trap_ps
    tree = live_trap_tree(params, 200_000)
    delays = np.array([d for children in tree.values() for d, _ in children])
    assert delays.size > 50_000
    assert delays.min() >= tau_dead
    excess = delays - tau_dead
    # Thirty bins of about equal probability, on whole picoseconds.
    edges = np.unique(np.floor(-tau_trap * np.log1p(-np.linspace(0.0, 1.0, 31)[:-1])))
    observed = np.histogram(excess, np.append(edges, np.inf))[0]
    survive = np.exp(-edges / tau_trap)
    expected = delays.size * (survive - np.append(survive[1:], 0.0))
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p_value = stats.chi2.sf(chi2, observed.size - 1)
    assert p_value > 1e-3, f"chi2 {chi2:.1f} on {observed.size - 1} dof"


def test_the_generations_end_near_criticality():
    # At p = 0.9 each root heads 1 / (1 - p) = 10 nodes on average, with a
    # variance of p / (1 - p)**3 = 900 in its count of traps.
    n, p_live = 2_000, 0.9
    tree = live_trap_tree(trap_params(p_live), n)
    children = sorted(c for kids in tree.values() for _, c in kids)
    assert children == list(range(n, n + len(children)))
    assert all(node < c for node, kids in tree.items() for _, c in kids)
    mean, sd = n * p_live / (1 - p_live), math.sqrt(n * p_live / (1 - p_live) ** 3)
    z = (len(children) - mean) / sd
    assert abs(z) < 4, f"{len(children)} live traps on {n} roots, z = {z:.2f}"


@pytest.mark.parametrize(
    "afterpulse, tau_dead",
    [
        (AfterpulseModel(mu=0.0), 20_000),
        # Every delay is clamped at 1e15 ps, short of this dead time: a
        # mean of 1000 traps per avalanche leaves none live.
        (AfterpulseModel(mu=1_000.0, tau_trap_ps=1e17), 10**15 + 1),
    ],
)
def test_no_live_traps_draws_nothing(afterpulse, tau_dead):
    params = DetectorParams(
        efficiency=1.0, tau_dead0_ps=tau_dead, tau_quench_ps=5_000, afterpulse=afterpulse
    )
    draws = detector._draw_streams(make_generator(1, "detector"))
    assert detector._live_traps(draws, params, 10_000) == {}
    fresh = detector._draw_streams(make_generator(1, "detector"))
    for stream in ("trap_counts", "trap_delays"):
        assert getattr(draws, stream).random() == getattr(fresh, stream).random()


def test_the_tree_depends_only_on_the_live_trap_law():
    base = trap_params(0.3)
    other = replace(
        base,
        efficiency=0.4,
        tau_quench_ps=8_000,
        base_delay_ps=9_000,
        dark_rate_cps=1e5,
        dead_elongation=((0.0, 0.0), (30.0e6, 2000.0)),
        twilight_profile=((8_000.0, 0.0), (20_000.0, 1.0)),
        jitter_curve=((30_000.0, 600.0), (120_000.0, 335.0)),
        blanking=BlankingConfig(t_b_ps=24_000),
    )
    assert live_trap_tree(base, 5_000) == live_trap_tree(other, 5_000)
