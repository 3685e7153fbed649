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
"""

import numpy as np
import pytest
from scipy import stats

from spadsim import DetectorParams, detect, make_generator, poisson_times

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
