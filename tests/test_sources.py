import itertools
import tracemalloc
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest

from spadsim import (
    CwSourceConfig,
    EntangledPairConfig,
    PairScan,
    PairScanConfig,
    PulsedSourceConfig,
    correlated_pair_stream,
    cw_poisson_stream,
    make_generator,
    poisson_times,
    preset,
    pulse_pair_sequence,
    pulsed_train,
    run_pair_scan,
)
from spadsim.detector import detect
from spadsim.experiments import PairScanPoint, _run_pair_point
from spadsim.rng import DETECTOR_SCAN_BASE, FWHM_TO_SIGMA, SCAN_BASE

SECOND_PS = 1_000_000_000_000


def test_poisson_times_basic_properties():
    t = poisson_times(make_generator(1, 1), 1e6, SECOND_PS)
    assert t.dtype == np.int64
    assert np.all(np.diff(t) >= 0)
    assert t[0] >= 0 and t[-1] < SECOND_PS
    # Mean count within 5 sigma of rate * duration.
    assert abs(t.size - 1e6) < 5 * np.sqrt(1e6)
    assert np.array_equal(t, poisson_times(make_generator(1, 1), 1e6, SECOND_PS))


def test_poisson_times_zero_rate_and_validation():
    assert poisson_times(make_generator(1, 1), 0.0, 1000).size == 0
    # A negative rate, NaN, and a mean gap below the 1 ps time grid are refused by name.
    for rate_cps in (-1.0, float("nan"), float("inf"), 1.0e18):
        with pytest.raises(ValueError, match=r"^rate_cps must lie in \[0, 1e12\] cps"):
            poisson_times(make_generator(1, 1), rate_cps, 1000)
    with pytest.raises(ValueError):
        poisson_times(make_generator(1, 1), 1.0, 0)


def test_cw_stream_matches_poisson_times():
    cfg = CwSourceConfig(rate_cps=5e5, duration_ps=SECOND_PS // 10)
    a = cw_poisson_stream(cfg, make_generator(2, "source"))
    b = poisson_times(make_generator(2, "source"), 5e5, SECOND_PS // 10)
    assert np.array_equal(a, b)


def test_pulsed_train_sits_on_the_comb():
    cfg = PulsedSourceConfig(period_ps=1000, mean_photons_per_pulse=0.2, duration_ps=10_000_000)
    t = pulsed_train(cfg, make_generator(3, "source"))
    assert np.all(t % 1000 == 0)
    assert np.all(np.diff(t) >= 0)
    assert t[-1] < 10_000_000
    n_pulses = 10_000_000 // 1000
    assert abs(t.size - 0.2 * n_pulses) < 5 * np.sqrt(0.2 * n_pulses)


def test_pulsed_train_smears_with_fwhm():
    cfg = PulsedSourceConfig(
        period_ps=100_000, mean_photons_per_pulse=1.0, duration_ps=50_000_000, pulse_fwhm_ps=200.0
    )
    t = pulsed_train(cfg, make_generator(3, "source"))
    off = t.astype(np.float64) % 100_000
    off[off > 50_000] -= 100_000
    assert 50 < np.std(off) < 150  # about 200/2.3548 = 85 ps
    assert np.all(np.diff(t) >= 0)


def test_pulse_pair_sequence_layout():
    cfg = PairScanConfig(delta_t_ps=300, pair_period_ps=1000, n_pairs=5)
    t, second = pulse_pair_sequence(cfg, make_generator(1, 1))
    assert t.tolist() == [0, 300, 1000, 1300, 2000, 2300, 3000, 3300, 4000, 4300]
    assert second.tolist() == [False, True] * 5


def test_pulse_pair_sequence_occupancy_thins():
    cfg = PairScanConfig(delta_t_ps=300, pair_period_ps=1000, n_pairs=4000, occupancy=0.25)
    t, second = pulse_pair_sequence(cfg, make_generator(1, 1))
    n1 = int((~second).sum())
    n2 = int(second.sum())
    assert abs(n1 - 1000) < 5 * np.sqrt(1000)
    assert abs(n2 - 1000) < 5 * np.sqrt(1000)
    assert np.all(np.diff(t) >= 0)


def test_poisson_times_tops_up_in_fixed_chunks():
    # At 320 cps over 1 s the sized first chunk is 384 gaps, and these fall
    # short of the second, so one more chunk of 1024 gaps is drawn.
    mean_gap = SECOND_PS / 320.0
    rng = np.random.default_rng(3573)
    first = np.rint(rng.exponential(mean_gap, 384)).astype(np.int64)
    top_up = np.rint(rng.exponential(mean_gap, 1024)).astype(np.int64)
    assert first.sum() < SECOND_PS
    times = np.cumsum(np.concatenate([first, top_up]))
    drawn = np.random.default_rng(3573)
    got = poisson_times(drawn, 320.0, SECOND_PS)
    np.testing.assert_array_equal(got, times[times < SECOND_PS])
    # Exactly those draws were taken: the stream goes on where the explicit one does.
    assert drawn.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("rate_cps, duration_ps", [(1e-6, 10**6), (1e12 / 2**58, 2**60)])
def test_poisson_times_never_wrap_at_low_rates(rate_cps, duration_ps):
    # At these rates a chunk of 64 gaps sums past int64. Only the times up to
    # the first one past the end are read, and they stay exact.
    rng = np.random.default_rng(5)
    t = poisson_times(rng, rate_cps, duration_ps)
    gaps = np.rint(np.random.default_rng(5).exponential(1e12 / rate_cps, 64)).tolist()
    expected = [s for s in itertools.accumulate(int(g) for g in gaps) if s < duration_ps]
    assert t.tolist() == expected


def test_pair_scan_needs_at_least_one_pair():
    # Rejected by the scan's own config, before the detector sees an empty run.
    with pytest.raises(ValueError, match=r"^n_pairs must be >= 1, got 0$"):
        run_pair_scan(preset("spcm-aqrh").params, PairScan([20_000], 1_000_000, 0), seed=1)


def test_correlated_pair_stream_tags_and_losses():
    cfg = EntangledPairConfig(
        rep_rate_hz=1e9,
        mean_pairs_per_pulse=0.05,
        duration_ps=20_000_000,
        eta_alice=0.8,
        eta_bob=0.4,
    )
    s = correlated_pair_stream(cfg, make_generator(4, "source"))
    assert np.all(np.diff(s.alice_times) >= 0)
    assert np.all(np.diff(s.bob_times) >= 0)
    n_emitted = 0.05 * (20_000_000 // 1000)
    assert abs(s.alice_times.size - 0.8 * n_emitted) < 5 * np.sqrt(0.8 * n_emitted)
    assert abs(s.bob_times.size - 0.4 * n_emitted) < 5 * np.sqrt(0.4 * n_emitted)
    # With no emission smear the two arms see identical times per pair id.
    common, ia, ib = np.intersect1d(
        s.alice_pair_ids, s.bob_pair_ids, assume_unique=True, return_indices=True
    )
    assert common.size > 0
    assert np.array_equal(s.alice_times[ia], s.bob_times[ib])


def test_correlated_pair_stream_is_reproducible():
    cfg = EntangledPairConfig(rep_rate_hz=1e9, mean_pairs_per_pulse=0.02, duration_ps=10_000_000)
    a = correlated_pair_stream(cfg, make_generator(5, "source"))
    b = correlated_pair_stream(cfg, make_generator(5, "source"))
    assert np.array_equal(a.alice_times, b.alice_times)
    assert np.array_equal(a.bob_pair_ids, b.bob_pair_ids)


def _comb_pulsed_train(cfg, rng):
    """Oracle: pulsed_train built on the materialised comb round(i * period)."""
    n_pulses = int(cfg.duration_ps / cfg.period_ps) + 1
    centers = np.rint(np.arange(n_pulses) * cfg.period_ps).astype(np.int64)
    k = int(rng.poisson(cfg.mean_photons_per_pulse * n_pulses))
    times = centers[np.sort(rng.integers(0, n_pulses, size=k))]
    if cfg.pulse_fwhm_ps > 0:
        times = times + np.rint(
            rng.standard_normal(k) * (cfg.pulse_fwhm_ps * FWHM_TO_SIGMA)
        ).astype(np.int64)
    return np.sort(times[(times >= 0) & (times < cfg.duration_ps)])


def _comb_pair_stream(cfg, rng):
    """Oracle: correlated_pair_stream built on the materialised comb."""
    period = SECOND_PS / cfg.rep_rate_hz
    n_pulses = int(cfg.duration_ps / period) + 1
    pulse_times = np.rint(np.arange(n_pulses) * period).astype(np.int64)
    k = int(rng.poisson(cfg.mean_pairs_per_pulse * n_pulses))
    emit = pulse_times[np.sort(rng.integers(0, n_pulses, size=k))]
    if cfg.emission_fwhm_ps > 0:
        emit = emit + np.rint(
            rng.standard_normal(k) * (cfg.emission_fwhm_ps * FWHM_TO_SIGMA)
        ).astype(np.int64)
    ids = np.arange(k, dtype=np.int64)
    keep_a = rng.random(k) < cfg.eta_alice if cfg.eta_alice < 1.0 else np.ones(k, dtype=bool)
    keep_b = rng.random(k) < cfg.eta_bob if cfg.eta_bob < 1.0 else np.ones(k, dtype=bool)
    in_window = (emit >= 0) & (emit < cfg.duration_ps)
    arms = []
    for keep in (keep_a & in_window, keep_b & in_window):
        order = np.argsort(emit[keep], kind="stable")
        arms.append((emit[keep][order], ids[keep][order]))
    return arms


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


FRACTIONAL_PERIODS = [SECOND_PS / 1.92e9, SECOND_PS / 3e9]


@pytest.mark.parametrize("period", [400, 1000, 7] + FRACTIONAL_PERIODS)
@pytest.mark.parametrize("fwhm", [0.0, 150.0])
@pytest.mark.parametrize("seed", [1, 7])
def test_pulsed_train_matches_comb_oracle(period, fwhm, seed):
    cfg = PulsedSourceConfig(
        period_ps=period, mean_photons_per_pulse=0.3, duration_ps=20_000_001, pulse_fwhm_ps=fwhm
    )
    got = pulsed_train(cfg, make_generator(seed, "source"))
    want = _comb_pulsed_train(cfg, make_generator(seed, "source"))
    assert got.size > 1000
    assert_same_bytes(got, want)


@pytest.mark.parametrize("rep_rate", [1.92e9, 3e9, 1e9, 76e6])
@pytest.mark.parametrize("fwhm", [0.0, 40.0])
@pytest.mark.parametrize("etas", [(1.0, 1.0), (0.8, 0.35)])
def test_correlated_pair_stream_matches_comb_oracle(rep_rate, fwhm, etas):
    cfg = EntangledPairConfig(
        rep_rate_hz=rep_rate,
        mean_pairs_per_pulse=0.05,
        duration_ps=30_000_000,
        eta_alice=etas[0],
        eta_bob=etas[1],
        emission_fwhm_ps=fwhm,
    )
    s = correlated_pair_stream(cfg, make_generator(9, "source"))
    (ta, ia), (tb, ib) = _comb_pair_stream(cfg, make_generator(9, "source"))
    assert s.alice_times.size > 50
    assert_same_bytes(s.alice_times, ta)
    assert_same_bytes(s.alice_pair_ids, ia)
    assert_same_bytes(s.bob_times, tb)
    assert_same_bytes(s.bob_pair_ids, ib)


def test_pulsed_train_memory_scales_with_photons():
    # A 4M-pulse comb at 1e-4 photons per pulse: about 400 photons. A
    # materialised comb alone would take 32 MB.
    cfg = PulsedSourceConfig(
        period_ps=1000, mean_photons_per_pulse=1e-4, duration_ps=4_000_000_000
    )
    rng = make_generator(7, "source")
    tracemalloc.start()
    try:
        t = pulsed_train(cfg, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 200 < t.size < 600
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def _sorted_pair_sequence(cfg, rng):
    """Oracle: pulse_pair_sequence as the first slots, then the second ones, stably sorted."""
    def kept():
        if cfg.occupancy < 1:
            return rng.random(cfg.n_pairs) < cfg.occupancy
        return np.ones(cfg.n_pairs, dtype=bool)

    base = np.arange(cfg.n_pairs, dtype=np.int64) * cfg.pair_period_ps
    keep1, keep2 = kept(), kept()
    times = np.concatenate([base[keep1], base[keep2] + cfg.delta_t_ps])
    flags = np.concatenate(
        [np.zeros(int(keep1.sum()), dtype=bool), np.ones(int(keep2.sum()), dtype=bool)]
    )
    order = np.argsort(times, kind="stable")
    return times[order], flags[order]


def _intersected_pair_point(i, cfg, params, seed):
    """Oracle: a pair-scan point paired by intersecting the first and second pulses' pair ids."""
    times, is_second = _sorted_pair_sequence(cfg, make_generator(seed, SCAN_BASE + i))
    period = cfg.pair_period_ps
    rec = detect(times, params, make_generator(seed, DETECTOR_SCAN_BASE + i), cfg.n_pairs * period)
    hit = rec.arrival_index >= 0
    second = np.zeros(len(rec), dtype=bool)
    second[hit] = is_second[rec.arrival_index[hit]]
    in1 = hit & ~second
    in2 = hit & second
    pairs1 = rec.origin_times[in1] // period
    pairs2 = (rec.origin_times[in2] - cfg.delta_t_ps) // period
    common, ia, ib = np.intersect1d(pairs1, pairs2, assume_unique=True, return_indices=True)
    out1 = rec.out_times[in1][ia]
    out2 = rec.out_times[in2][ib]
    return PairScanPoint(
        delta_t_ps=cfg.delta_t_ps,
        n_pairs=int(np.count_nonzero(~is_second)),
        n_first=int(np.count_nonzero(in1)),
        n_both=int(common.size),
        intervals=out2 - out1,
        pair_idx=common,
        out2=out2,
        cause2=rec.causes[in2][ib],
    )


@pytest.mark.parametrize("name", ["spcm-aqrh", "custom-aq", "spd-050"])
@pytest.mark.parametrize("occupancy", [1.0, 0.7, 0.2])
def test_pair_points_match_intersect_oracle(name, occupancy):
    # Spacings inside the quench, the twilight window and past the dead time,
    # and at the edges 1 and P - 1. At P / 2 a second photon lies exactly
    # delta_t before the next pair's first, so a gap of delta_t alone does not
    # make a pair.
    params = preset(name).params
    period = 200_000
    quench, dead = params.tau_quench_ps, params.tau_dead0_ps
    spacings = [1, quench // 2, (quench + dead) // 2, dead + 3_000, period // 2, period - 1]
    for seed in (1, 2):
        for i, dt in enumerate(spacings):
            cfg = PairScanConfig(dt, period, 300, occupancy)
            rng, oracle_rng = make_generator(seed, i), make_generator(seed, i)
            got, want = pulse_pair_sequence(cfg, rng), _sorted_pair_sequence(cfg, oracle_rng)
            for g, w in zip(got, want):
                assert_same_bytes(g, w)
            # Both took the same draws: their next raw outputs agree.
            raw = rng.bit_generator.random_raw(4)
            assert np.array_equal(raw, oracle_rng.bit_generator.random_raw(4))
            got = _run_pair_point(i, cfg, params, seed)
            want = _intersected_pair_point(i, cfg, params, seed)
            for f in dataclass_fields(PairScanPoint):
                g, w = getattr(got, f.name), getattr(want, f.name)
                if isinstance(w, np.ndarray):
                    assert_same_bytes(g, w)
                else:
                    assert type(g) is type(w) and g == w, (name, dt, f.name)
