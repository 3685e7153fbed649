"""End-to-end acceptance checks.

Each test exercises one numbered claim about the simulator (timing formulas,
calibration round trips, hard output invariants, orderings between detector
designs, determinism) and records a one-line PASS/FAIL verdict that the
terminal summary prints as `[criterion NN]`.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import check
from spadsim import (
    Cause,
    CwSourceConfig,
    EntangledPairConfig,
    FrameConfig,
    KeyRateInputs,
    PairScan,
    PulsedSourceConfig,
    autocorrelation,
    circuit_timing,
    detect,
    distinguishability,
    effective_dead_time,
    make_generator,
    preset,
    pulsed_train,
    run_autocorr,
    run_interarrival,
    run_pair_scan,
    run_qkd_scenario,
    secret_key_rate,
    shift_and_jitter_vs_dt,
)
from spadsim.cli import main
from spadsim.detector import _blanking_keep
from spadsim.rng import DETECTOR_SCAN_BASE, SCAN_BASE

SPCM = preset("spcm-aqrh").params
CUSTOM = preset("custom-aq").params
SPD = preset("spd-050").params

PAIR_RATE_1_92GHZ = EntangledPairConfig(
    rep_rate_hz=1.92e9, mean_pairs_per_pulse=0.008, duration_ps=5_000_000_000
)
FRAME_521 = FrameConfig(bin_width_ps=521, bins_per_frame=1024)


@pytest.fixture(scope="module")
def qkd_spcm():
    return run_qkd_scenario(
        PAIR_RATE_1_92GHZ, SPCM, SPCM, FRAME_521, 1, cc_bin_width_ps=521, cc_span_ps=60_000
    )


@pytest.fixture(scope="module")
def qkd_custom():
    return run_qkd_scenario(
        PAIR_RATE_1_92GHZ, CUSTOM, CUSTOM, FRAME_521, 1, cc_bin_width_ps=521, cc_span_ps=60_000
    )


@pytest.fixture(scope="module")
def qkd_spd():
    return run_qkd_scenario(
        PAIR_RATE_1_92GHZ, SPD, SPD, FRAME_521, 1, cc_bin_width_ps=521, cc_span_ps=60_000
    )


def test_criterion_01_quench_loop_timing():
    qt = circuit_timing(6000, 4500, 500)
    got = (qt.tau_twilight_ps, qt.tau_quench_ps, qt.tau_dead_ps)
    check(
        1,
        got == (5500, 10500, 21500),
        f"circuit timing (5500, 10500, 21500) ps, got {got}",
    )


def test_criterion_02_interarrival_round_trip():
    t0 = time.monotonic()
    res = run_interarrival(
        SPCM, CwSourceConfig(76_923.0, 8_000_000_000_000), 12345,
        bin_width_ps=500, span_ps=2_048_000,
    )
    dark = run_interarrival(SPCM, CwSourceConfig(0.0, 2_000_000_000_000), 12345, analyze=False)
    elapsed = time.monotonic() - t0

    dead = res.dead_time_ps
    p_ap = res.afterpulse.p_afterpulse
    tau = res.afterpulse.tau_trap_ps
    n_dark = dark.n_pulses
    dark_sigma = 3.0 * math.sqrt(726.0 * 2.0)
    ok = (
        res.n_pulses >= 60_000
        and abs(dead - 29_100.0) <= 500.0
        and abs(p_ap - 0.0068) <= 0.0015
        and abs(tau - 32_000.0) <= 4_000.0
        and abs(n_dark - 726.0 * 2.0) <= dark_sigma
        and elapsed < 30.0
    )
    check(
        2,
        ok,
        f"n={res.n_pulses}, dead={dead / 1000.0:.3f} ns, p_ap={100 * p_ap:.3f}%, "
        f"tau_trap={tau / 1000.0:.2f} ns, dark pulses {n_dark} vs 1452 +/- {dark_sigma:.0f}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_03_pair_jitter_root_two():
    t0 = time.monotonic()
    points = run_pair_scan(SPCM, PairScan([200_000], 1_000_000, 20_000), 1)
    curve = shift_and_jitter_vs_dt([(p.delta_t_ps, p.intervals) for p in points])
    elapsed = time.monotonic() - t0
    fwhm = float(curve.fwhms[0])
    expected = math.sqrt(2.0) * 335.0
    ok = abs(fwhm - 472.0) <= 15.0 and elapsed < 30.0
    check(
        3,
        ok,
        f"pair FWHM {fwhm:.1f} ps vs sqrt(2)*335 = {expected:.1f} (472 +/- 15), {elapsed:.1f} s",
    )


def test_criterion_04_blanking_invariant_and_oracle():
    res = run_interarrival(CUSTOM, CwSourceConfig(40.0e6, 70_000_000_000), 2, analyze=False)
    rec_gap_ok = res.n_pulses >= 1_000_000
    # The interarrival histogram has 1000 ps bins from 0 and 24000 is a bin
    # edge, so an empty underflow and empty first 24 bins mean exactly that
    # every gap is >= 24000 ps.
    h = res.histogram
    assert h.origin_ps == 0 and 24_000 % h.bin_width_ps == 0
    short_gaps = h.underflow + int(h.counts[: 24_000 // h.bin_width_ps].sum())

    rng = np.random.default_rng(2)
    oracle_ok = True
    for _ in range(10_000):
        n = int(rng.integers(0, 40))
        times = np.sort(rng.integers(0, 300_000, size=n).astype(np.int64))
        t_b = int(rng.integers(1, 60_000))
        kept = times[_blanking_keep(times, t_b)].tolist()
        expect = []
        for t in times.tolist():
            if not any(0 <= t - s < t_b for s in expect):
                expect.append(t)
        if kept != expect:
            oracle_ok = False
            break

    ok = rec_gap_ok and short_gaps == 0 and oracle_ok
    check(
        4,
        ok,
        f"{res.n_pulses} pulses, {short_gaps} gaps below 24000 ps, "
        f"quadratic oracle {'matched' if oracle_ok else 'MISMATCH'} on 10000 trains",
    )


def test_criterion_05_twilight_placement_and_windows():
    period = 1_000_000

    # Second photons landing in the twilight zone must come out only after
    # the dead period of the first avalanche has elapsed.
    placement_ok = True
    exact = 0
    total = 0
    twilight = PairScan([12_000, 16_000, 20_000, 24_000, 28_000], period, 4000)
    for p in run_pair_scan(SPCM, twilight, 2):
        if not np.all(p.cause2 == int(Cause.TWILIGHT)):
            placement_ok = False
        floor = p.pair_idx * period + SPCM.tau_dead0_ps + SPCM.base_delay_ps
        if not np.all(p.out2 >= floor):
            placement_ok = False
        exact += int(np.count_nonzero(p.out2 == floor))
        total += len(p.out2)
    sharp_frac = exact / total if total else 0.0

    custom_open = replace(CUSTOM, blanking=None)
    for p in run_pair_scan(custom_open, PairScan([17_000, 19_000, 21_000], period, 4000), 3):
        if not np.all(p.cause2 == int(Cause.TWILIGHT)):
            placement_ok = False
        floor = p.pair_idx * period + CUSTOM.tau_dead0_ps + CUSTOM.base_delay_ps
        if not np.all(p.out2 >= floor):
            placement_ok = False

    def rise_width(dts, ratios):
        r = np.asarray(ratios, dtype=np.float64)
        top = r.max()
        xs = []
        for level in (0.1 * top, 0.9 * top):
            x = None
            for i in range(1, len(r)):
                if r[i - 1] < level <= r[i]:
                    f = (level - r[i - 1]) / (r[i] - r[i - 1])
                    x = dts[i - 1] + f * (dts[i] - dts[i - 1])
                    break
            xs.append(x)
        lo, hi = xs
        return None if lo is None or hi is None else hi - lo

    # Blanked custom detector: the reappearance edge of the second pulse.
    dts_c = list(range(22_500, 25_501, 250))
    pts_c = run_pair_scan(CUSTOM, PairScan(dts_c, period, 2500), 4)
    ratios_c = [p.n_both / p.n_first for p in pts_c]
    width_c = rise_width(dts_c, ratios_c)

    # Inside the twilight zone nothing may leak past the blanking stage.
    blanked = run_pair_scan(CUSTOM, PairScan([17_000, 19_000, 21_000], period, 1200), 5)
    leak = sum(p.n_both for p in blanked)

    dts_s = list(range(11_000, 29_001, 2000))
    pts_s = run_pair_scan(SPCM, PairScan(dts_s, period, 2500), 6)
    ratios_s = [p.n_both / p.n_first for p in pts_s]
    width_s = rise_width(dts_s, ratios_s)

    ok = (
        placement_ok
        and sharp_frac >= 0.99
        and leak == 0
        and width_c is not None
        and width_c < 1500.0
        and width_s is not None
        and width_s >= 5000.0
    )
    check(
        5,
        ok,
        f"placement {'ok' if placement_ok else 'VIOLATED'} ({sharp_frac:.4f} exactly at dead end), "
        f"blanked window {0 if width_c is None else width_c:.0f} ps (< 1500), "
        f"{leak} leaks, open window {0 if width_s is None else width_s:.0f} ps (>= 5000)",
    )


def test_criterion_06_elongation_endpoints_and_stable_gap():
    lo = effective_dead_time(0.0, CUSTOM)
    hi = effective_dead_time(30.0e6, CUSTOM)
    endpoints_ok = lo == 21_500.0 and hi == 23_500.0

    gaps = {}
    for rate, duration in ((0.5e6, 1_200_000_000_000), (3.0e6, 400_000_000_000),
                           (10.0e6, 200_000_000_000), (30.0e6, 100_000_000_000)):
        from spadsim.sources import CwSourceConfig, cw_poisson_stream

        arrivals = cw_poisson_stream(
            CwSourceConfig(rate_cps=rate, duration_ps=duration), make_generator(7, "source")
        )
        rec = detect(arrivals, CUSTOM, make_generator(7, "detector"), duration)
        gaps[rate] = int(np.diff(rec.out_times).min())
    gaps_ok = all(24_000 <= g < 24_100 for g in gaps.values())

    shown = ", ".join(f"{r / 1e6:g} Mcps: {g}" for r, g in gaps.items())
    check(
        6,
        endpoints_ok and gaps_ok,
        f"effective dead time {lo / 1000:.1f}/{hi / 1000:.1f} ns, blanked min gaps [{shown}] ps",
    )


def test_criterion_07_shift_calibration():
    xs = np.array([x for x, _ in SPCM.shift_curve], dtype=np.float64)
    ys = np.array([y for _, y in SPCM.shift_curve], dtype=np.float64)
    dense = np.arange(50_001, 300_000, dtype=np.float64)
    tail_ok = bool(np.all(np.interp(dense, xs, ys) < 100.0))

    points = run_pair_scan(SPCM, PairScan([30_000, 50_000, 90_000, 150_000], 250_000, 5000), 3)
    curve = shift_and_jitter_vs_dt([(p.delta_t_ps, p.intervals) for p in points])
    peak = float(np.nanmax(curve.shifts))
    ordered = bool(np.all(np.diff(curve.shifts) < 0))
    ok = tail_ok and abs(peak - 855.0) <= 50.0 and ordered
    check(
        7,
        ok,
        f"shift < 100 ps beyond 50 ns: {tail_ok}, peak shift {peak:.0f} ps at 4 Mcps "
        f"(855 +/- 50), relaxation monotone: {ordered}",
    )


def test_criterion_08_key_rate_formula():
    rng = np.random.default_rng(12345)
    scaling_ok = True
    for _ in range(100):
        m = int(rng.integers(0, 65))
        eta = float(rng.uniform(0.0, 0.5))
        n_mean = float(rng.uniform(0.0, 5.0))
        xi = float(rng.uniform(0.0, 1.0))
        bw = float(rng.uniform(1.0, 1e6))
        base = secret_key_rate(KeyRateInputs(m, eta, n_mean, xi, bw))
        checks = (
            (secret_key_rate(KeyRateInputs(2 * m, eta, n_mean, xi, bw)), 2.0 * base),
            (secret_key_rate(KeyRateInputs(m, 2.0 * eta, n_mean, xi, bw)), 4.0 * base),
            (secret_key_rate(KeyRateInputs(m, eta, 3.0 * n_mean, xi, bw)), 3.0 * base),
            (secret_key_rate(KeyRateInputs(m, eta, n_mean, 2.0 * xi, bw)), 2.0 * base),
            (secret_key_rate(KeyRateInputs(m, eta, n_mean, xi, bw / 2.0)), 2.0 * base),
        )
        for got, want in checks:
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300):
                scaling_ok = False
    hand = secret_key_rate(KeyRateInputs(1, 0.1, 0.001, 8.0, 260.0))
    hand_ok = math.isclose(hand, 8.0e-5 / 260.0e-12, rel_tol=1e-12) and abs(
        hand - 3.077e5
    ) <= 0.001e5
    check(
        8,
        scaling_ok and hand_ok,
        f"scaling laws on 100 random inputs: {scaling_ok}; worked example {hand:.6g} bits/s "
        f"(3.077e5)",
    )


def test_criterion_09_qkd_orderings(qkd_custom, qkd_spd):
    t0 = time.monotonic()
    src = PulsedSourceConfig(
        period_ps=521, mean_photons_per_pulse=0.002, duration_ps=20_000_000_000
    )
    v_custom = run_autocorr(CUSTOM, src, 4, max_lag_ps=60_000, bin_width_ps=100)
    v_spcm = run_autocorr(SPCM, src, 4, max_lag_ps=60_000, bin_width_ps=100)
    d_custom = distinguishability(v_custom.histogram, 521.0)
    d_spcm = distinguishability(v_spcm.histogram, 521.0)
    margin = d_custom - d_spcm

    # Visibility against the pulse period at a fixed incident flux of 2 Mcps:
    # the same optical power on a finer comb, so only the comb spacing
    # changes. Point i draws from the scan streams SCAN_BASE + i and
    # DETECTOR_SCAN_BASE + i, in bins of an eighth of a period over a lag
    # of 30,000 periods; a long lag dilutes the ripple after the dead time.
    periods = (496, 448, 400)
    vis = []
    for i, period in enumerate(periods):
        train = PulsedSourceConfig(period, 2.0e6 * period * 1e-12, 18_000_000_000)
        arrivals = pulsed_train(train, make_generator(8, SCAN_BASE + i))
        rec = detect(arrivals, SPCM, make_generator(8, DETECTOR_SCAN_BASE + i), train.duration_ps)
        bw = period // 8
        h = autocorrelation(rec.out_times, (period * 30_000 // bw) * bw + bw, bw)
        vis.append(distinguishability(h, float(period)))
    t_sweep = time.monotonic() - t0
    monotone = all(a > b for a, b in zip(vis, vis[1:]))

    rates = (
        qkd_custom.singles_rate_a_cps,
        qkd_custom.singles_rate_b_cps,
        qkd_spd.singles_rate_a_cps,
        qkd_spd.singles_rate_b_cps,
    )
    saturated = all(r >= 2.0e6 for r in rates)
    heralding_ok = qkd_custom.heralding > qkd_spd.heralding

    ok = margin > 0.2 and monotone and saturated and heralding_ok and t_sweep < 120.0
    vis_txt = ", ".join(f"{p}: {v:.4f}" for p, v in zip(periods, vis))
    check(
        9,
        ok,
        f"distinguishability margin {margin:.3f} (> 0.2), visibility [{vis_txt}] monotone: "
        f"{monotone}, heralding {qkd_custom.heralding:.3f} > {qkd_spd.heralding:.3f} at "
        f">= 2 Mcps singles: {saturated}, sweeps {t_sweep:.0f} s",
    )


def _cluster_z(hist, edge_ps: int, n_w: int = 3, n_b: int = 24) -> float:
    """Excess of the n_w bins at the recovery edge over a linear baseline.

    The baseline is fit to the n_b bins that follow the window, so the slow
    renewal decay after the notch is removed and only a sharp local cluster
    registers. Returned in units of the baseline's residual scatter.
    """
    bw = hist.bin_width_ps
    starts = hist.bin_starts
    counts = hist.counts.astype(np.float64)
    w_start = (edge_ps // bw) * bw
    wm = (starts >= w_start) & (starts < w_start + n_w * bw)
    bm = (starts >= w_start + n_w * bw) & (starts < w_start + (n_w + n_b) * bw)
    w, b = counts[wm], counts[bm]
    xw, xb = starts[wm].astype(np.float64), starts[bm].astype(np.float64)
    coef = np.polyfit(xb, b, 1)
    spread = float((b - np.polyval(coef, xb)).std(ddof=2))
    if spread == 0.0:
        return float("inf")
    x_bar = xb.mean()
    sxx = float(((xb - x_bar) ** 2).sum())
    leverage = float(np.mean(1.0 / len(b) + (xw - x_bar) ** 2 / sxx))
    se = spread * math.sqrt(1.0 / len(w) + leverage)
    return float((w.mean() - np.polyval(coef, xw).mean()) / se)


def test_criterion_10_crosscorr_twilight_peak(qkd_spcm, qkd_custom):
    z_spcm = _cluster_z(qkd_spcm.crosscorr, SPCM.tau_dead0_ps)
    z_custom = _cluster_z(qkd_custom.crosscorr, CUSTOM.blanking.t_b_ps)
    ok = z_spcm > 3.0 and z_custom < 1.0
    check(
        10,
        ok,
        f"post-dead-time excess z = {z_spcm:.1f} sigma (> 3) for the twilighting detector, "
        f"z = {z_custom:.2f} sigma (< 1) for the blanked one",
    )


def test_criterion_11_byte_identical_reruns(tmp_path, capsys):
    configs = {
        "interarrival": {
            "version": 1, "kind": "interarrival", "seed": 9,
            "detector": {"preset": "spcm-aqrh"},
            "source": {"rate_cps": 76_923.0, "duration_ps": 50_000_000_000},
            "instrument": {"analyze": False},
            "outputs": {"histogram_csv": "hist.csv", "summary_json": "summary.json"},
        },
        "pair-scan": {
            "version": 1, "kind": "pair-scan", "seed": 9,
            "detector": {"preset": "custom-aq"},
            "source": {"delta_ts_ps": [20_000, 40_000], "pair_period_ps": 1_000_000,
                       "n_pairs": 300},
            "outputs": {"curve_csv": "curve.csv", "points_csv": "points.csv",
                        "summary_json": "summary.json"},
        },
        "autocorr": {
            "version": 1, "kind": "autocorr", "seed": 9,
            "detector": {"preset": "spcm-aqrh"},
            "source": {"period_ps": 521, "mean_photons_per_pulse": 0.005,
                       "duration_ps": 200_000_000},
            "instrument": {"max_lag_ps": 60_000, "bin_width_ps": 100},
            "outputs": {"histogram_csv": "hist.csv", "summary_json": "summary.json"},
        },
        "qkd": {
            "version": 1, "kind": "qkd", "seed": 9,
            "detector_a": {"preset": "custom-aq"},
            "detector_b": {"preset": "spcm-aqrh"},
            "source": {"rep_rate_hz": 1.92e9, "mean_pairs_per_pulse": 0.005,
                       "duration_ps": 200_000_000},
            "frame": {"bin_width_ps": 521},
            "outputs": {"report_json": "report.json", "crosscorr_csv": "cc.csv"},
        },
        "keyrate": {
            "version": 1, "kind": "keyrate", "seed": 9,
            "inputs": {"m_channels": 8, "eta": 0.1, "n_mean": 1.0, "xi": 0.001,
                       "bin_width_ps": 260},
            "outputs": {"summary_json": "summary.json"},
        },
    }
    mismatches = []
    for kind, doc in configs.items():
        runs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{kind}-{attempt}"
            out.mkdir()
            run_doc = dict(doc, outputs={k: str(out / v) for k, v in doc["outputs"].items()})
            cfg_path = tmp_path / f"{kind}-{attempt}.json"
            cfg_path.write_text(json.dumps(run_doc))
            code = main(["simulate", str(cfg_path)])
            capsys.readouterr()
            if code != 0:
                mismatches.append(f"{kind} exited {code}")
            runs.append(
                {
                    v: (out / v).read_bytes() if (out / v).exists() else None
                    for v in doc["outputs"].values()
                }
            )
        for name in doc["outputs"].values():
            if runs[0][name] is None or runs[0][name] != runs[1][name]:
                mismatches.append(f"{kind}:{name}")
    check(
        11,
        not mismatches,
        "all rerun outputs byte-identical across 5 scenario kinds"
        if not mismatches
        else f"differences in {mismatches}",
    )
