"""The benchmark's four scenario workloads.

Each workload is one CLI scenario kind at a fixed size. `Workload.document`
builds the JSON config for one seed; the scenario itself is run by
`spadsim.cli.main(["simulate", path])`. Every workload also carries:

- the physics envelope its outputs must satisfy for any seed (tolerances
  taken from tests/test_acceptance.py, scaled where noted);
- a preflight that, once per run and outside the timed loop, checks the
  array kernel `detect` against the event-queue oracle `detect_reference`
  byte for byte on a prefix of the workload's own arrivals;
- the spans a traced run must see, so that a refactor that moves an import
  out from under the wrappers fails instead of reading as a speed-up.

Sizes: "full" is the benchmark; "tiny" exists for the self-test, runs in a
fraction of a second, and skips the envelope (its statistics are too thin
for the tolerances).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Arrivals checked against the oracle; the oracle costs ~30 us per event.
ORACLE_PREFIX = 2000


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_hist_csv(path: Path) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Parse Histogram.to_csv output: bin starts, counts, underflow, overflow."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tail = dict(item[1:].split("=") for item in lines[-1].split(","))
    rows = np.array([ln.split(",") for ln in lines[1:-1]], dtype=np.int64).reshape(-1, 2)
    return rows[:, 0], rows[:, 1], int(tail["underflow"]), int(tail["overflow"])


def _within(name: str, value: float, centre: float, tol: float) -> list[str]:
    if not (isinstance(value, (int, float)) and abs(value - centre) <= tol):
        return [f"{name}={value} outside {centre} +/- {tol}"]
    return []


def _at_least(name: str, value: float, floor: float) -> list[str]:
    return [] if value >= floor else [f"{name}={value} below {floor}"]


# --- qkd-link ---------------------------------------------------------------

def _qkd_document(size: str) -> dict:
    duration = 5_000_000_000 if size == "full" else 100_000_000
    return {
        "version": 1,
        "kind": "qkd",
        "detector_a": {"preset": "custom-aq"},
        "detector_b": {"preset": "custom-aq"},
        "source": {
            "rep_rate_hz": 1.92e9,
            "mean_pairs_per_pulse": 0.008,
            "duration_ps": duration,
        },
        "frame": {"bin_width_ps": 521, "bins_per_frame": 1024},
        "instrument": {"cc_bin_width_ps": 521, "cc_span_ps": 60_000},
    }


def _qkd_envelope(files: dict[str, Path]) -> list[str]:
    """Criterion 9: custom-aq arms saturate at >= 2 Mcps singles; heralding is
    a ratio of coincidences to singles; the cross-correlation conserves all
    na * nb pairs across its bins and under/overflow tallies."""
    rep = _read_json(files["report_json"])
    na, nb, nc = rep["singles_a"], rep["singles_b"], rep["n_coincidences"]
    bad = []
    bad += _at_least("singles_rate_a_cps", rep["singles_rate_a_cps"], 2.0e6)
    bad += _at_least("singles_rate_b_cps", rep["singles_rate_b_cps"], 2.0e6)
    if not 0.0 < rep["heralding"] <= 1.0:
        bad.append(f"heralding={rep['heralding']} outside (0, 1]")
    if not 0 < nc <= min(na, nb):
        bad.append(f"n_coincidences={nc} outside (0, min(singles)={min(na, nb)}]")
    if not 0 < rep["n_truth_coincidences"] <= min(na, nb):
        bad.append(f"n_truth_coincidences={rep['n_truth_coincidences']} out of range")
    if not 0.0 <= rep["ber"] <= 1.0:
        bad.append(f"ber={rep['ber']} outside [0, 1]")
    for arm in ("a", "b"):
        d = rep[f"distinguishability_{arm}"]
        if not 0.0 < d < 1.0:
            bad.append(f"distinguishability_{arm}={d} outside (0, 1)")
    _, counts, under, over = _read_hist_csv(files["crosscorr_csv"])
    if int(counts.sum()) + under + over != na * nb:
        bad.append("cross-correlation does not conserve singles_a * singles_b pairs")
    return bad


def _qkd_streams(cfg: dict, seed: int):
    from spadsim import EntangledPairConfig, correlated_pair_stream, make_generator

    src = EntangledPairConfig(
        rep_rate_hz=cfg["rep_rate_hz"],
        mean_pairs_per_pulse=cfg["mean_pairs_per_pulse"],
        duration_ps=cfg["duration_ps"],
        eta_alice=cfg["eta_alice"],
        eta_bob=cfg["eta_bob"],
        emission_fwhm_ps=cfg["emission_fwhm_ps"],
    )
    arms = correlated_pair_stream(src, make_generator(seed, "source"))
    return arms.alice_times, cfg["detector_a"], "detector_a", cfg["duration_ps"]


# --- cw-interarrival --------------------------------------------------------

def _cw_document(size: str) -> dict:
    duration = 2_000_000_000_000 if size == "full" else 400_000_000_000
    return {
        "version": 1,
        "kind": "interarrival",
        "detector": {"preset": "spcm-aqrh"},
        "source": {"rate_cps": 76_923.0, "duration_ps": duration},
        "instrument": {"bin_width_ps": 1000, "span_ps": 2_048_000},
    }


def _cw_envelope(files: dict[str, Path]) -> list[str]:
    """Criterion 2's round trip on 2 s of light in 1000 ps bins instead of
    8 s in 500 ps bins. Its tolerances (dead time 29100 +/- 500 ps,
    p_afterpulse 0.0068 +/- 0.0015) are doubled: the statistical error grows
    as 1/sqrt(duration), and the dead-time estimate is quantised to the bin.
    Over 40 seeds at this size: dead time 28776 +/- 136 ps, p_afterpulse
    0.00728 +/- 0.00034 (mean +/- sd). tau_trap is not checked: at 2 s it
    scatters by 11%, as wide as criterion 2's whole tolerance."""
    s = _read_json(files["summary_json"])
    bad = []
    bad += _at_least("n_pulses", s["n_pulses"], 60_000 / 4)
    bad += _within("dead_time_ps", s.get("dead_time_ps"), 29_100.0, 2 * 500.0)
    bad += _within("p_afterpulse", s.get("p_afterpulse"), 0.0068, 2 * 0.0015)
    _, counts, under, over = _read_hist_csv(files["histogram_csv"])
    if int(counts.sum()) + under + over != s["n_pulses"] - 1:
        bad.append("interarrival histogram does not hold n_pulses - 1 intervals")
    return bad


def _cw_streams(cfg: dict, seed: int):
    from spadsim import CwSourceConfig, cw_poisson_stream, make_generator

    src = CwSourceConfig(rate_cps=cfg["rate_cps"], duration_ps=cfg["duration_ps"])
    arrivals = cw_poisson_stream(src, make_generator(seed, "source"))
    return arrivals, cfg["detector"], "detector", cfg["duration_ps"]


# --- pulsed-autocorr --------------------------------------------------------

def _pulsed_document(size: str) -> dict:
    duration = 18_000_000_000 if size == "full" else 1_000_000_000
    return {
        "version": 1,
        "kind": "autocorr",
        "detector": {"preset": "spcm-aqrh"},
        "source": {
            "period_ps": 400,
            "mean_photons_per_pulse": 8.0e-4,
            "duration_ps": duration,
        },
        "instrument": {"max_lag_ps": 12_000_000, "bin_width_ps": 50},
    }


def _pulsed_envelope(files: dict[str, Path]) -> list[str]:
    """Criterion 9's 400 ps visibility point. No two output pulses of the
    unblanked spcm-aqrh lie closer than 8 ns: consecutive avalanches are at
    least its 10 ns quench phase apart (two twilight pulses, each held to the
    end of its dead period, come out that close), and output jitter of under
    1 ns FWHM cannot close the other 2 ns. The histogram holds every one of
    the n*(n-1)/2 forward pairs, the 400 ps comb is washed out, and the
    detected rate sits where the 2 Mcps incident flux puts it (over 40
    seeds: 1.2765e6 +/- 7.7e3 cps, mean +/- sd)."""
    s = _read_json(files["summary_json"])
    starts, counts, under, over = _read_hist_csv(files["histogram_csv"])
    n = s["n_pulses"]
    bad = []
    if int(counts.sum()) + under + over != n * (n - 1) // 2:
        bad.append("autocorrelation does not hold n*(n-1)/2 forward pairs")
    if int(counts[starts < 8_000].sum()) != 0:
        bad.append("pulse pairs closer than 8 ns, inside the 10 ns quench phase")
    bad += _within("detected_rate_cps", s["detected_rate_cps"], 1.2765e6, 0.05e6)
    if not abs(s["visibility"]) < 0.2:
        bad.append(f"visibility={s['visibility']} not washed out (|v| < 0.2) at 400 ps")
    return bad


def _pulsed_streams(cfg: dict, seed: int):
    from spadsim import PulsedSourceConfig, make_generator, pulsed_train

    src = PulsedSourceConfig(
        period_ps=cfg["period_ps"],
        mean_photons_per_pulse=cfg["mean_photons_per_pulse"],
        duration_ps=cfg["duration_ps"],
        pulse_fwhm_ps=cfg["pulse_fwhm_ps"],
    )
    arrivals = pulsed_train(src, make_generator(seed, "source"))
    return arrivals, cfg["detector"], "detector", cfg["duration_ps"]


# --- jitter-scan ------------------------------------------------------------

_SPACINGS_PS = [30_000, 50_000, 70_000, 90_000, 120_000, 150_000, 200_000, 250_000]


def _jitter_document(size: str) -> dict:
    return {
        "version": 1,
        "kind": "jitter-scan",
        "detector": {"preset": "spcm-aqrh"},
        "source": {
            "delta_ts_ps": _SPACINGS_PS,
            "pair_period_ps": 1_000_000,
            "n_pairs": 10_000 if size == "full" else 1_200,
        },
        "instrument": {"min_pairs": 1000 if size == "full" else 100},
    }


def _jitter_envelope(files: dict[str, Path]) -> list[str]:
    """Criterion 7: peak shift 855 +/- 50 ps at 30 ns, relaxing monotonically
    while it is resolved (30-70 ns) and below 100 ps from 70 ns on. Criterion
    3's pair FWHM, sqrt(2) * 335 ps, is checked on the mean of the 120-250 ns
    points to 20%: with 10k pairs per point the half-maximum fit window is
    noisy (over 40 seeds that mean is 488 +/- 14 ps, mean +/- sd), so
    criterion 3's +/- 15 ps for 20k pairs does not hold here."""
    s = _read_json(files["summary_json"])
    shift = dict(zip(s["delta_ts_ps"], s["shift_ps"]))
    fwhm = dict(zip(s["delta_ts_ps"], s["fwhm_ps"]))
    bad = _within("shift_30000", shift[30_000], 855.0, 50.0)
    resolved = [shift[dt] for dt in (30_000, 50_000, 70_000)]
    if not all(a > b for a, b in zip(resolved, resolved[1:])):
        bad.append(f"shift not decreasing over 30-70 ns: {resolved}")
    far = [dt for dt in _SPACINGS_PS if dt >= 70_000]
    if not all(abs(shift[dt]) < 100.0 for dt in far):
        bad.append(f"shift >= 100 ps beyond 70 ns: {[shift[dt] for dt in far]}")
    pair_fwhm = math.sqrt(2.0) * 335.0
    asymptote = sum(fwhm[dt] for dt in _SPACINGS_PS if dt >= 120_000) / 4
    bad += _within("mean fwhm 120-250 ns", asymptote, pair_fwhm, 0.2 * pair_fwhm)
    return bad


def _jitter_streams(cfg: dict, seed: int):
    from spadsim import PairScanConfig, make_generator, pulse_pair_sequence
    from spadsim.rng import DETECTOR_SCAN_BASE, SCAN_BASE

    src = PairScanConfig(
        delta_t_ps=cfg["delta_ts_ps"][0],
        pair_period_ps=cfg["pair_period_ps"],
        n_pairs=cfg["n_pairs"],
        occupancy=cfg["occupancy"],
    )
    times, _ = pulse_pair_sequence(src, make_generator(seed, SCAN_BASE))
    duration = cfg["n_pairs"] * cfg["pair_period_ps"]
    return times, cfg["detector"], DETECTOR_SCAN_BASE, duration


# --- registry ---------------------------------------------------------------

_COMMON_SPANS = ("cli.main", "config.load_config", "detector.detect")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[str], dict]
    outputs: dict
    envelope: Callable[[dict], list]
    streams: Callable[[dict, int], tuple]
    spans: tuple

    def document(self, seed: int, size: str, out_dir: Path) -> dict:
        doc = self.build(size)
        doc["seed"] = seed
        doc["outputs"] = {k: str(out_dir / v) for k, v in self.outputs.items()}
        return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="qkd-link",
            why="the paper's headline QKD scenario end to end: blanking, high output rate, "
            "every correlator, and the only user of coincidence, cross-correlation and QKD scoring",
            build=_qkd_document,
            outputs={"report_json": "report.json", "crosscorr_csv": "crosscorr.csv"},
            envelope=_qkd_envelope,
            streams=_qkd_streams,
            spans=_COMMON_SPANS
            + (
                "qkd.run_qkd_scenario",
                "sources.correlated_pair_stream",
                "instruments.coincidence",
                "instruments.autocorrelation",
                "instruments.cross_correlation",
                "analysis.distinguishability",
            ),
        ),
        Workload(
            name="cw-interarrival",
            why="the detector does nearly all the work, with afterpulse traps filling the heap; "
            "the Poisson source has no comb, so a source or memory fix must show no change",
            build=_cw_document,
            outputs={"histogram_csv": "hist.csv", "summary_json": "summary.json"},
            envelope=_cw_envelope,
            streams=_cw_streams,
            spans=_COMMON_SPANS
            + (
                "experiments.run_interarrival",
                "sources.cw_poisson_stream",
                "instruments.build_histogram",
                "analysis.estimate_dead_time",
                "analysis.afterpulse_spectroscopy",
            ),
        ),
        Workload(
            name="pulsed-autocorr",
            why="sources and instruments dominate and the detector does little: comb and "
            "correlator work shows here, a detector speed-up should hardly register",
            build=_pulsed_document,
            outputs={"histogram_csv": "hist.csv", "summary_json": "summary.json"},
            envelope=_pulsed_envelope,
            streams=_pulsed_streams,
            spans=_COMMON_SPANS
            + (
                "experiments.run_autocorr",
                "sources.pulsed_train",
                "instruments.autocorrelation",
                "analysis.distinguishability",
            ),
        ),
        Workload(
            name="jitter-scan",
            why="many small detect calls instead of one large one; the only user of the "
            "experiments worker pool and of Gaussian fits",
            build=_jitter_document,
            outputs={"curve_csv": "curve.csv", "summary_json": "summary.json"},
            envelope=_jitter_envelope,
            streams=_jitter_streams,
            spans=_COMMON_SPANS
            + (
                "experiments.run_pair_scan",
                "sources.pulse_pair_sequence",
                "analysis.shift_and_jitter_vs_dt",
                "instruments.gaussian_fit",
            ),
        ),
    )
}


def preflight(workload: Workload, cfg: dict, seed: int) -> list[str]:
    """Oracle agreement and blanking floor on the workload's own arrivals.

    `cfg` is the normalized config (`load_config`) of `seed`. The kernel and
    `detect_reference` must agree byte for byte on the first ORACLE_PREFIX
    arrivals. With blanking configured, the kernel's output over the whole
    stream may hold no gap below t_b.
    """
    from spadsim import detect, detect_reference, make_generator

    arrivals, params, stream, duration = workload.streams(cfg, seed)
    bad = []
    prefix = arrivals[:ORACLE_PREFIX]
    horizon = int(prefix[-1]) + 1
    fast = detect(prefix, params, make_generator(seed, stream), horizon)
    slow = detect_reference(prefix, params, make_generator(seed, stream), horizon)
    for field in ("out_times", "origin_times", "causes"):
        a, b = getattr(fast, field), getattr(slow, field)
        if a.dtype != b.dtype or a.tobytes() != b.tobytes():
            bad.append(f"detect and detect_reference differ in {field} on {prefix.size} arrivals")
    if params.blanking is not None:
        full = detect(arrivals, params, make_generator(seed, stream), duration)
        if full.out_times.size > 1:
            gap = int(np.diff(full.out_times).min())
            if gap < params.blanking.t_b_ps:
                bad.append(f"transmitted gap {gap} ps below t_b {params.blanking.t_b_ps} ps")
    return bad
