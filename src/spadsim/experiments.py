"""Characterization experiment drivers.

Each driver wires a photon source, one detector, and the virtual
instruments into a complete measurement: interarrival spectroscopy, pair
scans (twilight/shift/jitter curves), and pulsed autocorrelation runs. Scan
points get independent derived rng streams, so each point's result depends
only on the seed and its own index.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .analysis import (
    AfterpulseResult,
    afterpulse_spectroscopy,
    distinguishability,
    estimate_dead_time,
)
from .detector import Cause, DetectorParams, detect
from .instruments import Histogram, autocorrelation, build_histogram
from .rng import DETECTOR_SCAN_BASE, SCAN_BASE, make_generator
from .sources import (
    CwSourceConfig,
    PairScanConfig,
    PulsedSourceConfig,
    cw_poisson_stream,
    pulse_pair_sequence,
    pulsed_train,
)

__all__ = [
    "InterarrivalResult",
    "PairScanPoint",
    "AutocorrResult",
    "run_interarrival",
    "run_pair_scan",
    "run_autocorr",
    "run_visibility_sweep",
]


@dataclass(frozen=True)
class InterarrivalResult:
    """CW interarrival run: histogram plus the quantities read off it."""

    histogram: Histogram
    dead_time_ps: float | None
    afterpulse: AfterpulseResult | None
    detected_rate_cps: float
    n_pulses: int
    cause_counts: dict


def run_interarrival(
    params: DetectorParams,
    source: CwSourceConfig,
    seed: int,
    *,
    bin_width_ps: int = 1000,
    span_ps: int | None = None,
    analyze: bool = True,
    tau_trap_guess_ps: float = 32000.0,
) -> InterarrivalResult:
    """Illuminate with CW light, histogram the output interarrival times,
    and read dead time and afterpulse parameters off the histogram.

    source.rate_cps is the incident photon rate; the detected rate is lower
    by the efficiency. With analyze=False only the histogram and rates are
    produced (for dark-only runs with no visible onset).
    """
    arrivals = cw_poisson_stream(source, make_generator(seed, "source"))
    rec = detect(arrivals, params, make_generator(seed, "detector"), source.duration_ps)
    intervals = np.diff(rec.out_times)
    if span_ps is None:
        span_ps = 4096 * bin_width_ps
    h = build_histogram(intervals, bin_width_ps, span_ps)
    dead = None
    ap = None
    if analyze:
        dead = estimate_dead_time(h)
        ap = afterpulse_spectroscopy(h, dead, tau_trap_guess_ps=tau_trap_guess_ps)
    counts = {c.name.lower(): int(np.count_nonzero(rec.causes == int(c))) for c in Cause}
    return InterarrivalResult(
        histogram=h,
        dead_time_ps=dead,
        afterpulse=ap,
        detected_rate_cps=len(rec) / (source.duration_ps * 1e-12),
        n_pulses=len(rec),
        cause_counts=counts,
    )


@dataclass(frozen=True)
class PairScanPoint:
    """One pair-scan spacing: detection counts and both-detected timing.

    n_pairs counts pair slots whose first photon was emitted; n_first those
    whose first photon was detected; n_both those with both photons
    detected. A pulse is credited to the photon its arrival_index names, so
    darks and afterpulses never count. Arrays intervals/pair_idx/out2/cause2
    are aligned per both-detected pair; intervals holds the second pulse's
    output time minus the first's.
    """

    delta_t_ps: int
    n_pairs: int
    n_first: int
    n_both: int
    intervals: np.ndarray
    pair_idx: np.ndarray
    out2: np.ndarray
    cause2: np.ndarray


def _run_pair_point(i, delta_t, params, pair_period, n_pairs, seed, occupancy) -> PairScanPoint:
    cfg = PairScanConfig(
        delta_t_ps=delta_t, pair_period_ps=pair_period, n_pairs=n_pairs, occupancy=occupancy
    )
    times, is_second = pulse_pair_sequence(cfg, make_generator(seed, SCAN_BASE + i))
    duration = n_pairs * pair_period
    rec = detect(times, params, make_generator(seed, DETECTOR_SCAN_BASE + i), duration)

    hit = rec.arrival_index >= 0
    second = np.zeros(len(rec), dtype=bool)
    second[hit] = is_second[rec.arrival_index[hit]]
    in1 = hit & ~second
    in2 = hit & second
    orig = rec.origin_times
    pairs1 = orig[in1] // pair_period
    pairs2 = (orig[in2] - delta_t) // pair_period
    common, ia, ib = np.intersect1d(pairs1, pairs2, assume_unique=True, return_indices=True)
    out1 = rec.out_times[in1][ia]
    out2 = rec.out_times[in2][ib]
    return PairScanPoint(
        delta_t_ps=delta_t,
        n_pairs=int(np.count_nonzero(~is_second)),
        n_first=int(np.count_nonzero(in1)),
        n_both=int(common.size),
        intervals=out2 - out1,
        pair_idx=common,
        out2=out2,
        cause2=rec.causes[in2][ib],
    )


def run_pair_scan(
    params: DetectorParams,
    delta_ts_ps: Sequence[int],
    pair_period_ps: int,
    n_pairs: int,
    seed: int,
    *,
    occupancy: float = 1.0,
) -> list:
    """Photon-pair scan over a set of pair spacings.

    Every spacing runs with its own derived source and detector streams.
    The returned points feed twilight_curve and shift_and_jitter_vs_dt.
    Occupancy below 1 thins the emitted photons for rate control; the
    count-ratio fields assume occupancy 1 when read as efficiencies.
    """
    return [
        _run_pair_point(i, int(dt), params, int(pair_period_ps), int(n_pairs), seed, occupancy)
        for i, dt in enumerate(delta_ts_ps)
    ]


@dataclass(frozen=True)
class AutocorrResult:
    histogram: Histogram
    n_pulses: int
    detected_rate_cps: float


def run_autocorr(
    params: DetectorParams,
    source: PulsedSourceConfig,
    seed: int,
    *,
    max_lag_ps: int,
    bin_width_ps: int,
) -> AutocorrResult:
    """Pulsed illumination -> detector -> output autocorrelation."""
    arrivals = pulsed_train(source, make_generator(seed, "source"))
    rec = detect(arrivals, params, make_generator(seed, "detector"), source.duration_ps)
    h = autocorrelation(rec.out_times, max_lag_ps, bin_width_ps)
    return AutocorrResult(
        histogram=h,
        n_pulses=len(rec),
        detected_rate_cps=len(rec) / (source.duration_ps * 1e-12),
    )


def _run_visibility_point(i, period, params, photon_rate_cps, duration, seed, n_periods_lag):
    bw = max(int(period) // 8, 1)
    cfg = PulsedSourceConfig(
        period_ps=int(period),
        mean_photons_per_pulse=photon_rate_cps * period * 1e-12,
        duration_ps=duration,
    )
    arrivals = pulsed_train(cfg, make_generator(seed, SCAN_BASE + i))
    rec = detect(arrivals, params, make_generator(seed, DETECTOR_SCAN_BASE + i), duration)
    max_lag = (int(period) * n_periods_lag // bw) * bw + bw
    h = autocorrelation(rec.out_times, max_lag, bw)
    return int(period), distinguishability(h, float(period))


def run_visibility_sweep(
    params: DetectorParams,
    periods_ps,
    seed: int,
    *,
    photon_rate_cps: float,
    duration_ps: int,
    n_periods_lag: int = 120,
) -> list:
    """Distinguishability vs pulse period at fixed incident photon flux.

    Holding the photon rate fixed while the period shrinks re-clocks the
    same optical power onto a finer comb, so the detector's timing-noise
    statistics stay put and only the comb spacing changes. Returns
    (period_ps, visibility) tuples in input order. The lag span covers
    n_periods_lag pulse periods; long spans dilute the renewal ripple that
    follows the dead-time notch.
    """
    return [
        _run_visibility_point(
            i, int(p), params, photon_rate_cps, int(duration_ps), seed, int(n_periods_lag)
        )
        for i, p in enumerate(periods_ps)
    ]
