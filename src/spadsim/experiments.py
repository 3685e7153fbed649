"""Characterization experiment drivers.

Each driver wires a photon source, one detector, and the virtual
instruments into a complete measurement: interarrival spectroscopy, pair
scans (twilight/shift/jitter curves), and pulsed autocorrelation runs. Scan
points get independent derived rng streams, so each point's result depends
only on the seed and its own index.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .analysis import (
    AfterpulseResult,
    afterpulse_spectroscopy,
    estimate_dead_time,
)
from .detector import Cause, DetectorParams, detect
from .instruments import (
    REACH,
    TIME,
    Histogram,
    _check,
    _check_args,
    _check_fields,
    autocorrelation,
    build_histogram,
)
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
    "PairScan",
    "PairScanPoint",
    "AutocorrResult",
    "run_interarrival",
    "run_pair_scan",
    "run_autocorr",
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
    bin_width_ps: Annotated[int, "> 0"] = 1000,
    span_ps: int | None = None,
    analyze: bool = True,
    tau_trap_guess_ps: Annotated[float, ">= 1"] = 32000.0,
) -> InterarrivalResult:
    """Illuminate with CW light, histogram the output interarrival times,
    and read dead time and afterpulse parameters off the histogram.

    source.rate_cps is the incident photon rate; the detected rate is lower
    by the efficiency. With analyze=False only the histogram and rates are
    produced (for dark-only runs with no visible onset).
    """
    _check_args(run_interarrival, locals())
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
    are aligned per both-detected pair, pair_idx ascending; intervals holds
    the second pulse's output time minus the first's.
    """

    delta_t_ps: int
    n_pairs: int
    n_first: int
    n_both: int
    intervals: np.ndarray
    pair_idx: np.ndarray
    out2: np.ndarray
    cause2: np.ndarray


@dataclass(frozen=True)
class PairScan:
    """A pair scan's source: one PairScanConfig per spacing, built once.

    Spacings must be distinct, at least one, each in (0, pair_period_ps);
    `points` holds the configs in input order.
    """

    delta_ts_ps: Sequence[int]
    pair_period_ps: Annotated[int, "> 0"]
    n_pairs: Annotated[int, ">= 1"]
    occupancy: Annotated[float, "(0, 1]"] = 1.0
    points: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_fields(self)
        if len(self.delta_ts_ps) == 0:
            raise ValueError("delta_ts_ps must hold at least one spacing")
        first = {}
        for i, dt in enumerate(self.delta_ts_ps):
            if not 0 < dt < self.pair_period_ps:
                raise ValueError(f"delta_ts_ps[{i}] must lie in (0, pair_period_ps), got {dt}")
            if (j := first.setdefault(dt, i)) != i:
                raise ValueError(f"delta_ts_ps[{i}] repeats delta_ts_ps[{j}], got {dt}")
        _check("n_pairs * pair_period_ps", TIME, self.n_pairs * self.pair_period_ps)
        args = (self.pair_period_ps, self.n_pairs, self.occupancy)
        object.__setattr__(self, "points", tuple(PairScanConfig(dt, *args) for dt in self.delta_ts_ps))


def _run_pair_point(i, cfg: PairScanConfig, params, seed) -> PairScanPoint:
    """One spacing's point, read in arrival order: row_of maps each arrival to its pulse's
    row, -1 for none, and a first-slot arrival's pair is both-detected when the next arrival,
    exactly delta_t later, is its own second and both rows are set."""
    times, is_second = pulse_pair_sequence(cfg, make_generator(seed, SCAN_BASE + i))
    period = cfg.pair_period_ps
    rec = detect(times, params, make_generator(seed, DETECTOR_SCAN_BASE + i), cfg.n_pairs * period)
    hit = np.flatnonzero(rec.arrival_index >= 0)
    row_of = np.full(times.size, -1, dtype=np.int64)
    row_of[rec.arrival_index[hit]] = hit
    lit, first = row_of >= 0, ~is_second
    both = np.flatnonzero(lit[:-1] & lit[1:] & first[:-1] & (np.diff(times) == cfg.delta_t_ps))
    rows2 = row_of[both + 1]
    out2 = rec.out_times[rows2]
    return PairScanPoint(
        delta_t_ps=cfg.delta_t_ps,
        n_pairs=int(np.count_nonzero(first)),
        n_first=int(np.count_nonzero(lit & first)),
        n_both=int(both.size),
        intervals=out2 - rec.out_times[row_of[both]],
        pair_idx=times[both] // period,
        out2=out2,
        cause2=rec.causes[rows2],
    )


def run_pair_scan(params: DetectorParams, source: PairScan, seed: int) -> list:
    """Photon-pair scan over the spacings of `source`.

    Every spacing runs with its own derived source and detector streams.
    The returned points feed twilight_curve and shift_and_jitter_vs_dt.
    Occupancy below 1 thins the emitted photons for rate control; the
    count-ratio fields assume occupancy 1 when read as efficiencies.
    """
    return [_run_pair_point(i, cfg, params, seed) for i, cfg in enumerate(source.points)]


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
    max_lag_ps: Annotated[int, REACH],
    bin_width_ps: Annotated[int, "> 0"],
) -> AutocorrResult:
    """Pulsed illumination -> detector -> output autocorrelation."""
    _check_args(run_autocorr, locals())
    arrivals = pulsed_train(source, make_generator(seed, "source"))
    rec = detect(arrivals, params, make_generator(seed, "detector"), source.duration_ps)
    h = autocorrelation(rec.out_times, max_lag_ps, bin_width_ps)
    return AutocorrResult(
        histogram=h,
        n_pulses=len(rec),
        detected_rate_cps=len(rec) / (source.duration_ps * 1e-12),
    )
