"""Time-bin QKD evaluation harness.

An entangled-pair source feeds two simulated detectors (Alice and Bob);
detections are framed into N time bins of width equal to the inverse pulse
rate, coincidences are matched within one bin width, and the harness scores
the channel: rates, heralding efficiency, timing bit error ratio against the
source's ground-truth pair tags, per-arm distinguishability, and the
Alice-Bob cross-correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Annotated

import numpy as np

from .analysis import distinguishability, heralding_efficiency
from .detector import DetectorParams, PulseRecords, detect
from .instruments import (
    DELAY, TIME, Histogram, _check, _check_args, _check_fields, autocorrelation, coincidence,
    cross_correlation,
)
from .rng import make_generator
from .sources import EntangledPairConfig, correlated_pair_stream

__all__ = [
    "FrameConfig", "QkdReport", "check_rep_rate", "correlator_grids", "raw_key_rate",
    "run_qkd_scenario",
]


@dataclass(frozen=True)
class FrameConfig:
    """Time-bin framing: frames of bins_per_frame bins, each bin_width wide.

    The bin width is the inverse pulse repetition rate on the integer-ps
    grid; check_rep_rate holds a source to it.
    """

    bin_width_ps: Annotated[int, "> 0"]
    bins_per_frame: Annotated[int, "> 0"] = 1024

    def __post_init__(self) -> None:
        _check_fields(self)
        n = self.bins_per_frame
        if n < 2 or n & (n - 1) != 0:
            raise ValueError(f"bins_per_frame must be a power of two >= 2, got {n}")
        _check("bins_per_frame * bin_width_ps", TIME, self.frame_length_ps)

    @property
    def frame_length_ps(self) -> int:
        return self.bins_per_frame * self.bin_width_ps


def check_rep_rate(rep_rate_hz: float, bin_width_ps: int) -> None:
    """Raise ValueError unless rep_rate_hz lies within 2% of the rate the bin width implies."""
    implied = 1.0e12 / bin_width_ps
    if abs(rep_rate_hz - implied) > 0.02 * implied:
        raise ValueError(
            f"rep_rate_hz {rep_rate_hz:.6g} does not match the "
            f"{bin_width_ps} ps bin width (implies {implied:.6g} Hz)"
        )


def raw_key_rate(coincidence_rate_cps: float, n_bins: int) -> float:
    """Timing-channel key rate: coincidence rate times log2(bins per frame)."""
    _check("n_bins", ">= 2", n_bins)
    return coincidence_rate_cps * math.log2(n_bins)


@dataclass(frozen=True)
class QkdReport:
    """Scenario scorecard. crosscorr is kept out of the JSON dict; serialize
    it separately as histogram CSV.

    n_truth_coincidences counts the matched coincidences whose two pulses
    were triggered by the two photons of one pair, so it never exceeds
    n_coincidences.
    """

    duration_ps: int
    singles_a: int
    singles_b: int
    singles_rate_a_cps: float
    singles_rate_b_cps: float
    n_coincidences: int
    coincidence_rate_cps: float
    n_truth_coincidences: int
    ber: float
    raw_key_rate_bits_per_s: float
    heralding: float
    distinguishability_a: float
    distinguishability_b: float
    crosscorr: Histogram

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "crosscorr"}


def _pair_ids(rec: PulseRecords, pair_ids: np.ndarray) -> np.ndarray:
    """Ground-truth pair tag per output pulse: the tag of the arrival that
    triggered it, -1 for pulses no photon triggered."""
    out = np.full(len(rec), -1, dtype=np.int64)
    hit = rec.arrival_index >= 0
    out[hit] = pair_ids[rec.arrival_index[hit]]
    return out


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


# A correlator's bin width or span; None takes the default of `correlator_grids`.
Grid = Annotated[int | None, DELAY, "> 0"]


def correlator_grids(
    frame: FrameConfig,
    *,
    ac_bin_width_ps: Grid = None,
    ac_span_ps: Grid = None,
    cc_bin_width_ps: Grid = None,
    cc_span_ps: Grid = None,
) -> tuple[int, int, int, int]:
    """(bin width, span) of the autocorrelator, then of the cross-correlator.

    A bin width left out is frame.bin_width_ps // 8 for the autocorrelator
    and // 4 for the cross-correlator, at least 1 ps; a span left out is
    80 ns and 100 ns. Bin widths and spans lie in (0, 2**58) ps, within the
    delay budget of `instruments`, or raise ValueError naming the argument;
    each span is then rounded up to whole bins, which the correlators take.
    """
    _check_args(correlator_grids, locals())
    ac_bw = ac_bin_width_ps if ac_bin_width_ps is not None else max(frame.bin_width_ps // 8, 1)
    cc_bw = cc_bin_width_ps if cc_bin_width_ps is not None else max(frame.bin_width_ps // 4, 1)
    ac_span = ac_span_ps if ac_span_ps is not None else 80000
    cc_span = cc_span_ps if cc_span_ps is not None else 100000
    return ac_bw, _round_up(ac_span, ac_bw), cc_bw, _round_up(cc_span, cc_bw)


def run_qkd_scenario(
    source: EntangledPairConfig,
    det_a: DetectorParams,
    det_b: DetectorParams,
    frame: FrameConfig,
    seed: int,
    *,
    ac_bin_width_ps: Grid = None,
    ac_span_ps: Grid = None,
    cc_bin_width_ps: Grid = None,
    cc_span_ps: Grid = None,
) -> QkdReport:
    """Simulate the full two-arm scenario and score it.

    The seed derives one independent stream each for the source and the two
    detectors, so changing one detector's parameters never perturbs the
    other arm's randomness. Arm timestamps are compensated by each
    detector's base delay before matching; the coincidence window equals the
    bin width. Bins are evaluated at pulse time + half a bin so that comb
    emissions sit mid-bin rather than on bin edges.

    A coincidence counts as a bit error when either member is a dark or
    afterpulse pulse, when the two members come from different pairs, or
    when either member's bin index differs from that of its true emission
    time. A frame is whole bins, so equal bin indices mean the same frame
    and the same bin in it. `correlator_grids` resolves the correlators' bin
    widths and spans, before anything is simulated.
    """
    check_rep_rate(source.rep_rate_hz, frame.bin_width_ps)
    ac_bw, ac_span, cc_bw, cc_span = correlator_grids(
        frame, ac_bin_width_ps=ac_bin_width_ps, ac_span_ps=ac_span_ps,
        cc_bin_width_ps=cc_bin_width_ps, cc_span_ps=cc_span_ps,
    )
    streams = correlated_pair_stream(source, make_generator(seed, "source"))
    rec_a = detect(streams.alice_times, det_a, make_generator(seed, "detector_a"), source.duration_ps)
    rec_b = detect(streams.bob_times, det_b, make_generator(seed, "detector_b"), source.duration_ps)

    comp_a = rec_a.out_times - det_a.base_delay_ps
    comp_b = rec_b.out_times - det_b.base_delay_ps
    pid_a = _pair_ids(rec_a, streams.alice_pair_ids)
    pid_b = _pair_ids(rec_b, streams.bob_pair_ids)

    matches = coincidence(comp_a, comp_b, frame.bin_width_ps)
    n_c = len(matches)
    ma, mb = matches.idx_a, matches.idx_b
    # Rows: each member's compensated time, then its true emission time.
    times = np.stack((comp_a[ma], comp_b[mb], rec_a.origin_times[ma], rec_b.origin_times[mb]))
    bins = (times + frame.bin_width_ps // 2) // frame.bin_width_ps
    true_pair = (pid_a[ma] >= 0) & (pid_a[ma] == pid_b[mb])
    bad = ~true_pair | (bins[:2] != bins[2:]).any(axis=0)
    n_truth = int(np.count_nonzero(true_pair))
    ber = float(np.count_nonzero(bad)) / n_c if n_c else 0.0

    duration_s = source.duration_ps * 1e-12
    c_rate = n_c / duration_s

    period = 1.0e12 / source.rep_rate_hz
    dist_a = distinguishability(autocorrelation(comp_a, ac_span, ac_bw), period)
    dist_b = distinguishability(autocorrelation(comp_b, ac_span, ac_bw), period)
    cc = cross_correlation(comp_a, comp_b, cc_span, cc_bw)

    return QkdReport(
        duration_ps=source.duration_ps,
        singles_a=len(rec_a),
        singles_b=len(rec_b),
        singles_rate_a_cps=len(rec_a) / duration_s,
        singles_rate_b_cps=len(rec_b) / duration_s,
        n_coincidences=n_c,
        coincidence_rate_cps=c_rate,
        n_truth_coincidences=n_truth,
        ber=ber,
        raw_key_rate_bits_per_s=raw_key_rate(c_rate, frame.bins_per_frame),
        heralding=heralding_efficiency(n_c, len(rec_a), len(rec_b)),
        distinguishability_a=dist_a,
        distinguishability_b=dist_b,
        crosscorr=cc,
    )
