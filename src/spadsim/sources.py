"""Optical input generators.

All sources emit arrival timestamps in integer picoseconds on [0, duration).
Times are drawn, rounded to the picosecond grid, and sorted; generation is
chunked deterministically so results depend only on the rng stream and the
config values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .instruments import DELAY, DURATION, TIME, _check, _check_fields
from .rng import FWHM_TO_SIGMA

__all__ = [
    "PS_PER_S",
    "CwSourceConfig",
    "PulsedSourceConfig",
    "PairScanConfig",
    "EntangledPairConfig",
    "PairStreams",
    "poisson_times",
    "cw_poisson_stream",
    "pulsed_train",
    "pulse_pair_sequence",
    "correlated_pair_stream",
]

PS_PER_S = 1_000_000_000_000


# A rate with a mean gap of at least 1 ps, the time grid.
RATE = "[0, 1e12] cps"


def _check_mean(cfg, name: str, period_ps: float) -> None:
    """Raise ValueError naming `name` unless that field of cfg, the mean emissions per pulse,
    over the run stays below 2**62, under numpy's Poisson limit of about 9.2e18. The field
    declares its own domain, >= 0."""
    mean, pulses = getattr(cfg, name), int(cfg.duration_ps / period_ps) + 1  # as drawn
    if not mean * pulses < 2**62:
        raise ValueError(f"{name} times {pulses} pulses must be < 2**62, got {mean}")


@dataclass(frozen=True)
class CwSourceConfig:
    """Continuous-wave Poissonian source."""

    rate_cps: Annotated[float, RATE]
    duration_ps: Annotated[int, DURATION]

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class PulsedSourceConfig:
    """Pulsed laser: Poisson photon number per pulse, Gaussian pulse envelope."""

    period_ps: Annotated[int, "> 0"]
    mean_photons_per_pulse: Annotated[float, ">= 0"]
    duration_ps: Annotated[int, DURATION]
    pulse_fwhm_ps: Annotated[int, DELAY] = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        _check_mean(self, "mean_photons_per_pulse", self.period_ps)


@dataclass(frozen=True)
class PairScanConfig:
    """Two weak pulses per period, separated by delta_t, for pair-delay scans."""

    delta_t_ps: Annotated[int, "> 0"]
    pair_period_ps: Annotated[int, "> 0"]
    n_pairs: Annotated[int, ">= 1"]
    occupancy: Annotated[float, "(0, 1]"] = 1.0

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.delta_t_ps < self.pair_period_ps:
            raise ValueError(f"delta_t_ps must lie in (0, pair_period_ps), got {self.delta_t_ps}")
        _check("n_pairs * pair_period_ps", TIME, self.n_pairs * self.pair_period_ps)


@dataclass(frozen=True)
class EntangledPairConfig:
    """Pulsed photon-pair source feeding two lossy channels."""

    rep_rate_hz: Annotated[float, "(0, 1e12] Hz"]  # a pulse period of at least 1 ps
    mean_pairs_per_pulse: Annotated[float, ">= 0"]
    duration_ps: Annotated[int, DURATION]
    eta_alice: Annotated[float, "[0, 1]"] = 1.0
    eta_bob: Annotated[float, "[0, 1]"] = 1.0
    emission_fwhm_ps: Annotated[int, DELAY] = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        _check_mean(self, "mean_pairs_per_pulse", PS_PER_S / self.rep_rate_hz)


def poisson_times(rng: np.random.Generator, rate_cps: float, duration_ps: int) -> np.ndarray:
    """Homogeneous Poisson arrival times, integer ps, inside [0, duration).

    Shared by the CW source and the detector's dark-count stream. Gaps are
    drawn in one sized chunk plus fixed 1024-draw top-ups so the consumed
    sample count is a pure function of the drawn values.
    """
    _check("rate_cps", RATE, rate_cps)
    _check("duration_ps", DURATION, duration_ps)
    if rate_cps == 0:
        return np.empty(0, dtype=np.int64)
    mean_gap = PS_PER_S / rate_cps
    n = max(64, int(duration_ps / mean_gap * 1.1) + 32)
    chunks: list[np.ndarray] = []
    t_last = 0
    while True:
        # A gap clamped at the duration still ends the stream, and the sums
        # stay exact up to the first time past the end; later ones may wrap.
        gaps = np.rint(np.minimum(rng.exponential(mean_gap, n), duration_ps)).astype(np.int64)
        times = t_last + np.cumsum(gaps)
        past = times >= duration_ps
        if past.any():
            chunks.append(times[: past.argmax()])
            break
        chunks.append(times)
        t_last = times[-1]
        n = 1024
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def cw_poisson_stream(cfg: CwSourceConfig, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a constant-power coherent source."""
    return poisson_times(rng, cfg.rate_cps, cfg.duration_ps)


def _draw_pulse_times(
    rng: np.random.Generator,
    period_ps: float,
    duration_ps: int,
    mean_per_pulse: float,
    fwhm_ps: int,
) -> np.ndarray:
    """Emission times: pulse centers round(i * period) in sorted order, one per
    emission, each smeared by a Gaussian of FWHM fwhm_ps when that is > 0.

    The emission count is drawn once and placed uniformly over the pulses,
    so a pulse drawn k times appears k times; the smear's normals come
    after those draws. Only the drawn pulse indices become times: memory
    scales with emissions, not with laser pulses.
    """
    n_pulses = int(duration_ps / period_ps) + 1
    k = int(rng.poisson(mean_per_pulse * n_pulses))
    idx = np.sort(rng.integers(0, n_pulses, size=k))
    times = np.rint(idx * period_ps).astype(np.int64)
    if fwhm_ps > 0:
        times += np.rint(rng.standard_normal(k) * (fwhm_ps * FWHM_TO_SIGMA)).astype(np.int64)
    return times


def _kept(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """A mask of n independent draws, each kept with probability p; p = 1 draws nothing."""
    return rng.random(n) < p if p < 1.0 else np.ones(n, dtype=bool)


def pulsed_train(cfg: PulsedSourceConfig, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a periodic pulsed source.

    Pulse centers sit on round(i * period). The total photon count is drawn
    once (Poisson of the summed mean) and placed uniformly over pulses, which
    is distribution-identical to per-pulse Poisson draws. Arrivals smeared
    outside [0, duration) are dropped.
    """
    times = _draw_pulse_times(
        rng, cfg.period_ps, cfg.duration_ps, cfg.mean_photons_per_pulse, cfg.pulse_fwhm_ps
    )
    times = times[(times >= 0) & (times < cfg.duration_ps)]
    return np.sort(times)


def pulse_pair_sequence(
    cfg: PairScanConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic two-slot pattern: slots at i*P and i*P + delta_t.

    Each slot independently holds a photon with probability `occupancy`, the
    first slots drawn before the second. Slot 2i is pair i's first photon and
    2i + 1 its second; as 0 < delta_t < P, slot order is time order, so the
    occupied slots' (times, is_second_slot) come out sorted with no sort.
    """
    first, second = (_kept(rng, cfg.occupancy, cfg.n_pairs) for _ in range(2))
    slot = np.flatnonzero(np.column_stack((first, second)))
    odd = slot & 1
    return (slot >> 1) * cfg.pair_period_ps + odd * cfg.delta_t_ps, odd.astype(bool)


@dataclass(frozen=True)
class PairStreams:
    """Photon-pair source output: one arm each for Alice and Bob.

    pair_ids tag each arrival with the pair it came from; an id present in
    both arms marks a genuinely correlated pair (the coincidence ground
    truth).
    """

    alice_times: np.ndarray
    alice_pair_ids: np.ndarray
    bob_times: np.ndarray
    bob_pair_ids: np.ndarray


def correlated_pair_stream(cfg: EntangledPairConfig, rng: np.random.Generator) -> PairStreams:
    """Pulsed pair source with independent channel losses per arm.

    Pair creation per pulse is Poissonian; both members of a pair share one
    emission time (pulse center plus optional Gaussian emission spread), and
    each member independently survives its channel with probability eta.

    A pair's id is its index in draw order. One stable sort of the emission
    times orders both arms, so equal emission times keep pair-id order; each
    arm is the kept, in-window subsequence of that order.
    """
    period = PS_PER_S / cfg.rep_rate_hz
    emit = _draw_pulse_times(
        rng, period, cfg.duration_ps, cfg.mean_pairs_per_pulse, cfg.emission_fwhm_ps
    )
    keep_a = _kept(rng, cfg.eta_alice, emit.size)
    keep_b = _kept(rng, cfg.eta_bob, emit.size)
    order = np.argsort(emit, kind="stable")
    t = emit[order]
    in_window = (t >= 0) & (t < cfg.duration_ps)
    a, b = keep_a[order] & in_window, keep_b[order] & in_window
    return PairStreams(
        alice_times=t[a], alice_pair_ids=order[a], bob_times=t[b], bob_pair_ids=order[b]
    )
