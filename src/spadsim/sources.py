"""Optical input generators.

All sources emit arrival timestamps in integer picoseconds on [0, duration).
Times are drawn, rounded to the picosecond grid, and sorted; generation is
chunked deterministically so results depend only on the rng stream and the
config values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class CwSourceConfig:
    """Continuous-wave Poissonian source."""

    rate_cps: float
    duration_ps: int

    def validate(self) -> None:
        _require(self.rate_cps >= 0, f"rate_cps must be >= 0, got {self.rate_cps}")
        _require(self.duration_ps > 0, f"duration_ps must be > 0, got {self.duration_ps}")


@dataclass(frozen=True)
class PulsedSourceConfig:
    """Pulsed laser: Poisson photon number per pulse, Gaussian pulse envelope."""

    period_ps: int
    mean_photons_per_pulse: float
    duration_ps: int
    pulse_fwhm_ps: float = 0.0

    def validate(self) -> None:
        _require(self.period_ps > 0, f"period_ps must be > 0, got {self.period_ps}")
        _require(
            self.mean_photons_per_pulse >= 0,
            f"mean_photons_per_pulse must be >= 0, got {self.mean_photons_per_pulse}",
        )
        _require(self.pulse_fwhm_ps >= 0, f"pulse_fwhm_ps must be >= 0, got {self.pulse_fwhm_ps}")
        _require(self.duration_ps > 0, f"duration_ps must be > 0, got {self.duration_ps}")


@dataclass(frozen=True)
class PairScanConfig:
    """Two weak pulses per period, separated by delta_t, for pair-delay scans."""

    delta_t_ps: int
    pair_period_ps: int
    n_pairs: int
    occupancy: float = 1.0

    def validate(self) -> None:
        _require(self.pair_period_ps > 0, f"pair_period_ps must be > 0, got {self.pair_period_ps}")
        _require(
            0 < self.delta_t_ps < self.pair_period_ps,
            f"delta_t_ps must lie in (0, pair_period_ps), got {self.delta_t_ps}",
        )
        _require(self.n_pairs >= 0, f"n_pairs must be >= 0, got {self.n_pairs}")
        _require(
            0.0 <= self.occupancy <= 1.0, f"occupancy must lie in [0, 1], got {self.occupancy}"
        )


@dataclass(frozen=True)
class EntangledPairConfig:
    """Pulsed photon-pair source feeding two lossy channels."""

    rep_rate_hz: float
    mean_pairs_per_pulse: float
    duration_ps: int
    eta_alice: float = 1.0
    eta_bob: float = 1.0
    emission_fwhm_ps: float = 0.0

    def validate(self) -> None:
        _require(self.rep_rate_hz > 0, f"rep_rate_hz must be > 0, got {self.rep_rate_hz}")
        _require(
            self.mean_pairs_per_pulse >= 0,
            f"mean_pairs_per_pulse must be >= 0, got {self.mean_pairs_per_pulse}",
        )
        _require(self.duration_ps > 0, f"duration_ps must be > 0, got {self.duration_ps}")
        for name, eta in (("eta_alice", self.eta_alice), ("eta_bob", self.eta_bob)):
            _require(0.0 <= eta <= 1.0, f"{name} must lie in [0, 1], got {eta}")
        _require(
            self.emission_fwhm_ps >= 0,
            f"emission_fwhm_ps must be >= 0, got {self.emission_fwhm_ps}",
        )


def poisson_times(rng: np.random.Generator, rate_cps: float, duration_ps: int) -> np.ndarray:
    """Homogeneous Poisson arrival times, integer ps, inside [0, duration).

    Shared by the CW source and the detector's dark-count stream. Gaps are
    drawn in one sized chunk plus fixed 1024-draw top-ups so the consumed
    sample count is a pure function of the drawn values.
    """
    if rate_cps < 0:
        raise ValueError(f"rate_cps must be >= 0, got {rate_cps}")
    if duration_ps <= 0:
        raise ValueError(f"duration_ps must be > 0, got {duration_ps}")
    if rate_cps == 0:
        return np.empty(0, dtype=np.int64)
    mean_gap = PS_PER_S / rate_cps
    n = max(64, int(duration_ps / mean_gap * 1.1) + 32)
    chunks: list[np.ndarray] = []
    t_last = np.int64(0)
    while True:
        gaps = np.rint(rng.exponential(mean_gap, n)).astype(np.int64)
        times = t_last + np.cumsum(gaps)
        chunks.append(times)
        t_last = times[-1]
        if t_last >= duration_ps:
            break
        n = 1024
    times = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return times[times < duration_ps]


def cw_poisson_stream(cfg: CwSourceConfig, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a constant-power coherent source."""
    cfg.validate()
    return poisson_times(rng, cfg.rate_cps, cfg.duration_ps)


def _comb(rep_period_ps: float, duration_ps: int) -> np.ndarray:
    n_pulses = int(duration_ps / rep_period_ps) + 1
    return np.rint(np.arange(n_pulses) * rep_period_ps).astype(np.int64)


def pulsed_train(cfg: PulsedSourceConfig, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a periodic pulsed source.

    Pulse centers sit on round(i * period). The total photon count is drawn
    once (Poisson of the summed mean) and placed uniformly over pulses, which
    is distribution-identical to per-pulse Poisson draws. Arrivals smeared
    outside [0, duration) are dropped.
    """
    cfg.validate()
    centers = _comb(cfg.period_ps, cfg.duration_ps)
    n_pulses = centers.shape[0]
    k = int(rng.poisson(cfg.mean_photons_per_pulse * n_pulses))
    idx = np.sort(rng.integers(0, n_pulses, size=k))
    times = centers[idx]
    if cfg.pulse_fwhm_ps > 0:
        times = times + np.rint(
            rng.standard_normal(k) * (cfg.pulse_fwhm_ps * FWHM_TO_SIGMA)
        ).astype(np.int64)
    times = times[(times >= 0) & (times < cfg.duration_ps)]
    return np.sort(times)


def pulse_pair_sequence(
    cfg: PairScanConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic two-slot pattern: slots at i*P and i*P + delta_t.

    Each slot independently holds a photon with probability `occupancy`.
    Returns (times, is_second_slot) sorted by time.
    """
    cfg.validate()
    base = np.arange(cfg.n_pairs, dtype=np.int64) * cfg.pair_period_ps
    if cfg.occupancy < 1.0:
        keep1 = rng.random(cfg.n_pairs) < cfg.occupancy
        keep2 = rng.random(cfg.n_pairs) < cfg.occupancy
    else:
        keep1 = np.ones(cfg.n_pairs, dtype=bool)
        keep2 = np.ones(cfg.n_pairs, dtype=bool)
    times = np.concatenate([base[keep1], base[keep2] + cfg.delta_t_ps])
    flags = np.concatenate(
        [np.zeros(int(keep1.sum()), dtype=bool), np.ones(int(keep2.sum()), dtype=bool)]
    )
    order = np.argsort(times, kind="stable")
    return times[order], flags[order]


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
    """
    cfg.validate()
    pulse_times = _comb(PS_PER_S / cfg.rep_rate_hz, cfg.duration_ps)
    n_pulses = pulse_times.shape[0]
    k = int(rng.poisson(cfg.mean_pairs_per_pulse * n_pulses))
    pair_pulse = np.sort(rng.integers(0, n_pulses, size=k))
    emit = pulse_times[pair_pulse]
    if cfg.emission_fwhm_ps > 0:
        emit = emit + np.rint(
            rng.standard_normal(k) * (cfg.emission_fwhm_ps * FWHM_TO_SIGMA)
        ).astype(np.int64)
    pair_ids = np.arange(k, dtype=np.int64)
    keep_a = rng.random(k) < cfg.eta_alice if cfg.eta_alice < 1.0 else np.ones(k, dtype=bool)
    keep_b = rng.random(k) < cfg.eta_bob if cfg.eta_bob < 1.0 else np.ones(k, dtype=bool)
    in_window = (emit >= 0) & (emit < cfg.duration_ps)
    keep_a &= in_window
    keep_b &= in_window

    def _arm(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t, ids = emit[keep], pair_ids[keep]
        order = np.argsort(t, kind="stable")
        return t[order], ids[order]

    ta, ia = _arm(keep_a)
    tb, ib = _arm(keep_b)
    return PairStreams(alice_times=ta, alice_pair_ids=ia, bob_times=tb, bob_pair_ids=ib)
