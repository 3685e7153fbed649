"""Deterministic random-number streams.

Every stochastic component draws from a named Philox substream so that runs
are reproducible from a single scenario seed and independent components stay
statistically independent. Streams are identified by (seed, stream_id); the
well-known ids below keep scenario wiring stable across runs and processes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["FWHM_TO_SIGMA", "STREAM_IDS", "make_generator"]

# FWHM of a Gaussian = 2*sqrt(2*ln 2) * sigma
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# Reserved stream ids for scenario components. Scans derive per-point ids
# from SCAN_BASE upward (source) and DETECTOR_SCAN_BASE upward (detector).
STREAM_IDS = {
    "source": 1,
    "detector": 2,
    "detector_a": 3,
    "detector_b": 4,
}
SCAN_BASE = 1000
DETECTOR_SCAN_BASE = 500000


def make_generator(seed: int, stream_id) -> np.random.Generator:
    """Philox generator for the named (or numbered) substream of `seed`."""
    if isinstance(stream_id, str):
        stream_id = STREAM_IDS[stream_id]
    ss = np.random.SeedSequence(entropy=(int(seed), int(stream_id)))
    return np.random.Generator(np.random.Philox(ss))
