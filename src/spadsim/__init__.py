"""Discrete-event simulation of actively quenched single-photon detectors.

The package models the pulse-level behavior of real detector modules (dead
time and its rate-dependent elongation, afterpulsing, twilight response
inside the quench cycle, count-rate dependent delay shift and jitter,
optional output blanking), provides virtual lab instruments and
characterization analyses to measure those effects back out of simulated
pulse streams, and scores time-bin QKD links built from two such detectors.

The package namespace is the union of the library submodules' `__all__`.
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = ["__version__"]
for _name in (
    "analysis", "config", "detector", "experiments", "instruments",
    "presets", "qkd", "reference", "rng", "sources",
):
    _module = import_module(f".{_name}", __name__)
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del import_module, _name, _module
