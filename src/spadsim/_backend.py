"""Kernel backend marker.

The detector state machine (`detector.py`), the instrument loops
(`instruments.py`) and the self-contained event-queue reference
(`reference.py`) are plain Python; there is no compiled backend to select.
`NUMBA_ENABLED` stays, always false, because the benchmark's run metadata
(`perfbench/run.py`) reads it to label each run's backend.
"""

NUMBA_ENABLED = False
