"""Kernel backend marker.

The kernels in `_kernels` are plain Python; there is no compiled backend to
select. `NUMBA_ENABLED` stays, always false, because the benchmark's run
metadata (`perfbench/run.py`) reads it to label each run's backend.
"""

NUMBA_ENABLED = False
