"""Event-queue reference implementation of the detector.

detect_reference() produces byte-identical output to detector.detect() from
the same rng state. Where the production kernel walks one merged array of
photons and darks, keeps only trap releases on a heap and takes runs of
uncontested avalanches as slices, this version schedules every photon,
dark count, trap release, and re-arm timer as a discrete event on its own
priority queue and lets the queue order them, one event at a time.
It exists as an executable statement of the detector semantics and as the
oracle the kernel is tested against; it is not built for speed.

It follows draw contract 3 (`detector.DRAW_CONTRACT`) from the same
substreams as the kernel (`detector._draw_streams`), but one scalar at a
time and in the order the events happen:

- every photon meets its keyed uniform from one block, whatever the
  detector state; the kernel drops the photons with u >= efficiency before
  its loop, and this version keeps them all, so agreement shows that the
  thinning changes nothing;
- a dark in the twilight zone meets its keyed uniform;
- each avalanche draws one Poisson(mu) trap count, and each trap one
  exponential(tau_trap) delay, clamped at `_MAX_TRAP_DELAY`;
- each unheld pulse draws one normal as it is emitted, and its output time
  is computed there and then; the kernel computes every output time after
  its loop in one numpy stage;
- the dead time after an avalanche is read off the elongation table at
  the count of earlier avalanches less than `RATE_WINDOW_PS` before it,
  over the window; this version counts them with `bisect` on the list of
  every avalanche time.

Events pop in (time, kind, insertion) order. At equal timestamps re-arm
timers fire first, then trap releases, then dark counts, then photon
arrivals (the kind codes below); this is the tie order the kernel
follows. A photon's event carries its index into the
caller's arrivals, which becomes the arrival_index of a pulse it triggers.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right

import numpy as np

from .detector import (
    _HUGE_DT,
    _MAX_TRAP_DELAY,
    RATE_WINDOW_PS,
    Cause,
    DetectorParams,
    PulseRecords,
    _check_sampled_jitter,
    _Draws,
    _finalize_records,
    _interp_clamped,
    _prepare_stimuli,
    effective_dead_time,
)
from .rng import FWHM_TO_SIGMA

__all__ = ["detect_reference"]

# Event kinds. At equal timestamps the lower code pops first: a re-arm timer,
# then a trap release, then a dark count, then a photon arrival.
_KIND_TIMER = 0
KIND_TRAP_RELEASE = 1
KIND_DARK = 2
KIND_PHOTON = 3


def _round_ps(x: float) -> int:
    """Round to the integer picosecond grid, halves up."""
    return math.floor(x + 0.5)


class _DetectorState:
    """Mutable detector state driven by its own event queue.

    Draws as draw contract 3 says, one scalar at a time; see the module
    docstring and `detector._detect_kernel`. The armed flag is maintained by
    generation-tagged re-arm timers instead of timestamp comparison: a fresh
    avalanche invalidates any pending timer by bumping the generation.
    """

    def __init__(self, params: DetectorParams, draws: _Draws, u_photon, u_dark):
        self.efficiency = float(params.efficiency)
        self.base_delay = int(params.base_delay_ps)
        self.tau_quench = int(params.tau_quench_ps)
        self.ap_mu = float(params.afterpulse.mu)
        self.ap_tau = float(params.afterpulse.tau_trap_ps)
        self.params = params
        _, self.twilight, self.jitter, self.shift = params._tables
        self.draws = draws
        self.u_photon = u_photon.tolist()
        self.u_dark = u_dark.tolist()
        self.armed = True
        self.generation = 0
        self.dead_start = -(2**62)
        self.dead_end = 0
        self.avalanches: list[int] = []  # every avalanche time, in order
        self.out_times: list[int] = []
        self.origin_times: list[int] = []
        self.causes: list[int] = []
        self.arrival_index: list[int] = []
        self.now = 0
        # (time, kind, insertion, payload); the payload is a timer's
        # generation, a photon's arrival index or a dark's index, and -1
        # for a trap release.
        self.queue: list[tuple[int, int, int, int]] = []
        self.inserted = 0

    def schedule(self, time: int, kind: int, payload: int = -1) -> None:
        if time < self.now:
            raise RuntimeError(
                f"cannot schedule event kind {kind} at t={time} ps: current time is {self.now} ps"
            )
        heapq.heappush(self.queue, (time, kind, self.inserted, payload))
        self.inserted += 1

    def run(self) -> None:
        """Process events until the queue is empty."""
        while self.queue:
            time, kind, _, payload = heapq.heappop(self.queue)
            self.now = time
            if kind == _KIND_TIMER:
                if payload == self.generation:
                    self.armed = True
                continue
            if self.armed:
                self._handle_armed(time, kind, payload)
            else:
                self._handle_dead(time, kind, payload)

    def _handle_armed(self, t: int, kind: int, payload: int) -> None:
        if kind == KIND_PHOTON:
            if self.u_photon[payload] < self.efficiency:
                self._avalanche(t, Cause.PHOTON, payload)
        elif kind == KIND_DARK:
            self._avalanche(t, Cause.DARK, -1)
        else:
            self._avalanche(t, Cause.AFTERPULSE, -1)

    def _handle_dead(self, t: int, kind: int, payload: int) -> None:
        dt = t - self.dead_start
        if dt < self.tau_quench or kind == KIND_TRAP_RELEASE:
            # Quench phase swallows everything; the twilight zone swallows
            # trap releases.
            return
        prof = _interp_clamped(float(dt), *self.twilight)
        if kind == KIND_PHOTON:
            if self.u_photon[payload] < self.efficiency * prof:
                self._avalanche(t, Cause.TWILIGHT, payload, held=True)
        elif self.u_dark[payload] < prof:
            self._avalanche(t, Cause.TWILIGHT, -1, held=True)

    def _avalanche(self, t: int, cause: Cause, src: int, held: bool = False) -> None:
        if held:
            # Sensing is off during the dead period: the pulse appears when
            # the interrupted dead period would have ended, with no sampled
            # timing spread.
            ot = self.dead_end + self.base_delay
        else:
            # The first avalanche has no previous one: its gap is _HUGE_DT.
            dt_prev = float(t - self.avalanches[-1]) if self.avalanches else _HUGE_DT
            shift = _interp_clamped(dt_prev, *self.shift)
            fwhm = _interp_clamped(dt_prev, *self.jitter)
            spread = self.draws.jitter.standard_normal() * (fwhm * FWHM_TO_SIGMA)
            _check_sampled_jitter(spread)
            ot = max(t + self.base_delay + _round_ps(shift + spread), t)
        self.out_times.append(ot)
        self.origin_times.append(t)
        self.causes.append(int(cause))
        self.arrival_index.append(src)

        count = len(self.avalanches) - bisect_right(self.avalanches, t - RATE_WINDOW_PS)
        dlen = _round_ps(effective_dead_time(count / RATE_WINDOW_PS * 1.0e12, self.params))
        self.avalanches.append(t)
        self.dead_start = t
        self.dead_end = t + dlen
        self.armed = False
        self.generation += 1
        self.schedule(self.dead_end, _KIND_TIMER, self.generation)

        if self.ap_mu > 0.0:
            k = self.draws.trap_counts.poisson(self.ap_mu)
            for _ in range(k):
                d = self.draws.trap_delays.exponential(self.ap_tau)
                if d > _MAX_TRAP_DELAY:
                    d = _MAX_TRAP_DELAY
                self.schedule(t + _round_ps(d), KIND_TRAP_RELEASE)


def detect_reference(
    arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int
) -> PulseRecords:
    """Run the detector through the event queue.

    Same contract and output as detector.detect(); see the module docstring.
    """
    arrivals, u_photon, darks, u_dark, draws = _prepare_stimuli(arrivals, params, rng, duration_ps)
    state = _DetectorState(params, draws, u_photon, u_dark)
    for j, t in enumerate(darks.tolist()):
        state.schedule(t, KIND_DARK, j)
    for idx, t in enumerate(arrivals.tolist()):
        state.schedule(t, KIND_PHOTON, idx)
    state.run()
    columns = (state.out_times, state.origin_times, state.causes, state.arrival_index)
    return _finalize_records(tuple(np.asarray(c, dtype=np.int64) for c in columns), params)
