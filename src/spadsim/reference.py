"""Event-queue reference implementation of the detector.

detect_reference() produces byte-identical output to detector.detect() from
the same rng state. Where the production kernel walks the sorted photon
arrivals and keeps only darks and trap releases on a heap, this version
schedules every photon, dark count, trap release, and re-arm timer as a
discrete event on its own priority queue and lets the queue order them.
Each avalanche fills Poisson(mu) traps, and each trap's release is
scheduled one exponential(tau_trap) draw later, as in the kernel. It
exists as an executable statement of the detector semantics and as the
oracle the kernel is tested against; it is not built for speed.

Events pop in (time, kind, insertion) order. At equal timestamps re-arm
timers (kind 0) fire first, then trap releases, then dark counts, then
photon arrivals (the stimulus kind codes of `detector`), matching the
tie-break rules of the kernel. A photon's event carries its index into the
caller's arrivals, which becomes the arrival_index of a pulse it triggers.
"""

from __future__ import annotations

import heapq

import numpy as np

from .detector import (
    _HUGE_DT,
    _MAX_TRAP_DELAY,
    KIND_DARK,
    KIND_PHOTON,
    KIND_TRAP_RELEASE,
    TAU_EMA_PS,
    Cause,
    DetectorParams,
    PulseRecords,
    _curves,
    _ema_decay,
    _emit_delta,
    _finalize_records,
    _interp_clamped,
    _prepare_stimuli,
    _round_ps,
)

__all__ = ["detect_reference"]

# Event kind of a re-arm timer: below every stimulus kind, so it pops first.
_KIND_TIMER = 0


class _DetectorState:
    """Mutable detector state driven by its own event queue.

    Mirrors the kernel's draw-order contract exactly; see the
    `detector._detect_kernel` docstring. The armed flag is maintained by
    generation-tagged re-arm timers instead of timestamp comparison: a fresh
    avalanche invalidates any pending timer by bumping the generation.
    """

    def __init__(self, params: DetectorParams, rng: np.random.Generator):
        self.efficiency = float(params.efficiency)
        self.base_delay = int(params.base_delay_ps)
        self.tau_quench = int(params.tau_quench_ps)
        self.ap_mu = float(params.afterpulse.mu)
        self.ap_tau = float(params.afterpulse.tau_trap_ps)
        self.dead, self.twilight, self.jitter, self.shift = _curves(params)
        self.rng = rng
        self.armed = True
        self.generation = 0
        self.dead_start = np.int64(-(2**62))
        self.dead_end = np.int64(0)
        self.last_avalanche = np.int64(-(2**62))
        self.lam = 0.0
        self.t_lam = np.int64(0)
        self.out_times: list[int] = []
        self.origin_times: list[int] = []
        self.causes: list[int] = []
        self.arrival_index: list[int] = []
        self.now = 0
        # (time, kind, insertion, payload); the payload is a timer's
        # generation, a photon's arrival index, and -1 otherwise.
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
            t = np.int64(time)
            if self.armed:
                self._handle_armed(t, kind, payload)
            else:
                self._handle_dead(t, kind, payload)

    def _handle_armed(self, t: np.int64, kind: int, src: int) -> None:
        if kind == KIND_PHOTON:
            if self.rng.random() < self.efficiency:
                self._avalanche(t, Cause.PHOTON, src)
        elif kind == KIND_DARK:
            self._avalanche(t, Cause.DARK, src)
        else:
            self._avalanche(t, Cause.AFTERPULSE, src)

    def _handle_dead(self, t: np.int64, kind: int, src: int) -> None:
        dt = t - self.dead_start
        if dt < self.tau_quench or kind == KIND_TRAP_RELEASE:
            # Quench phase swallows everything; the twilight zone swallows
            # trap releases. No draws are consumed either way.
            return
        u = self.rng.random()
        prof = _interp_clamped(float(dt), *self.twilight)
        thr = self.efficiency * prof if kind == KIND_PHOTON else prof
        if u < thr:
            self._avalanche(t, Cause.TWILIGHT, src, held=True)

    def _avalanche(self, t: np.int64, cause: Cause, src: int, held: bool = False) -> None:
        if held:
            # Sensing is off during the dead period: the pulse appears when
            # the interrupted dead period would have ended, with no sampled
            # timing spread.
            ot = self.dead_end + self.base_delay
        else:
            gap = t - self.last_avalanche
            dt_prev = _HUGE_DT if gap > np.int64(2**61) else float(gap)
            shift = _interp_clamped(dt_prev, *self.shift)
            fwhm = _interp_clamped(dt_prev, *self.jitter)
            z = self.rng.standard_normal()
            ot = t + self.base_delay + _emit_delta(shift, fwhm, z)
            if ot < t:
                ot = t
        self.out_times.append(int(ot))
        self.origin_times.append(int(t))
        self.causes.append(int(cause))
        self.arrival_index.append(src)

        self.lam = _ema_decay(self.lam, t - self.t_lam, TAU_EMA_PS)
        self.t_lam = t
        dlen = _round_ps(_interp_clamped(self.lam * 1.0e12, *self.dead))
        self.lam += 1.0 / TAU_EMA_PS
        self.dead_start = t
        self.dead_end = t + dlen
        self.last_avalanche = t
        self.armed = False
        self.generation += 1
        self.schedule(int(self.dead_end), _KIND_TIMER, self.generation)

        if self.ap_mu > 0.0:
            k = self.rng.poisson(self.ap_mu)
            for _ in range(k):
                d = self.rng.exponential(self.ap_tau)
                if d > _MAX_TRAP_DELAY:
                    d = _MAX_TRAP_DELAY
                self.schedule(int(t + _round_ps(d)), KIND_TRAP_RELEASE)


def detect_reference(
    arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int
) -> PulseRecords:
    """Run the detector through the event queue.

    Same contract and output as detector.detect(); see the module docstring.
    """
    params.validate()
    arrivals, darks = _prepare_stimuli(arrivals, params, rng, duration_ps)
    state = _DetectorState(params, rng)
    for t in darks.tolist():
        state.schedule(t, KIND_DARK)
    for idx, t in enumerate(arrivals.tolist()):
        state.schedule(t, KIND_PHOTON, idx)
    state.run()
    columns = (state.out_times, state.origin_times, state.causes, state.arrival_index)
    return _finalize_records(tuple(np.asarray(c, dtype=np.int64) for c in columns), params)
