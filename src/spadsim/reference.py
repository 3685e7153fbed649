"""Event-queue reference implementation of the detector.

detect_reference() produces byte-identical output to detector.detect() from
the same rng state. Where the production kernel sweeps a merged stimulus
array, this version schedules every stimulus, trap release, and re-arm timer
as a discrete event on its own priority queue and lets the queue order them.
It exists as an executable statement of the detector semantics and as the
oracle the kernel is tested against; it is not built for speed.

Events pop in (time, kind, insertion) order. At equal timestamps re-arm
timers (kind 0) fire first, then trap releases, then dark counts, then
photon arrivals (the stimulus kind codes of `detector`), matching the
tie-break rules of the array kernel.
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
    Cause,
    DetectorParams,
    PulseRecords,
    _compile_params,
    _ema_decay,
    _emit_delta,
    _finalize_records,
    _interp_clamped,
    _prepare_stimuli,
    _round_ps,
    _trap_delay_power_law,
)

__all__ = ["detect_reference"]

# Event kind of a re-arm timer: below every stimulus kind, so it pops first.
_KIND_TIMER = 0


class _DetectorState:
    """Mutable detector state driven by its own event queue.

    Mirrors the array kernel's draw-order contract exactly; see the
    `detector._detect_kernel` docstring. The armed flag is maintained by
    generation-tagged re-arm timers instead of timestamp comparison: a fresh
    avalanche invalidates any pending timer by bumping the generation.
    """

    def __init__(self, compiled, rng: np.random.Generator):
        self.c = compiled
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
        self.now = 0
        self.queue: list[tuple[int, int, int, object]] = []  # (time, kind, insertion, payload)
        self.inserted = 0

    def schedule(self, time: int, kind: int, payload: object = None) -> None:
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
                self._handle_armed(t, kind)
            else:
                self._handle_dead(t, kind)

    def _handle_armed(self, t: np.int64, kind: int) -> None:
        if kind == KIND_PHOTON:
            if self.rng.random() < self.c.efficiency:
                self._avalanche(t, Cause.PHOTON)
        elif kind == KIND_DARK:
            self._avalanche(t, Cause.DARK)
        else:
            self._avalanche(t, Cause.AFTERPULSE)

    def _handle_dead(self, t: np.int64, kind: int) -> None:
        dt = t - self.dead_start
        if dt < self.c.tau_quench or kind == KIND_TRAP_RELEASE:
            # Quench phase swallows everything; the twilight zone swallows
            # trap releases. No draws are consumed either way.
            return
        u = self.rng.random()
        prof = _interp_clamped(float(dt), self.c.tw_x, self.c.tw_y)
        thr = self.c.efficiency * prof if kind == KIND_PHOTON else prof
        if u < thr:
            self._avalanche(t, Cause.TWILIGHT, held=True)

    def _avalanche(self, t: np.int64, cause: Cause, held: bool = False) -> None:
        c = self.c
        if held:
            # Sensing is off during the dead period: the pulse appears when
            # the interrupted dead period would have ended, with no sampled
            # timing spread.
            ot = self.dead_end + c.base_delay
        else:
            gap = t - self.last_avalanche
            dt_prev = _HUGE_DT if gap > np.int64(2**61) else float(gap)
            shift = _interp_clamped(dt_prev, c.sh_x, c.sh_y)
            fwhm = _interp_clamped(dt_prev, c.jit_x, c.jit_y)
            z = self.rng.standard_normal()
            ot = t + c.base_delay + _emit_delta(shift, fwhm, z)
            if ot < t:
                ot = t
        self.out_times.append(int(ot))
        self.origin_times.append(int(t))
        self.causes.append(int(cause))

        self.lam = _ema_decay(self.lam, t - self.t_lam, c.tau_ema)
        self.t_lam = t
        dlen = _round_ps(_interp_clamped(self.lam * 1.0e12, c.dead_x, c.dead_y))
        self.lam += 1.0 / c.tau_ema
        self.dead_start = t
        self.dead_end = t + dlen
        self.last_avalanche = t
        self.armed = False
        self.generation += 1
        self.schedule(int(self.dead_end), _KIND_TIMER, self.generation)

        if c.ap_mu > 0.0:
            k = self.rng.poisson(c.ap_mu)
            for _ in range(k):
                if c.ap_exponential:
                    d = self.rng.exponential(c.ap_tau)
                    if d > _MAX_TRAP_DELAY:
                        d = _MAX_TRAP_DELAY
                else:
                    d = _trap_delay_power_law(self.rng.random(), c.ap_tmin, c.ap_alpha)
                self.schedule(int(t + _round_ps(d)), KIND_TRAP_RELEASE)


def detect_reference(
    arrivals, params: DetectorParams, rng: np.random.Generator, duration_ps: int
) -> PulseRecords:
    """Run the detector through the event queue.

    Same contract and output as detector.detect(); see the module docstring.
    """
    params.validate()
    times, kinds = _prepare_stimuli(arrivals, params, rng, duration_ps)
    state = _DetectorState(_compile_params(params), rng)
    for t, k in zip(times.tolist(), kinds.tolist()):
        state.schedule(t, k)
    state.run()
    out = np.asarray(state.out_times, dtype=np.int64)
    origin = np.asarray(state.origin_times, dtype=np.int64)
    cause = np.asarray(state.causes, dtype=np.int64)
    return _finalize_records(out, origin, cause, params)
