"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared cores whose speed drifts by tens of percent
over seconds to minutes, which no run length averages out.  This module
measures that speed next to the job, on the same core and at the same
moments, with a fixed kernel that shares nothing with the program but does
the same kinds of work as its hot paths: a forced impact oscillator flown
with closed-form arcs, a pure-Python root finder, small tuples and 2x2
numpy products (the uniform law), then RK4 steps of the wall-vanishing
oscillator with its variational equations on 6-vectors (the numpy-bound
work of a DOP853 arc).

``Sampler`` interrupts the job with SIGALRM every ``INTERVAL`` seconds of
wall time and runs one short burst of the kernel inside the handler.  The
handler's own time is taken out of the job's, and the speed factor is the
mean of ``REF_BURST_S / burst`` over the bursts of one timed stretch: its
seconds times that factor are its seconds at the reference speed.
``Sampler.clock`` is a clock that stops while a handler runs, so that a
tracer reading it leaves the bursts out of its spans.  A change to the
program moves the job's seconds but not the bursts, so it still shows in
full; a change in the machine's speed moves both alike.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Seconds one burst takes at the reference speed: the median burst of a
# quiet stretch on the shared 2-vCPU Xeon VM the reference figures in
# README.md come from.  Only the ratio to it matters.
REF_BURST_S = 1.05e-3
INTERVAL = 0.05
BOUNCES = 6
RK_STEPS = 12
TRIES = 3


class _Arc:
    __slots__ = ("t0", "x0", "v0", "a", "k", "w", "s0", "c0")

    def __init__(self, t0, x0, v0, a, k, w):
        self.t0, self.x0, self.v0, self.a, self.k, self.w = t0, x0, v0, a, k, w
        self.s0 = math.sin(w * t0)
        self.c0 = math.cos(w * t0)

    def v(self, t):
        return (self.v0 + (self.a / self.w) * (math.sin(self.w * t) - self.s0)
                + self.k * (t - self.t0))

    def x(self, t):
        dt, w = t - self.t0, self.w
        return (self.x0 + self.v0 * dt - (self.a / (w * w))
                * (math.cos(w * t) - self.c0) - (self.a / w) * self.s0 * dt
                + 0.5 * self.k * dt * dt)


def _root(g, lo, hi):
    """Bisection with a secant step, to 1e-12."""
    g_lo, g_hi = g(lo), g(hi)
    for _ in range(60):
        mid = hi - g_hi * (hi - lo) / (g_hi - g_lo) if g_hi != g_lo else 0.0
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _rhs(t, y):
    c = math.cos(2.0 * math.pi * t)
    a = math.cos(0.5 * math.pi * y[0]) * c
    d = -0.5 * math.pi * math.sin(0.5 * math.pi * y[0]) * c
    return np.array([y[1], a - 0.1, y[4], y[5], d * y[2], d * y[3]])


def _rk(steps: int, h: float = 0.01) -> np.ndarray:
    y, t = np.array([0.1, 0.8, 1.0, 0.0, 0.0, 1.0]), 0.0
    for _ in range(steps):
        k1 = _rhs(t, y)
        k2 = _rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = _rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = _rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def kernel(bounces: int = BOUNCES, rk_steps: int = RK_STEPS) -> float:
    """Fly ``bounces`` wall-to-wall arcs, then take ``rk_steps`` RK4
    steps; returns a checksum."""
    w, x, v, t = 2.0 * math.pi, 0.0, 1.3, 0.0
    jac = np.eye(2)
    events = []
    for _ in range(bounces):
        sign = 1.0 if v > 0 else -1.0
        arc = _Arc(t, x, v, 1.0, -0.05 * sign, w)
        wall = sign
        step, hi = 0.02, t
        while (arc.x(hi + step) - wall) * sign < 0 and arc.v(hi + step) * sign > 0:
            hi += step
        t_hit = _root(lambda s: arc.x(s) - wall, hi, hi + step)
        t, x, v = t_hit, wall, -arc.v(t_hit)
        jac = np.array([[1.0, t_hit - arc.t0], [0.0, -1.0]]) @ jac
        events.append((t, x, v))
    return t + v + float(jac[0, 0]) + len(events) + float(_rk(rk_steps)[0])


def burst() -> float:
    """Seconds of the fastest of TRIES kernel calls."""
    best = math.inf
    for _ in range(TRIES):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Calibration bursts on SIGALRM while the job runs (see module doc)."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.bursts: list[float] = []
        self.handler_s = 0.0   # since the last take()
        self.total_s = 0.0     # since construction

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.bursts.append(burst())
        dt = time.perf_counter() - t0
        self.handler_s += dt
        self.total_s += dt

    def clock(self) -> float:
        """perf_counter() less every handler's time so far."""
        return time.perf_counter() - self.total_s

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def take(self) -> tuple[float, float]:
        """(speed factor, handler seconds) of the stretch timed since the
        last take; bursts once more if it was too short to be sampled."""
        if not self.bursts:
            self.bursts.append(burst())
        out = (sum(REF_BURST_S / b for b in self.bursts) / len(self.bursts),
               self.handler_s)
        self.bursts, self.handler_s = [], 0.0
        return out
