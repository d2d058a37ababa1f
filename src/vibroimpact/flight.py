"""Single free-flight arcs and guaranteed first-event location.

Under the uniform law an arc with fixed velocity sign s solves

    x'' = F cos(omega t) - s f,

which integrates to a sinusoid plus a quadratic: events (wall hit,
velocity zero) are roots of closed-form functions.  Detection walks
quarter-period windows, inside which the acceleration is monotone, so the
velocity has at most one interior extremum per window and every sign
change is bracketed before being polished by Brent's method.  While the
velocity keeps its sign the position is monotone, which reduces wall
detection to a single bracketed root.

Wall-vanishing arcs have no elementary closed form; they are integrated
with DOP853 (dense output) and events are located on the dense-output
interpolant with the same window/bracket discipline.

``UniformFlightArcs`` and ``next_events`` run the uniform-law search on
many arcs at once, in lockstep on numpy arrays, for the batched period map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .model import (TWO_PI, ContractViolation, ForceLaw, Params, PhaseState,
                    applied_force)

_EPS = float(np.finfo(float).eps)
_BRENT_KW = dict(xtol=1e-14, rtol=4.0 * _EPS, maxiter=200)

# Fraction of T used as the event-time tie window (simultaneous events).
GRAZE_TIE = 1e-12

# Dense-output sampling density per quarter-period window (wall-vanishing law).
_WV_SAMPLES = 48

# Integrator tolerances for wall-vanishing arcs.
_WV_RTOL = 1e-12
_WV_ATOL = 1e-13


def _polish_velocity_zero(v, lo: float, hi: float) -> float:
    """The velocity zero bracketed by [lo, hi], where v(hi) has the sign
    opposite to the motion.  When v(lo) has that sign already, lo is the
    departure guard of an arc from rest whose departure is tangent to
    v = 0: its velocity there is below roundoff (or has turned back
    already), and the zero is reported at lo."""
    if (v(lo) > 0) == (v(hi) > 0):
        return lo
    return brentq(v, lo, hi, **_BRENT_KW)


class EventKind(str, Enum):
    IMPACT_LEFT = "impact_left"
    IMPACT_RIGHT = "impact_right"
    VELOCITY_ZERO = "velocity_zero"
    HORIZON = "horizon"


@dataclass(frozen=True)
class Event:
    """First event on an arc.  ``wall`` is -1/+1 for left/right (0: none);
    ``velocity_zero`` is set when v vanishes there.  Both set at once means
    a grazing contact; ``kind`` reports the primary classification."""

    kind: EventKind
    time: float
    state: PhaseState
    wall: int = 0
    velocity_zero: bool = False

    @property
    def grazing(self) -> bool:
        return self.wall != 0 and self.velocity_zero


class SinusoidArc:
    """Closed-form arc under acceleration a_cos*cos(omega t) + a_k.

    Covers uniform-law flight (a_cos = F, a_k = -s f) and the tent-lift
    segments used by the conjugacy check (a_cos = +-F/R, a_k = -+f/R).
    """

    __slots__ = ("t0", "x0", "v0", "sign", "a_cos", "a_k", "omega",
                 "_sin0", "_cos0")

    def __init__(self, t0, x0, v0, sign, a_cos, a_k, omega):
        self.t0 = t0
        self.x0 = x0
        self.v0 = v0
        self.sign = sign
        self.a_cos = a_cos
        self.a_k = a_k
        self.omega = omega
        self._sin0 = math.sin(omega * t0)
        self._cos0 = math.cos(omega * t0)

    def accel(self, t: float) -> float:
        return self.a_cos * math.cos(self.omega * t) + self.a_k

    def v(self, t: float) -> float:
        dt = t - self.t0
        return (self.v0 + (self.a_cos / self.omega) * (math.sin(self.omega * t) - self._sin0)
                + self.a_k * dt)

    def x(self, t: float) -> float:
        dt = t - self.t0
        w = self.omega
        return (self.x0 + self.v0 * dt
                - (self.a_cos / (w * w)) * (math.cos(w * t) - self._cos0)
                - (self.a_cos / w) * self._sin0 * dt
                + 0.5 * self.a_k * dt * dt)

    def state(self, t: float) -> PhaseState:
        return PhaseState(self.x(t), self.v(t), t)

    # -- event machinery ---------------------------------------------------

    def _accel_zeros_in(self, a: float, b: float) -> list[float]:
        """Times in (a, b) where the acceleration vanishes (v extrema)."""
        if self.a_cos == 0.0:
            return []
        c0 = -self.a_k / self.a_cos
        if abs(c0) > 1.0:
            return []
        w = self.omega
        base = math.acos(max(-1.0, min(1.0, c0)))
        out = []
        for sgn in (base, -base):
            n = math.floor((w * a - sgn) / (2.0 * math.pi))
            for k in (n, n + 1, n + 2):
                t = (sgn + 2.0 * math.pi * k) / w
                if a < t < b:
                    out.append(t)
        out.sort()
        return out

    def first_velocity_zero(self, t_hi: float) -> float | None:
        """First root of v(t) in (t0, t_hi], honoring the departure sign
        when v(t0) == 0.

        Arcs released from sticking depart with both v and the acceleration
        at zero; a small guard after t0 keeps roundoff in v from reporting
        the departure point itself as a root.
        """
        w = self.omega
        window = 0.5 * math.pi / w  # T/4
        # 1e-7 T puts the guard safely above the roundoff floor of v while
        # staying far below any genuine re-crossing time
        guard = self.t0 + (1e-7 * TWO_PI / w if self.v0 == 0.0 else 0.0)
        a = self.t0
        sign_a = self.sign if self.v0 == 0.0 else (1 if self.v0 > 0 else -1)
        while a < t_hi:
            b = min(a + window, t_hi)
            knots = [a] + [k for k in self._accel_zeros_in(a, b) if k > guard] + [b]
            va = sign_a
            for k1, k2 in zip(knots[:-1], knots[1:]):
                v2 = self.v(k2)
                if k2 <= guard:
                    continue
                if v2 == 0.0:
                    return k2
                if (v2 > 0) != (va > 0):
                    return _polish_velocity_zero(self.v, max(k1, guard), k2)
                va = v2
            a = b
            sign_a = va
        return None

    def wall_crossing(self, target: float, t_lo: float, t_hi: float) -> float | None:
        """Root of x(t) = target on [t_lo, t_hi], where x is monotone toward
        the target (velocity sign constant on the span)."""
        g_lo = self.x(t_lo) - target
        g_hi = self.x(t_hi) - target
        if g_hi == 0.0:
            return t_hi
        if (g_hi > 0) == (g_lo > 0):
            return None
        return brentq(lambda t: self.x(t) - target, t_lo, t_hi, **_BRENT_KW)


def make_arc(p: Params, start: PhaseState, sign: int) -> "FlightArc":
    """Public constructor enforcing the start contract: the velocity sign
    matches, or v = 0 with the net force exceeding friction toward ``sign``."""
    if sign not in (-1, 1):
        raise ContractViolation(f"sign must be +-1, got {sign}")
    if start.v != 0.0:
        if (start.v > 0) != (sign > 0):
            raise ContractViolation(
                f"arc sign {sign} inconsistent with start velocity {start.v}")
    else:
        g = applied_force(p, start.x, start.t)
        if abs(g) <= p.f or (g > 0) != (sign > 0):
            raise ContractViolation(
                "zero-velocity start requires |force| > f with force toward the arc sign")
    return _arc(p, start.x, start.v, start.t, sign)


def _arc(p: Params, x: float, v: float, t: float, sign: int):
    if p.force_law is ForceLaw.UNIFORM:
        return UniformFlightArc(p, x, v, t, sign)
    return WallVanishingArc(p, x, v, t, sign)


class UniformFlightArc(SinusoidArc):
    """Flight arc of the uniform law (exact closed form)."""

    __slots__ = ("params",)

    def __init__(self, p: Params, x, v, t, sign):
        super().__init__(t, x, v, sign, p.F, -sign * p.f, p.omega)
        self.params = p

    @property
    def start(self) -> PhaseState:
        return PhaseState(self.x0, self.v0, self.t0)

    def transport(self, t_a: float, t_b: float) -> np.ndarray:
        """Fixed-time linearization of the flight over [t_a, t_b]; the
        force is x-independent so this is the unit shear."""
        return np.array([[1.0, t_b - t_a], [0.0, 1.0]])

    def friction_column(self, t_a: float, t_b: float) -> np.ndarray:
        """Fixed-time derivative of the flight over [t_a, t_b] in f: the
        friction acceleration is -sign f, so (-sign dt^2 / 2, -sign dt)."""
        dt = t_b - t_a
        return np.array([-0.5 * self.sign * dt * dt, -self.sign * dt])


class WallVanishingArc:
    """Flight arc of the wall-vanishing law, integrated on demand.

    The arc extends itself lazily in quarter-period windows; positions and
    velocities are read off the dense output.  When ``with_transport`` the
    2x2 variational system is integrated alongside so the fixed-time flow
    linearization is available at event times.
    """

    __slots__ = ("params", "t0", "x0", "v0", "sign", "omega",
                 "_segments", "_t_reached", "_with_transport")

    def __init__(self, p: Params, x, v, t, sign, with_transport=False):
        self.params = p
        self.t0 = t
        self.x0 = x
        self.v0 = v
        self.sign = sign
        self.omega = p.omega
        self._segments = []
        self._t_reached = t
        self._with_transport = with_transport

    @property
    def start(self) -> PhaseState:
        return PhaseState(self.x0, self.v0, self.t0)

    def _rhs(self, t, y):
        p = self.params
        half_pi = 0.5 * math.pi
        env = p.F * math.cos(half_pi * y[0])
        a = env * math.cos(p.omega * t) - self.sign * p.f
        if not self._with_transport:
            return (y[1], a)
        # variational block: d/dt (dx, dv) rows of the 2x2 flow derivative
        gx = -p.F * half_pi * math.sin(half_pi * y[0]) * math.cos(p.omega * t)
        return (y[1], a, y[4], y[5], gx * y[2], gx * y[3])

    def _extend_to(self, t_target: float) -> None:
        while self._t_reached < t_target - 1e-15:
            t_a = self._t_reached
            t_b = min(t_a + 0.5 * math.pi / self.omega, t_target)
            if self._segments:
                y0 = self._segments[-1].sol(t_a)
            else:
                y0 = ([self.x0, self.v0] if not self._with_transport
                      else [self.x0, self.v0, 1.0, 0.0, 0.0, 1.0])
            sol = solve_ivp(self._rhs, (t_a, t_b), np.asarray(y0, dtype=float),
                            method="DOP853", rtol=_WV_RTOL, atol=_WV_ATOL,
                            dense_output=True)
            if not sol.success:  # pragma: no cover - integrator failure
                raise RuntimeError(f"arc integration failed: {sol.message}")
            self._segments.append(sol)
            self._t_reached = t_b

    def _eval(self, t: float) -> np.ndarray:
        self._extend_to(t)
        for seg in self._segments:
            if t <= seg.t[-1] + 1e-15:
                return seg.sol(t)
        return self._segments[-1].sol(t)

    def x(self, t: float) -> float:
        return float(self._eval(t)[0])

    def v(self, t: float) -> float:
        return float(self._eval(t)[1])

    def accel(self, t: float) -> float:
        p = self.params
        return applied_force(p, self.x(t), t) - self.sign * p.f

    def state(self, t: float) -> PhaseState:
        y = self._eval(t)
        return PhaseState(float(y[0]), float(y[1]), t)

    def transport(self, t_a: float, t_b: float) -> np.ndarray:
        """Variational flow derivative over [t_a, t_b] (requires
        with_transport=True and t_a == t0)."""
        if not self._with_transport:
            raise ContractViolation("arc built without variational transport")
        y = self._eval(t_b)
        return np.array([[y[2], y[3]], [y[4], y[5]]])

    def friction_column(self, t_a: float, t_b: float) -> None:
        """No closed-form derivative in f under this law."""
        return None

    def first_velocity_zero(self, t_hi: float) -> float | None:
        return self._scan(t_hi, want="v")

    def wall_crossing(self, target: float, t_lo: float, t_hi: float) -> float | None:
        g = lambda t: self.x(t) - target
        g_lo, g_hi = g(t_lo), g(t_hi)
        if g_hi == 0.0:
            return t_hi
        if (g_hi > 0) == (g_lo > 0):
            return None
        return brentq(g, t_lo, t_hi, **_BRENT_KW)

    def _scan(self, t_hi: float, want: str) -> float | None:
        window = 0.5 * math.pi / self.omega
        # departure guard of an arc from rest, as in
        # SinusoidArc.first_velocity_zero: v(t0) = 0 exactly, so a bracket
        # starting at t0 would polish to the start itself
        guard = self.t0 + (1e-7 * TWO_PI / self.omega if self.v0 == 0.0 else 0.0)
        a = self.t0
        sign_a = self.sign if self.v0 == 0.0 else (1 if self.v0 > 0 else -1)
        while a < t_hi - 1e-15:
            b = min(a + window, t_hi)
            self._extend_to(b)
            ts = np.linspace(a, b, _WV_SAMPLES)
            vs = np.array([self.v(t) for t in ts])
            va = sign_a
            for i in range(1, len(ts)):
                if ts[i] <= guard:
                    continue
                v2 = vs[i]
                if v2 == 0.0:
                    return float(ts[i])
                if (v2 > 0) != (va > 0):
                    return _polish_velocity_zero(
                        self.v, max(float(ts[i - 1]), guard), float(ts[i]))
                va = v2
            a = b
            sign_a = va
        return None


FlightArc = UniformFlightArc | WallVanishingArc


def next_event(p: Params, arc: FlightArc, horizon: float) -> Event:
    """Earliest of: velocity zero, wall contact, horizon.

    Wall detection exploits monotonicity of x while v keeps its sign: the
    search span is capped at the first velocity zero.  Coinciding wall and
    velocity-zero times (within GRAZE_TIE * T) are reported on one event.
    """
    if horizon <= arc.t0:
        raise ContractViolation("horizon must exceed the arc start time")
    p_l, p_r = p.l, p.r
    tie = GRAZE_TIE * p.T

    t_v = arc.first_velocity_zero(horizon)
    t_stop = horizon if t_v is None else min(t_v, horizon)
    target = p_r if arc.sign > 0 else p_l
    t_x = arc.wall_crossing(target, arc.t0, t_stop)

    if t_x is not None:
        wall = 1 if arc.sign > 0 else -1
        graze = t_v is not None and abs(t_v - t_x) <= tie
        v_at = 0.0 if graze else arc.v(t_x)
        kind = EventKind.IMPACT_RIGHT if wall > 0 else EventKind.IMPACT_LEFT
        return Event(kind=kind, time=t_x,
                     state=PhaseState(target, v_at, t_x),
                     wall=wall, velocity_zero=graze)
    if t_v is not None and t_v <= horizon:
        x_at = arc.x(t_v)
        # velocity zero landing exactly on a wall is a grazing contact
        wall = 0
        if abs(x_at - p_r) <= 1e-12 * max(1.0, abs(p_r)):
            wall, x_at = 1, p_r
        elif abs(x_at - p_l) <= 1e-12 * max(1.0, abs(p_l)):
            wall, x_at = -1, p_l
        return Event(kind=EventKind.VELOCITY_ZERO, time=t_v,
                     state=PhaseState(x_at, 0.0, t_v),
                     wall=wall, velocity_zero=True)
    return Event(kind=EventKind.HORIZON, time=horizon,
                 state=arc.state(horizon))


# ---------------------------------------------------------------------------
# lockstep event location (uniform law, many arcs at once)
# ---------------------------------------------------------------------------

# event codes of next_events
HORIZON, IMPACT, VELOCITY_ZERO, IRREGULAR = 0, 1, 2, 3


def _brentq_lockstep(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """scipy's ``brentq`` (with _BRENT_KW) run on many brackets at once.

    ``f(t, i)`` evaluates the functions of brackets ``i`` at times ``t``.
    Each bracket follows the iteration of scipy's C brentq step for step,
    so every root is the one the scalar call returns, bit for bit.
    """
    xtol, rtol, maxiter = _BRENT_KW["xtol"], _BRENT_KW["rtol"], _BRENT_KW["maxiter"]
    out = np.full(len(lo), np.nan)
    sel = np.arange(len(lo))
    xpre, xcur = lo.astype(float), hi.astype(float)
    fpre, fcur = f(xpre, sel), f(xcur, sel)
    out[fpre == 0.0] = xpre[fpre == 0.0]
    at_hi = (fcur == 0.0) & (fpre != 0.0)
    out[at_hi] = xcur[at_hi]
    go = (fpre != 0.0) & (fcur != 0.0)
    if np.any(go & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    sel, xpre, xcur, fpre, fcur = sel[go], xpre[go], xcur[go], fpre[go], fcur[go]
    xblk = np.zeros(len(sel))
    fblk = np.zeros(len(sel))
    spre = np.zeros(len(sel))
    scur = np.zeros(len(sel))
    for _ in range(maxiter):
        if not len(sel):
            break
        new_blk = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(new_blk, xpre, xblk)
        fblk = np.where(new_blk, fpre, fblk)
        spre = np.where(new_blk, xcur - xpre, spre)
        scur = np.where(new_blk, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            out[sel[done]] = xcur[done]
            keep = ~done
            sel, xpre, xcur, xblk = sel[keep], xpre[keep], xcur[keep], xblk[keep]
            fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
            spre, scur, delta, sbis = spre[keep], scur[keep], delta[keep], sbis[keep]
            if not len(sel):
                break
        with np.errstate(divide="ignore", invalid="ignore"):
            s_int = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            s_ext = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, s_int, s_ext)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        step = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        xcur = xpre + step
        fcur = f(xcur, sel)
    else:  # pragma: no cover - brentq's own iteration cap
        raise RuntimeError("lockstep Brent iteration did not converge")
    return out


class UniformFlightArcs:
    """Uniform-law flight arcs of many cells, searched in lockstep.

    The fields are those of ``UniformFlightArc`` as arrays, one entry per
    arc.  ``x`` and ``v`` are the ``SinusoidArc`` closed form element-wise,
    and the event search is ``SinusoidArc.first_velocity_zero`` and
    ``wall_crossing`` with masks: the same quarter-period windows, knots,
    departure guard and Brent polish, in the same floating-point order, so
    each arc's events equal those of its scalar ``UniformFlightArc``.
    """

    def __init__(self, p: Params, x, v, t, sign):
        self.params = p
        self.t0, self.x0, self.v0, self.sign = t, x, v, sign
        self.a_cos, self.a_k, self.omega = p.F, -sign * p.f, p.omega
        self._sin0 = np.sin(p.omega * t)
        self._cos0 = np.cos(p.omega * t)

    def v(self, t):
        dt = t - self.t0
        return (self.v0 + (self.a_cos / self.omega) * (np.sin(self.omega * t) - self._sin0)
                + self.a_k * dt)

    def x(self, t):
        dt = t - self.t0
        w = self.omega
        return (self.x0 + self.v0 * dt
                - (self.a_cos / (w * w)) * (np.cos(w * t) - self._cos0)
                - (self.a_cos / w) * self._sin0 * dt
                + 0.5 * self.a_k * dt * dt)

    def take(self, idx) -> "UniformFlightArcs":
        sub = object.__new__(UniformFlightArcs)
        for name in ("t0", "x0", "v0", "sign", "a_k", "_sin0", "_cos0"):
            setattr(sub, name, getattr(self, name)[idx])
        sub.a_cos, sub.omega, sub.params = self.a_cos, self.omega, self.params
        return sub

    def _knots(self, a, b, guard) -> np.ndarray:
        """Per arc: a, the acceleration zeros in (a, b) past the guard in
        ascending order, then b, padded with b to a common width."""
        p = self.params
        cols = [a[:, None]]
        if p.F != 0.0 and p.f / p.F <= 1.0:
            # the zeros solve cos(omega t) = sign f / F: two phases per sign
            base = np.where(self.sign > 0, math.acos(min(1.0, p.f / p.F)),
                            math.acos(max(-1.0, -p.f / p.F)))
            sg = np.stack([base, -base], axis=1)[:, :, None]
            w = self.omega
            n = np.floor((w * a[:, None, None] - sg) / (2.0 * math.pi))
            ts = ((sg + 2.0 * math.pi * (n + np.arange(3.0))) / w).reshape(len(a), 6)
            ok = (a[:, None] < ts) & (ts < b[:, None]) & (ts > guard[:, None])
            width = int(ok.sum(axis=1).max())
            if width:
                cols.append(np.sort(np.where(ok, ts, b[:, None]), axis=1)[:, :width])
        cols.append(b[:, None])
        return np.hstack(cols)

    def first_velocity_zero(self, t_hi: float) -> np.ndarray:
        """First root of v in (t0, t_hi] per arc (nan: none)."""
        w = self.omega
        window = 0.5 * math.pi / w
        n = len(self.t0)
        guard = self.t0 + np.where(self.v0 == 0.0, 1e-7 * TWO_PI / w, 0.0)
        a = self.t0.copy()
        va_all = np.where(self.v0 == 0.0, self.sign,
                          np.where(self.v0 > 0, 1.0, -1.0))
        root = np.full(n, np.nan)
        lo = np.full(n, np.nan)
        hi = np.full(n, np.nan)
        idx = np.flatnonzero(a < t_hi)
        while idx.size:
            arcs, g, va = self.take(idx), guard[idx], va_all[idx]
            b = np.minimum(a[idx] + window, t_hi)
            knots = arcs._knots(a[idx], b, g)
            open_ = np.ones(idx.size, dtype=bool)
            for j in range(1, knots.shape[1]):
                k2 = knots[:, j]
                v2 = arcs.v(k2)
                live = open_ & (k2 > g)
                hit = live & (v2 == 0.0)
                flip = live & ~hit & ((v2 > 0) != (va > 0))
                root[idx[hit]] = k2[hit]
                lo[idx[flip]] = np.maximum(knots[flip, j - 1], g[flip])
                hi[idx[flip]] = k2[flip]
                open_ &= ~(hit | flip)
                va = np.where(live, v2, va)
            a[idx] = b
            va_all[idx] = va
            idx = idx[open_ & (b < t_hi)]
        # polished as in _polish_velocity_zero
        br = np.flatnonzero(~np.isnan(lo))
        arcs = self.take(br)
        early = (arcs.v(lo[br]) > 0) == (arcs.v(hi[br]) > 0)
        root[br[early]] = lo[br[early]]
        br, arcs = br[~early], arcs.take(~early)
        if br.size:
            root[br] = _brentq_lockstep(lambda t, i: arcs.take(i).v(t), lo[br], hi[br])
        return root

    def wall_crossing(self, target, t_lo, t_hi) -> np.ndarray:
        """Root of x(t) = target on [t_lo, t_hi] per arc (nan: none)."""
        g_lo = self.x(t_lo) - target
        g_hi = self.x(t_hi) - target
        out = np.where(g_hi == 0.0, t_hi, np.nan)
        br = np.flatnonzero((g_hi != 0.0) & ((g_hi > 0) != (g_lo > 0)))
        if br.size:
            arcs, tg = self.take(br), target[br]
            out[br] = _brentq_lockstep(lambda t, i: arcs.take(i).x(t) - tg[i],
                                       t_lo[br], t_hi[br])
        return out


def next_events(p: Params, arcs: UniformFlightArcs, horizon: float):
    """``next_event`` for every arc of the bundle: arrays of the event code
    (HORIZON, IMPACT, VELOCITY_ZERO, or IRREGULAR for grazing contacts and
    zero-velocity impacts), time, position and velocity (the pre-impact
    velocity at an impact)."""
    tie = GRAZE_TIE * p.T
    t_v = arcs.first_velocity_zero(horizon)
    has_v = ~np.isnan(t_v)
    t_stop = np.where(has_v, np.minimum(t_v, horizon), horizon)
    target = np.where(arcs.sign > 0, p.r, p.l)
    t_x = arcs.wall_crossing(target, arcs.t0, t_stop)
    hit = ~np.isnan(t_x)
    t = np.where(hit, t_x, t_stop)
    x, v = arcs.x(t), arcs.v(t)
    kind = np.where(hit, IMPACT, np.where(has_v, VELOCITY_ZERO, HORIZON))
    x = np.where(hit, target, x)
    v = np.where(kind == VELOCITY_ZERO, 0.0, v)
    irregular = hit & ((has_v & (np.abs(t_v - t_x) <= tie)) | (v == 0.0))
    # a velocity zero landing on a wall is a grazing contact
    vz = kind == VELOCITY_ZERO
    irregular |= vz & ((np.abs(x - p.r) <= 1e-12 * max(1.0, abs(p.r)))
                       | (np.abs(x - p.l) <= 1e-12 * max(1.0, abs(p.l))))
    kind = np.where(irregular, IRREGULAR, kind)
    return kind, t, x, v
