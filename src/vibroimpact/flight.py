"""Single free-flight arcs and guaranteed first-event location.

Under the uniform law an arc with fixed velocity sign s solves

    x'' = F cos(omega t) - s f,

which integrates to a sinusoid plus a quadratic: events (wall hit,
velocity zero) are roots of closed-form functions.  The velocity's only
interior extrema are the acceleration zeros (``SinusoidArc.accel_zeros``),
so its exact minimum over a span is taken over them and the span's ends
(``SinusoidArc.min_speed``).  Detection walks quarter-period windows,
inside which the acceleration is monotone, so the velocity has at most one
interior extremum per window and every sign change is bracketed before
being polished by Brent's method.  While the velocity keeps its sign the
position is monotone, which reduces wall detection to a single bracketed
root.

Wall-vanishing arcs have no elementary closed form.  ``WallVanishingArcs``
steps many of them at once by the DOP853 of ``lockstep`` (one step size per
arc), each to the first accepted step that holds an event: a velocity sign
change, sampled on the step's dense polynomial, or the wall ahead; roots
are polished on that polynomial.  ``WallVanishingArc`` does the same for
one arc on Python floats, with ``lockstep``'s one-problem DOP853, and gets
the numbers the arc gets in any bundle, bit for bit.

``UniformFlightArcs`` runs the uniform-law search on many arcs at once, in
lockstep on numpy arrays: the knots of every window of every arc (window
edges and acceleration zeros) are sorted into one array and the velocity
is evaluated on all of them in one pass.  ``next_events`` resolves either
bundle.

Events have one vocabulary: ``next_event`` (one arc) and ``next_events``
(a bundle) report (code, t, x, v) by the same rules in the same order.
The codes are HORIZON (the state at the horizon), IMPACT (the wall ahead,
reached with speed into it; v before the impact), VELOCITY_ZERO (between
the walls) and IRREGULAR: a grazing contact, reported at the wall with
v = 0.  No image can leave the walls.
"""

from __future__ import annotations

import bisect
import math
from operator import itemgetter

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  (perfbench/spans.py wraps it)
from scipy.optimize import brentq

from . import lockstep
from .model import TWO_PI, ContractViolation, ForceLaw, Params, PhaseState

_EPS = float(np.finfo(float).eps)
_BRENT_KW = dict(xtol=1e-14, rtol=4.0 * _EPS, maxiter=200)

# Fraction of T used as the event-time tie window (simultaneous events).
GRAZE_TIE = 1e-12

# Fraction of T after a departure from rest in which no velocity zero is
# taken: above the roundoff floor of v, far below a genuine re-crossing.
DEPARTURE_GUARD = 1e-7

# A velocity zero this close to a wall (times max(1, |wall|)) is at it.
WALL_SNAP = 1e-12

# Integrator tolerances for wall-vanishing arcs.
_WV_RTOL = 1e-12
_WV_ATOL = 1e-13

# Velocity samples on the dense polynomial of a wall-vanishing step that
# may hold a velocity zero.
_WV_STEP_SAMPLES = 8


def _polish_velocity_zero(v, lo: float, hi: float) -> float:
    """The velocity zero bracketed by [lo, hi], where v(hi) has the sign
    opposite to the motion.  When v(lo) has that sign already, lo is the
    departure guard of an arc from rest whose departure is tangent to
    v = 0: its velocity there is below roundoff (or has turned back
    already), and the zero is reported at lo."""
    if (v(lo) > 0) == (v(hi) > 0):
        return lo
    return brentq(v, lo, hi, **_BRENT_KW)


def _wall_crossing(x, target: float, t_lo: float, t_hi: float) -> float | None:
    """Root of x(t) = target on [t_lo, t_hi], where x is monotone toward
    the target (None: none)."""
    g_lo = x(t_lo) - target
    g_hi = x(t_hi) - target
    if g_hi == 0.0:
        return t_hi
    if (g_hi > 0) == (g_lo > 0):
        return None
    return brentq(lambda t: x(t) - target, t_lo, t_hi, **_BRENT_KW)


def _step_may_hold_event(p: Params, s, vo, vn, a, h, x_new, target, at_horizon):
    """Whether a wall-vanishing step of sign s must be searched for an
    event: it went from velocity vo and acceleration a (= x'') over h to
    velocity vn and position x_new.  It holds none if x ends 1e-12 short of
    the wall ahead and s (vo + a h) > M h^2, with M = F (omega + pi/2 (|vo|
    + (F + f) h)) >= |a'| (twice the Taylor remainder bound).  One arc
    passes floats and a bundle arrays; both take the same operations in the
    same order."""
    bend = p.F * (p.omega + 0.5 * math.pi * (abs(vo) + (p.F + p.f) * h))
    return ((vn * s <= 0.0) | (vo * s < 0.0) | at_horizon
            | (s * (vo + a * h) <= bend * h * h)
            | (s * (x_new - target) > -1e-12))


# event codes of next_event and next_events
HORIZON, IMPACT, VELOCITY_ZERO, IRREGULAR = 0, 1, 2, 3


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

    def accel_zeros(self, a: float, b: float) -> list[float]:
        """Times in (a, b), ascending, where the acceleration vanishes: the
        interior extrema of v.  They solve cos(omega t) = -a_k / a_cos, at
        phases +-acos of it plus whole turns, counted from the turn at or
        before a."""
        if self.a_cos == 0.0:
            return []
        c0 = -self.a_k / self.a_cos
        if abs(c0) > 1.0:
            return []
        w = self.omega
        base = math.acos(c0)
        out = []
        for sgn in (base, -base):
            k = math.floor((w * a - sgn) / TWO_PI)
            while (t := (sgn + TWO_PI * k) / w) < b:
                if t > a:
                    out.append(t)
                k += 1
        return sorted(out)

    def min_speed(self, a: float, b: float) -> float:
        """Exact minimum of sign * v over [a, b]: v is smooth, so it is
        taken at an end or at an acceleration zero."""
        return min(self.sign * self.v(t) for t in (a, b, *self.accel_zeros(a, b)))

    def first_velocity_zero(self, t_hi: float) -> float | None:
        """First root of v(t) in (t0, t_hi], honoring the departure sign
        when v(t0) == 0.

        Arcs released from sticking depart with both v and the acceleration
        at zero; a small guard after t0 keeps roundoff in v from reporting
        the departure point itself as a root.
        """
        w = self.omega
        window = 0.5 * math.pi / w  # T/4
        guard = self.t0 + (DEPARTURE_GUARD * TWO_PI / w if self.v0 == 0.0 else 0.0)
        a = self.t0
        sign_a = self.sign if self.v0 == 0.0 else (1 if self.v0 > 0 else -1)
        while a < t_hi:
            b = min(a + window, t_hi)
            knots = [a] + [k for k in self.accel_zeros(a, b) if k > guard] + [b]
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
        return _wall_crossing(self.x, target, t_lo, t_hi)


def _arc(p: Params, x: float, v: float, t: float, sign: int, jac=False):
    if p.force_law is ForceLaw.UNIFORM:
        return UniformFlightArc(p, x, v, t, sign)
    return WallVanishingArc(p, x, v, t, sign, with_transport=jac)


class UniformFlightArc(SinusoidArc):
    """Flight arc of the uniform law (exact closed form)."""

    __slots__ = ("params",)

    def __init__(self, p: Params, x, v, t, sign):
        super().__init__(t, x, v, sign, p.F, -sign * p.f, p.omega)
        self.params = p

    def transport(self, t_a: float, t_b: float) -> np.ndarray:
        """Fixed-time linearization of the flight over [t_a, t_b]; the
        force is x-independent so this is the unit shear."""
        return np.array([[1.0, t_b - t_a], [0.0, 1.0]])

    def friction_column(self, t_a: float, t_b: float) -> np.ndarray:
        """Fixed-time derivative of the flight over [t_a, t_b] in f: the
        friction acceleration is -sign f, so (-sign dt^2 / 2, -sign dt)."""
        dt = t_b - t_a
        return np.array([-0.5 * self.sign * dt * dt, -self.sign * dt])

    def event_times(self, horizon: float):
        """First velocity zero in (t0, horizon] and the crossing of the wall
        ahead before it (None: none)."""
        t_v = self.first_velocity_zero(horizon)
        t_stop = horizon if t_v is None else min(t_v, horizon)
        target = self.params.r if self.sign > 0 else self.params.l
        return t_v, self.wall_crossing(target, self.t0, t_stop)


class WallVanishingArc:
    """One wall-vanishing arc, stepped on Python floats by the one-problem
    DOP853 of ``lockstep`` (``step1`` and its siblings).  ``event_times``
    is ``WallVanishingArcs.event_times`` and ``_events`` for one arc: the
    same steps, minimum step, Taylor skip test, dense samples, Brent polish
    and wall crossing, in the same floating-point order, so its events, x
    and v equal those the arc gets in any bundle, bit for bit.  It keeps
    every accepted step, so that after ``event_times`` x and v can be read
    anywhere on the arc; the interpolant of a step before the last one is
    rebuilt when read."""

    def __init__(self, p: Params, x, v, t, sign, with_transport=False):
        self.params = p
        self.t0, self.x0, self.v0, self.sign = t, x, v, sign
        self.jac = with_transport
        fs, F, w, hp = sign * p.f, p.F, p.omega, 0.5 * math.pi

        def fun(t, y):     # WallVanishingArcs._rhs on floats
            c = math.cos(w * t)
            out = [y[1], F * math.cos(hp * y[0]) * c - fs]
            if len(y) > 2:
                gx = -F * hp * math.sin(hp * y[0]) * c
                out += [y[4], y[5], gx * y[2], gx * y[3]]
            return out
        self._fun = fun

    def event_times(self, horizon: float):
        """``WallVanishingArcs.event_times`` of this arc (None: none)."""
        p, s, fun = self.params, self.sign, self._fun
        t = float(self.t0)
        y = [float(self.x0), float(self.v0)]
        if self.jac:
            y += [1.0, 0.0, 0.0, 1.0]   # the flow derivative starts at I
        f = fun(t, y)
        h = lockstep.initial_step1(fun, t, y, f, horizon, _WV_RTOL, _WV_ATOL)
        target = p.r if s > 0 else p.l
        guard = self.t0 + (DEPARTURE_GUARD * TWO_PI / p.omega
                           if self.v0 == 0.0 else 0.0)
        # every accepted step as (t, h, array): row j of the array holds
        # component j of y and y_new, then its 13 stages
        self._steps = []
        rejected = False
        while True:
            min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
            if h < min_step:
                if rejected:  # pragma: no cover - integrator failure
                    raise RuntimeError("wall-vanishing arc: step size underflow")
                h = min_step
            t_new = min(t + h, horizon)
            hh = t_new - t
            y_new, f_new, K, err = lockstep.step1(fun, t, y, f, hh,
                                                  _WV_RTOL, _WV_ATOL)
            h = lockstep.next_size1(hh, err, rejected)
            rejected = not err < 1.0
            if rejected:
                continue
            self._steps.append((t, hh, np.array([[a, b, *kc] for a, b, kc
                                                 in zip(y, y_new, K)])))
            if _step_may_hold_event(p, s, y[1], y_new[1], f[1], hh, y_new[0],
                                    target, t_new >= horizon):
                self._last = (t, hh, y, lockstep.dense1(fun, t, hh, y, y_new, K))
                t_v, t_x = self._events(t_new, target, guard)
                if t_v is not None or t_x is not None or t_new >= horizon:
                    return t_v, t_x
            t, y, f = t_new, y_new, f_new

    def _events(self, t_end, target, guard):
        """``WallVanishingArcs._events`` on the last step, which ends at
        t_end."""
        t_old, h = self._last[:2]
        lo, S, t_v = t_old, _WV_STEP_SAMPLES, None
        for k in range(1, S + 1):
            t = t_end if k == S else t_old + h * (k / S)
            v = self.v(t)
            if t > guard and (v == 0.0 or (v > 0) != (self.sign > 0)):
                t_v = (t if v == 0.0
                       else _polish_velocity_zero(self.v, max(lo, guard), t))
                break
            lo = t
        return t_v, _wall_crossing(self.x, target, t_old,
                                   t_end if t_v is None else t_v)

    def _at(self, t: float, row: int) -> float:
        """Component ``row`` at time t, on the accepted step that holds t."""
        t_old, h, y_old, F = self._last
        if t < t_old:
            i = max(0, bisect.bisect_right(self._steps, t, key=itemgetter(0)) - 1)
            t_old, h, packed = self._steps[i]
            rows = packed.tolist()
            y_old = [r[0] for r in rows]
            F = lockstep.dense1(self._fun, t_old, h, y_old, [r[1] for r in rows],
                                [r[2:] for r in rows])
        return lockstep.interpolate1(F[row], y_old[row], (t - t_old) / h)

    def x(self, t: float) -> float:
        return self._at(t, 0)

    def v(self, t: float) -> float:
        return self._at(t, 1)

    def state(self, t: float) -> PhaseState:
        return PhaseState(self.x(t), self.v(t), t)

    def transport(self, t_a: float, t_b: float) -> np.ndarray:
        """Variational flow derivative over [t0, t_b] (with_transport)."""
        if not self.jac:
            raise ContractViolation("arc built without variational transport")
        return np.array([[self._at(t_b, 2), self._at(t_b, 3)],
                         [self._at(t_b, 4), self._at(t_b, 5)]])

    def friction_column(self, t_a: float, t_b: float) -> None:
        """No closed-form derivative in f under this law."""
        return None


FlightArc = UniformFlightArc | WallVanishingArc


def next_event(p: Params, arc: FlightArc, horizon: float):
    """First event of one arc, as (code, t, x, v): what ``next_events``
    gives for one arc.  Wall detection exploits monotonicity of x while v
    keeps its sign: the search span is capped at the first velocity zero,
    which is never past the horizon.

    A wall hit is IRREGULAR within GRAZE_TIE * T of a velocity zero, or
    with no speed into the wall (sign * v <= 0: roundoff gives it to an arc
    that leaves rest next to a wall); else it is an IMPACT.  A velocity
    zero within WALL_SNAP of a wall is IRREGULAR too, at that wall.
    """
    if horizon <= arc.t0:
        raise ContractViolation("horizon must exceed the arc start time")
    t_v, t_x = arc.event_times(horizon)
    if t_x is not None:
        wall = p.r if arc.sign > 0 else p.l
        if t_v is None or abs(t_v - t_x) > GRAZE_TIE * p.T:
            v = arc.v(t_x)
            if arc.sign * v > 0.0:
                return IMPACT, t_x, wall, v
        return IRREGULAR, t_x, wall, 0.0
    if t_v is not None:
        x = arc.x(t_v)
        for wall in (p.r, p.l):
            if abs(x - wall) <= WALL_SNAP * max(1.0, abs(wall)):
                return IRREGULAR, t_v, wall, 0.0
        return VELOCITY_ZERO, t_v, x, 0.0
    s = arc.state(horizon)
    return HORIZON, horizon, s.x, s.v


# ---------------------------------------------------------------------------
# lockstep event location (many arcs at once)
# ---------------------------------------------------------------------------


class _LockstepArcs:
    """Event polish shared by the lockstep bundles, which provide ``x``,
    ``v`` and ``take`` (the bundle of the arcs idx)."""

    def polish_velocity_zeros(self, lo, hi) -> np.ndarray:
        """``_polish_velocity_zero`` per arc, on brackets [lo, hi]."""
        root = lo.copy()
        go = np.flatnonzero((self.v(lo) > 0) != (self.v(hi) > 0))
        if go.size:
            arcs = self.take(go)
            root[go] = lockstep.brentq(lambda t, i: arcs.take(i).v(t), lo[go],
                                       hi[go], **_BRENT_KW)
        return root

    def wall_crossing(self, target, t_lo, t_hi) -> np.ndarray:
        """Root of x(t) = target on [t_lo, t_hi] per arc, where x is
        monotone toward the target (nan: none)."""
        g_lo, g_hi = self.x(t_lo) - target, self.x(t_hi) - target
        out = np.where(g_hi == 0.0, t_hi, np.nan)
        br = np.flatnonzero((g_hi != 0.0) & ((g_hi > 0) != (g_lo > 0)))
        if br.size:
            arcs, tg = self.take(br), target[br]
            out[br] = lockstep.brentq(lambda t, i: arcs.take(i).x(t) - tg[i],
                                      t_lo[br], t_hi[br], **_BRENT_KW)
        return out


class UniformFlightArcs(_LockstepArcs):
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
        # SinusoidArc.v in its floating-point order, computed in place: the
        # knot scan calls it on a (knots, arcs) array
        out = np.sin(self.omega * t)
        out -= self._sin0
        out *= self.a_cos / self.omega
        out += self.v0
        dt = t - self.t0
        dt *= self.a_k
        out += dt
        return out

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

    def first_velocity_zero(self, t_hi: float) -> np.ndarray:
        """First root of v in (t0, t_hi] per arc (nan: none), in one pass
        over a sorted (knots, arcs) array: the window edges, chained by the
        scalar's additions, and the acceleration zeros by the scalar's
        formula.  Knots the scalar walk leaves out change nothing: zeros up
        to the guard are skipped as it skips edges there, a zero on an edge
        repeats the edge's value, and zeros past t_hi are moved onto it."""
        p, w, n = self.params, self.omega, len(self.t0)
        window = 0.5 * math.pi / w
        guard = self.t0 + np.where(self.v0 == 0.0, DEPARTURE_GUARD * TWO_PI / w, 0.0)
        knots = [self.t0, np.minimum(self.t0 + window, t_hi)]
        while (knots[-1] < t_hi).any():
            knots.append(np.minimum(knots[-1] + window, t_hi))
        if p.F != 0.0 and p.f / p.F <= 1.0:
            # the zeros solve cos(omega t) = sign f / F: two phases per sign
            base = np.where(self.sign > 0, math.acos(min(1.0, p.f / p.F)),
                            math.acos(max(-1.0, -p.f / p.F)))
            sg = np.stack([base, -base])
            n0 = np.floor((w * self.t0 - sg) / (2.0 * math.pi))
            # k from the zero at or before t0: ceil(span / T) + 2 of them
            # reach past t_hi
            span = float(np.max(t_hi - self.t0, initial=0.0))
            ks = np.arange(math.ceil(span * w / (2.0 * math.pi)) + 2.0)
            knots.extend(((sg + 2.0 * math.pi * (n0 + ks[:, None, None])) / w
                          ).reshape(2 * len(ks), n))
        knots = np.array(knots)
        np.minimum(knots, t_hi, out=knots)
        knots.sort(axis=0)
        vk = self.v(knots)
        live = knots > guard      # a suffix of each sorted column
        up = vk > 0
        # the sign before each knot: the last live knot's, else the departure's
        departs_up = np.where(self.v0 == 0.0, self.sign > 0, self.v0 > 0)
        up_before = np.where(live[:-1], up[:-1], departs_up)
        ev = live[1:] & ((vk[1:] == 0.0) | (up[1:] != up_before))
        j, r = ev.argmax(axis=0) + 1, np.arange(n)
        has, hi, v_hi = ev[j - 1, r], knots[j, r], vk[j, r]
        root = np.where(has & (v_hi == 0.0), hi, np.nan)
        br = np.flatnonzero(has & (v_hi != 0.0))
        if br.size:
            lo = np.maximum(knots[j[br] - 1, br], guard[br])
            root[br] = self.take(br).polish_velocity_zeros(lo, hi[br])
        return root

    def event_times(self, horizon: float):
        """``UniformFlightArc.event_times`` per arc (nan: none)."""
        t_v = self.first_velocity_zero(horizon)
        t_stop = np.where(np.isnan(t_v), horizon, np.minimum(t_v, horizon))
        target = np.where(self.sign > 0, self.params.r, self.params.l)
        return t_v, self.wall_crossing(target, self.t0, t_stop)


class WallVanishingArcs(_LockstepArcs):
    """Wall-vanishing arcs of many cells, each stepped by the lockstep DOP853
    to its first accepted step that holds an event, or to the horizon.
    Steps that ``_step_may_hold_event`` cannot rule out are searched: v is
    sampled at _WV_STEP_SAMPLES points past the departure guard on the
    dense polynomial, where the roots are polished.  ``x`` and ``v`` read
    the last steps.  With ``jac`` the variational block (rows 2-5: dx/dx0,
    dx/dv0, dv/dx0, dv/dv0) rides along."""

    def __init__(self, p: Params, x, v, t, sign, jac=False):
        self.params, self.jac = p, jac
        self.t0, self.x0, self.v0, self.sign = t, x, v, sign

    def _rhs(self, fs):
        """The vector field of arcs with friction acceleration fs."""
        p, hp = self.params, 0.5 * math.pi

        def fun(t, y):
            c = np.cos(p.omega * t)
            out = np.empty_like(y)
            out[0], out[1] = y[1], p.F * np.cos(hp * y[0]) * c - fs
            if len(y) > 2:     # d/dt of the flow derivative rows
                gx = -p.F * hp * np.sin(hp * y[0]) * c
                out[2:4], out[4:] = y[4:], gx * y[2:4]
            return out
        return fun

    def take(self, idx) -> "WallVanishingArcs":
        """The last steps of arcs idx."""
        sub = object.__new__(WallVanishingArcs)
        sub._t, sub._h, sub._y, sub._F = (self._t[idx], self._h[idx],
                                          self._y[:, idx], self._F[:, :, idx])
        return sub

    def _at(self, t, row):
        """Component ``row`` at times t (per arc) on the last steps."""
        return lockstep.interpolate(self._F[:, row], self._y[row],
                                    (t - self._t) / self._h)

    def x(self, t):
        return self._at(t, 0)

    def v(self, t):
        return self._at(t, 1)

    def event_times(self, horizon: float):
        """``UniformFlightArc.event_times`` per arc (nan: none)."""
        p, n, fs = self.params, len(self.t0), self.sign * self.params.f
        t = np.array(self.t0, dtype=float)
        y = np.zeros((6 if self.jac else 2, n))
        y[0], y[1] = self.x0, self.v0
        if self.jac:
            y[2] = y[5] = 1.0
        fun = self._rhs(fs)
        f = fun(t, y)
        h = lockstep.initial_step(fun, t, y, f, horizon, _WV_RTOL, _WV_ATOL)
        target = np.where(self.sign > 0, p.r, p.l)
        guard = self.t0 + np.where(self.v0 == 0.0,
                                   DEPARTURE_GUARD * TWO_PI / p.omega, 0.0)
        self._t, self._h, self._y = np.empty(n), np.empty(n), np.empty_like(y)
        self._F = np.empty((7,) + y.shape)
        t_v, t_x = np.full(n, np.nan), np.full(n, np.nan)
        rejected, live = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
        idx = np.arange(n)
        while idx.size:
            ti, hi = t[idx], h[idx]
            min_step = 10.0 * np.abs(np.nextafter(ti, np.inf) - ti)
            hi = np.where(~rejected[idx] & (hi < min_step), min_step, hi)
            if np.any(hi < min_step):  # pragma: no cover - integrator failure
                raise RuntimeError("wall-vanishing arc: step size underflow")
            t_new = np.minimum(ti + hi, horizon)
            hh, yi, fi = t_new - ti, y[:, idx], f[:, idx]
            y_new, f_new, K, err = lockstep.step(self._rhs(fs[idx]), ti, yi, fi,
                                                 hh, _WV_RTOL, _WV_ATOL)
            ok = err < 1.0
            h[idx] = lockstep.next_size(hh, err, rejected[idx])
            rejected[idx] = ~ok
            a = idx[ok]
            t[a], y[:, a], f[:, a] = t_new[ok], y_new[:, ok], f_new[:, ok]
            search = _step_may_hold_event(
                p, self.sign[a], yi[1, ok], y_new[1, ok], fi[1, ok], hh[ok],
                y_new[0, ok], target[a], t_new[ok] >= horizon)
            sel, c = np.flatnonzero(ok)[search], a[search]
            if c.size:
                F = lockstep.dense(self._rhs(fs[c]), ti[sel], hh[sel], yi[:, sel],
                                   y_new[:, sel], K[:, :, sel])
                self._t[c], self._h[c], self._y[:, c] = ti[sel], hh[sel], yi[:, sel]
                self._F[:, :, c] = F
                t_v[c], t_x[c] = self._events(c, t_new[sel], target[c], guard[c])
                live[c] = np.isnan(t_v[c]) & np.isnan(t_x[c]) & (t_new[sel] < horizon)
                idx = idx[live[idx]]
        return t_v, t_x

    def _events(self, c, t_end, target, guard):
        """Velocity zero and wall crossing on the last steps of arcs c."""
        last, S = self.take(c), _WV_STEP_SAMPLES
        ts = last._t[:, None] + last._h[:, None] * (np.arange(1, S + 1) / S)
        ts[:, -1] = t_end
        vs = last.v(ts.T).T
        ev = (ts > guard[:, None]) & ((vs == 0.0)
                                      | ((vs > 0) != (self.sign[c] > 0)[:, None]))
        r, k = np.arange(len(c)), ev.argmax(axis=1)
        has, hi, v_hi = ev[r, k], ts[r, k], vs[r, k]
        t_v = np.where(has & (v_hi == 0.0), hi, np.nan)
        br = np.flatnonzero(has & (v_hi != 0.0))
        if br.size:
            lo = np.maximum(np.where(k[br] > 0, ts[br, k[br] - 1], last._t[br]),
                            guard[br])
            t_v[br] = last.take(br).polish_velocity_zeros(lo, hi[br])
        t_stop = np.where(np.isnan(t_v), t_end, t_v)
        return t_v, last.wall_crossing(target, last._t, t_stop)


def next_events(p: Params, arcs, horizon: float):
    """``next_event`` for every arc of a ``UniformFlightArcs`` or
    ``WallVanishingArcs`` bundle, by the same rules in the same order:
    arrays of the event code, time, x and v."""
    t_v, t_x = arcs.event_times(horizon)
    has_v, hit = ~np.isnan(t_v), ~np.isnan(t_x)
    t = np.where(hit, t_x, np.where(has_v, t_v, horizon))
    x, v = arcs.x(t), arcs.v(t)
    kind = np.where(hit, IMPACT, np.where(has_v, VELOCITY_ZERO, HORIZON))
    x = np.where(hit, np.where(arcs.sign > 0, p.r, p.l), x)
    irregular = hit & ((has_v & (np.abs(t_v - t_x) <= GRAZE_TIE * p.T))
                       | (arcs.sign * v <= 0.0))
    vz = kind == VELOCITY_ZERO
    at_r = vz & (np.abs(x - p.r) <= WALL_SNAP * max(1.0, abs(p.r)))
    at_l = vz & ~at_r & (np.abs(x - p.l) <= WALL_SNAP * max(1.0, abs(p.l)))
    x = np.where(at_r, p.r, np.where(at_l, p.l, x))
    irregular |= at_r | at_l
    v = np.where(vz | irregular, 0.0, v)
    kind = np.where(irregular, IRREGULAR, kind)
    return kind, t, x, v
