"""Event-driven trajectories: flight arcs chained through impacts,
turning points and Filippov sticking.

Velocity-zero classification follows the convexified sign law: motion
resumes instantly when the applied force beats friction (turning point),
otherwise the particle sticks until the force magnitude next crosses the
friction level from below.  |force| = f counts as sticking (closed
condition); the release then happens immediately with the force direction.

A velocity zero exactly at a wall (grazing) is resolved against the hard
constraint: resumed motion must point into the interior.  If the force
presses the particle against the wall it stays there (wall reaction
active) until the force level re-enters the friction band, sticks, and is
released; a release toward the wall presses it again until |force| drops
to f.  Grazing episodes are logged and flag the map derivative as
undefined.

There is one resolution path: ``_advance`` makes every event with the
builders that ``resolve_velocity_zero`` and ``resolve_impact`` wrap, sticks
inside and at a wall through one routine, and takes the saltation factors
from ``reflection_factor`` and ``turning_factor``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (ContractViolation, ForceLaw, Params, PhaseState, TWO_PI,
                    applied_force, params_to_dict, spatial_envelope)
from .flight import (HORIZON, IMPACT, IRREGULAR, FlightArc, UniformFlightArcs,
                     WallVanishingArcs, _arc, next_event, next_events)


class SimulationError(RuntimeError):
    """Event cascade exceeded the configured cap."""


class ResolvedKind(str, Enum):
    IMPACT = "impact"
    TURNING = "turning"
    STICK_START = "stick_start"
    STICK_RELEASE = "stick_release"
    GRAZING = "grazing"


@dataclass(frozen=True)
class ResolvedEvent:
    kind: ResolvedKind
    time: float
    state_before: PhaseState
    state_after: PhaseState
    force: float
    wall: int = 0                      # -1 left, +1 right, 0 interior
    release_time: float | None = None  # stick events: None means "never"
    direction: int = 0                 # post-event motion sign where applicable


@dataclass(frozen=True)
class StickInterval:
    """Rest episode: v = 0 and x constant on [t0, t1].  ``constrained`` marks
    wall-pressed rest, where the wall reaction (not friction) holds the
    particle and |force| may exceed f."""

    x: float
    t0: float
    t1: float
    constrained: bool = False


@dataclass(frozen=True)
class FlightSegment:
    arc: FlightArc
    t0: float
    t1: float


Segment = FlightSegment | StickInterval


@dataclass
class Trajectory:
    params: Params
    initial: PhaseState
    segments: list[Segment]
    events: list[ResolvedEvent]
    final: PhaseState

    def state_at(self, t: float) -> PhaseState:
        if not (self.initial.t - 1e-12 <= t <= self.final.t + 1e-12):
            raise ValueError(f"time {t} outside trajectory span")
        t = min(max(t, self.initial.t), self.final.t)
        for seg in self.segments:
            if t <= seg.t1 or seg is self.segments[-1]:
                if isinstance(seg, StickInterval):
                    return PhaseState(seg.x, 0.0, t)
                tt = min(max(t, seg.t0), seg.t1)
                s = seg.arc.state(tt)
                return PhaseState(s.x, s.v, t)
        return self.final  # pragma: no cover

    def sample(self, ts) -> np.ndarray:
        """Dense samples as an (n, 3) array of rows (t, x, v)."""
        out = np.empty((len(ts), 3))
        for i, t in enumerate(ts):
            s = self.state_at(float(t))
            out[i] = (s.t, s.x, s.v)
        return out

    def event_signature(self) -> tuple[str, ...]:
        return tuple(_code(e) for e in self.events)

    def to_json(self) -> str:
        def ev(e: ResolvedEvent) -> dict:
            return {"kind": e.kind.value, "time": e.time, "wall": e.wall,
                    "x": e.state_before.x,
                    "v_before": e.state_before.v, "v_after": e.state_after.v,
                    "force": e.force, "release_time": e.release_time,
                    "direction": e.direction}
        doc = {
            "params": params_to_dict(self.params),
            "initial": [self.initial.x, self.initial.v, self.initial.t],
            "final": [self.final.x, self.final.v, self.final.t],
            "events": [ev(e) for e in self.events],
        }
        return json.dumps(doc, indent=1)

    def samples_csv(self, dt: float) -> str:
        n = max(2, int(math.floor((self.final.t - self.initial.t) / dt)) + 1)
        ts = self.initial.t + dt * np.arange(n)
        ts = ts[ts <= self.final.t + 1e-12]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "x", "v"])
        for row in self.sample(ts):
            w.writerow([f"{c:.17g}" for c in row])
        return buf.getvalue()


# Signature code of each event kind; impacts are coded by wall.
_CODES = {ResolvedKind.IMPACT: {1: "R", -1: "L"}, ResolvedKind.TURNING: "T",
          ResolvedKind.STICK_START: "S", ResolvedKind.STICK_RELEASE: "s",
          ResolvedKind.GRAZING: "G"}


def _code(e: ResolvedEvent) -> str:
    c = _CODES[e.kind]
    return c[e.wall] if isinstance(c, dict) else c


# ---------------------------------------------------------------------------
# pointwise event resolution and saltation factors
# ---------------------------------------------------------------------------

# The velocity-zero rules shared by ``_advance`` and ``_advance_batch``;
# they take scalars or arrays.

def _turns(g, f):
    """A velocity zero is a turning point when |force| beats friction;
    otherwise the particle sticks (|force| = f sticks)."""
    return abs(g) > f


def _turning_ratio(g, f):
    """Contraction ratio (determinant factor) of a turning point."""
    return (abs(g) - f) / (abs(g) + f)


def _phase(p: Params, t):
    """Forcing phase omega t reduced to [0, 2 pi)."""
    return (p.omega * t) % TWO_PI


def _phase_delay(target, ph):
    """Phase advance in [0, 2 pi) from phase ``ph`` to ``target``.  A gap
    within 1e-9 of a full turn is roundoff at the target itself and counts
    as 0 (the product with the comparison keeps this branch-free)."""
    delta = (target - ph) % TWO_PI
    return delta * (delta <= TWO_PI - 1e-9)


def _band_exits(th0: float, ph):
    """Phase delays from ``ph`` to the exits of the friction band
    |cos| <= cos(th0): (leftward exit at pi - th0, rightward exit at
    2 pi - th0).  The earlier one is taken; a tie goes left."""
    return (_phase_delay(math.pi - th0, ph), _phase_delay(TWO_PI - th0, ph))


def stick_release_time(p: Params, x: float, t_s: float) -> tuple[float, int] | None:
    """First (time, direction) after t_s where |force(x, .)| crosses f from
    below, or None when the force envelope never exceeds friction at x.

    The force is A(x) cos(omega t) with A >= 0, so the band exits sit at
    phases pi - acos(f/A) (leftward) and 2 pi - acos(f/A) (rightward).
    """
    amp = spatial_envelope(p, x)
    if amp <= p.f:
        return None
    left, right = _band_exits(math.acos(min(1.0, p.f / amp)), _phase(p, t_s))
    if right < left:
        return (t_s + right / p.omega, +1)
    return (t_s + left / p.omega, -1)


def _pressed_end_time(p: Params, wall: int, t: float) -> float:
    """End of a wall-pressed episode: next time |force| drops to f.

    Right wall presses while F cos(omega t) > f, ending at phase
    acos(f/F); left wall while the force is below -f, ending at
    pi + acos(f/F).  Only reachable under the uniform law (the
    wall-vanishing force vanishes at the walls).
    """
    beta = math.acos(min(1.0, p.f / p.F))
    target = beta if wall > 0 else math.pi + beta
    return t + _phase_delay(target, _phase(p, t)) / p.omega


# The event builders: ``_advance`` and the public resolvers below make
# every ResolvedEvent through them; g is the applied force at the event.

def _stick_event(p: Params, x: float, t: float, g: float,
                 wall: int = 0) -> ResolvedEvent:
    rel = stick_release_time(p, x, t)
    st = PhaseState(x, 0.0, t)
    return ResolvedEvent(ResolvedKind.STICK_START, t, st, st, force=g, wall=wall,
                         release_time=None if rel is None else rel[0],
                         direction=0 if rel is None else rel[1])


def _velocity_zero_event(p: Params, x: float, t: float, g: float) -> ResolvedEvent:
    """Interior velocity zero: turning point or stick start."""
    if _turns(g, p.f):
        st = PhaseState(x, 0.0, t)
        return ResolvedEvent(ResolvedKind.TURNING, t, st, st, force=g,
                             direction=1 if g > 0 else -1)
    return _stick_event(p, x, t, g)


def _release_event(p: Params, stick: ResolvedEvent) -> ResolvedEvent:
    x, t_r = stick.state_before.x, stick.release_time
    st = PhaseState(x, 0.0, t_r)
    return ResolvedEvent(ResolvedKind.STICK_RELEASE, t_r, st, st,
                         force=applied_force(p, x, t_r), wall=stick.wall,
                         direction=stick.direction)


def _impact_event(p: Params, x: float, v: float, t: float,
                  wall: int) -> ResolvedEvent:
    """Elastic reflection (unit restitution); v is the pre-impact velocity."""
    return ResolvedEvent(ResolvedKind.IMPACT, t, PhaseState(x, v, t),
                         PhaseState(x, -v, t), force=applied_force(p, x, t),
                         wall=wall, direction=-wall)


def _grazing_event(p: Params, x: float, t: float, wall: int) -> ResolvedEvent:
    st = PhaseState(x, 0.0, t)
    return ResolvedEvent(ResolvedKind.GRAZING, t, st, st,
                         force=applied_force(p, x, t), wall=wall)


def resolve_velocity_zero(p: Params, state: PhaseState) -> ResolvedEvent:
    """Classify an interior velocity zero: turning point or stick start."""
    if state.v != 0.0:
        raise ContractViolation("resolve_velocity_zero requires v = 0")
    if not (p.l < state.x < p.r):
        raise ContractViolation("state must be strictly between the walls")
    return _velocity_zero_event(p, state.x, state.t,
                                applied_force(p, state.x, state.t))


def resolve_impact(p: Params, state: PhaseState) -> ResolvedEvent:
    """Instantaneous elastic reflection at a wall (unit restitution)."""
    if state.x == p.r:
        wall = 1
    elif state.x == p.l:
        wall = -1
    else:
        raise ContractViolation("resolve_impact requires x at a wall")
    if state.v == 0.0:
        return _grazing_event(p, state.x, state.t, wall)
    if (state.v > 0) != (wall > 0):
        raise ContractViolation("velocity points away from the wall")
    return _impact_event(p, state.x, state.v, state.t, wall)


def reflection_factor(force_value: float, v_pre: float) -> np.ndarray:
    """Saltation matrix of an elastic wall reflection."""
    return np.array([[-1.0, 0.0], [2.0 * force_value / v_pre, -1.0]])


def turning_factor(force_value: float, f: float) -> np.ndarray:
    """Saltation matrix of a turning point."""
    return np.array([[1.0, 0.0], [0.0, _turning_ratio(force_value, f)]])


# Saltation matrix of a sticking episode (the velocity is erased).
_STICK_FACTOR = np.array([[1.0, 0.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Raw output of the event loop (no Trajectory bookkeeping)."""

    x: float
    v: float
    t: float
    signature: tuple[str, ...]
    counts: dict
    det: float
    undefined: bool
    factors: list | None   # (kind, 2x2 factor, its f-column term)
    events: list[ResolvedEvent] | None
    segments: list[Segment] | None


def _advance(p: Params, x: float, v: float, t: float, t_end: float, *,
             record: bool = False, jac: bool = False,
             event_cap: int = 1_000_000) -> RunResult:
    if not (p.l <= x <= p.r):
        raise ContractViolation(f"initial position {x} outside [{p.l}, {p.r}]")
    if t_end <= t:
        raise ContractViolation("duration must be positive")

    events: list[ResolvedEvent] | None = [] if record else None
    segments: list[Segment] | None = [] if record else None
    factors: list | None = [] if jac else None
    sig: list[str] = []
    counts = {"impacts_left": 0, "impacts_right": 0, "turnings": 0,
              "sticks": 0, "grazings": 0, "pressed": 0}
    det = 1.0
    undefined = False
    n_events = 0

    def note(ev: ResolvedEvent | None):
        """Count an event against the cap and log it (None: a wall-pressed
        episode, which counts but has no signature code)."""
        nonlocal n_events
        n_events += 1
        if n_events > event_cap:
            raise SimulationError(
                f"event cascade exceeded cap of {event_cap} events "
                f"(possible chatter or degenerate configuration)")
        if ev is not None:
            sig.append(_code(ev))
            if record:
                events.append(ev)

    def rest(t_a, t_b, constrained=False):
        if record and t_b > t_a:
            segments.append(StickInterval(x, t_a, t_b, constrained))

    def reflect(wall):
        ev = _impact_event(p, x, v, t, wall)
        counts["impacts_right" if wall > 0 else "impacts_left"] += 1
        note(ev)
        if jac:
            factors.append(("reflection", reflection_factor(ev.force, v), 0.0))

    def stick(ev: ResolvedEvent) -> int:
        """Rest from the stick start ``ev`` (interior or at a wall) to its
        release; returns the release direction, or 0 when the particle
        rests to t_end.  Moves t to the end of the rest."""
        nonlocal det, undefined, t
        counts["sticks"] += 1
        note(ev)
        det = 0.0
        if p.f == 0.0:
            undefined = True   # degenerate tangency: v and force vanish together
        if jac:
            factors.append(("stick", _STICK_FACTOR.copy(), 0.0))
        if ev.release_time is None or ev.release_time >= t_end:
            rest(t, t_end)
            t = t_end
            return 0
        rest(t, ev.release_time)
        note(_release_event(p, ev))
        t = ev.release_time
        return ev.direction

    sign = 0
    if v > 0:
        sign = 1
    elif v < 0:
        sign = -1

    # an initial state resting on a wall but pointed outward is resolved by
    # an immediate reflection
    if sign != 0 and ((x == p.r and sign > 0) or (x == p.l and sign < 0)):
        reflect(sign)
        v, sign = -v, -sign

    while True:
        # --- zero-velocity states (interior or at a wall) ------------------
        if v == 0.0 and t < t_end:
            wall = 1 if x == p.r else (-1 if x == p.l else 0)
            if wall == 0:
                ev = _velocity_zero_event(p, x, t, applied_force(p, x, t))
                if ev.kind is ResolvedKind.TURNING:
                    sign = ev.direction
                    counts["turnings"] += 1
                    note(ev)
                    det *= _turning_ratio(ev.force, p.f)
                    if jac:
                        factors.append(("turning",
                                        turning_factor(ev.force, p.f), 0.0))
                else:
                    sign = stick(ev)
            else:
                undefined = True
                counts["grazings"] += 1
                note(_grazing_event(p, x, t, wall))
                # stay at the wall until motion can resume inward
                while t < t_end:
                    g = applied_force(p, x, t)
                    if _turns(g, p.f) and (g > 0) != (wall > 0):
                        sign = -wall
                        break  # resume inward
                    t_pe = _pressed_end_time(p, wall, t) if _turns(g, p.f) else t
                    if t_pe <= t + 1e-14 * max(1.0, abs(t)):
                        # |force| <= f, or at the band edge: friction rest
                        sign = stick(_stick_event(p, x, t, g, wall))
                        if sign != wall:
                            break  # released inward (or at rest to t_end)
                        # released into the wall: pressed until |force| = f
                        t_pe = _pressed_end_time(p, wall, t)
                    # pressed against the wall by the force
                    counts["pressed"] += 1
                    note(None)
                    rest(t, min(t_pe, t_end), constrained=True)
                    t = min(t_pe, t_end)

        if t >= t_end:
            break

        # --- flight arc -----------------------------------------------------
        if sign == 0:
            raise ContractViolation("internal: flight requested without a sign")
        arc = _arc(p, x, v, t, sign, jac)
        kind, t_ev, x, v = next_event(p, arc, t_end)
        if record:
            segments.append(FlightSegment(arc, t, t_ev))
        if jac:
            factors.append(("flight", arc.transport(t, t_ev),
                            arc.friction_column(t, t_ev)))
        t = t_ev

        if kind == HORIZON:
            break
        if kind == IMPACT:
            reflect(sign)
            v, sign = -v, -sign
        # a velocity zero (v = 0), inside or at a wall (IRREGULAR), is
        # resolved above

    return RunResult(x, v, t_end, tuple(sig), counts, det, undefined,
                     factors, events, segments)


# Events a cell may take inside the lockstep loop before it is handed to
# ``_advance``.  Each pass of the loop moves every live cell by one event,
# so a cell in a long cascade (tiny bounces against a wall, ~1e5 per
# period) would keep the loop running for itself alone; ordinary cells take
# a few events per period.
LOCKSTEP_EVENTS = 64


@dataclass
class BatchRun:
    """Raw output of ``_advance_batch``: per-cell final state, structural
    det and event counts.  Entries of ``fallback`` cells are not set."""

    x: np.ndarray
    v: np.ndarray
    det: np.ndarray
    impacts: np.ndarray
    turnings: np.ndarray
    sticks: np.ndarray
    fallback: np.ndarray


def _advance_batch(p: Params, xs: np.ndarray, vs: np.ndarray, t: float,
                   t_end: float, event_cap: int) -> BatchRun:
    """``_advance`` of many cells from time t to t_end, in lockstep: every
    pass resolves the pending velocity zeros with the force at each cell
    (amplitude ``spatial_envelope``) and then moves each live cell to its
    next event on a ``UniformFlightArcs`` or ``WallVanishingArcs`` bundle.

    Cells the lockstep rules do not cover are flagged ``fallback``, to be
    run by ``_advance`` from their initial state: a start on or outside a
    wall, grazing contacts (and so wall-pressed rest), sticking without
    friction (derivative undefined) and more than LOCKSTEP_EVENTS events
    (``_advance`` then applies ``event_cap``).
    """
    n = len(xs)
    x = np.array(xs, dtype=float)
    v = np.array(vs, dtype=float)
    tt = np.full(n, float(t))
    sign = np.where(v > 0, 1.0, -1.0)
    det = np.ones(n)
    n_ev = np.zeros(n, dtype=np.int64)
    impacts = np.zeros(n, dtype=np.int64)
    turnings = np.zeros(n, dtype=np.int64)
    sticks = np.zeros(n, dtype=np.int64)
    fallback = ~((p.l < x) & (x < p.r))
    live = np.flatnonzero(~fallback)
    wv = p.force_law is ForceLaw.WALL_VANISHING
    limit = min(event_cap, LOCKSTEP_EVENTS)
    while live.size:
        # --- interior velocity zeros: turning point or stick -----------
        z = live[v[live] == 0.0]
        if z.size:
            amp = (p.F * np.cos(0.5 * math.pi * x[z]) if wv
                   else np.full(z.size, p.F))
            g = amp * np.cos(p.omega * tt[z])   # applied_force
            turn = _turns(g, p.f)
            zt, gt = z[turn], g[turn]
            sign[zt] = np.where(gt > 0, 1.0, -1.0)
            det[zt] *= _turning_ratio(gt, p.f)
            turnings[zt] += 1
            n_ev[zt] += 1
            zs = z[~turn]
            sticks[zs] += 1
            n_ev[zs] += 1
            det[zs] = 0.0
            if p.f == 0.0:
                fallback[zs] = True
            else:   # stick_release_time per cell; math.acos, as there
                amp = amp[~turn]
                rest = zs[amp <= p.f]        # no release: at rest to the end
                tt[rest], v[rest] = t_end, 0.0
                zs, amp = zs[amp > p.f], amp[amp > p.f]
                th0 = np.array([math.acos(min(1.0, p.f / a)) for a in amp.tolist()])
                left, right = _band_exits(th0, _phase(p, tt[zs]))
                rightward = right < left
                t_r = tt[zs] + np.where(rightward, right, left) / p.omega
                released = t_r < t_end
                n_ev[zs[released]] += 1
                sign[zs] = np.where(rightward, 1.0, -1.0)
                tt[zs] = np.where(released, t_r, t_end)
                v[zs[~released]] = 0.0
            fallback[z[n_ev[z] > limit]] = True
            live = live[~fallback[live] & (tt[live] < t_end)]
            if not live.size:
                break
        # --- flight to the next event -------------------------------------
        bundle = WallVanishingArcs if wv else UniformFlightArcs
        arcs = bundle(p, x[live], v[live], tt[live], sign[live])
        kind, te, xe, ve = next_events(p, arcs, t_end)
        fallback[live[kind == IRREGULAR]] = True
        moved = live[kind != IRREGULAR]
        ok = kind != IRREGULAR
        kind, te, xe, ve = kind[ok], te[ok], xe[ok], ve[ok]
        x[moved], v[moved], tt[moved] = xe, ve, te
        imp = moved[kind == IMPACT]
        v[imp] = -v[imp]
        sign[imp] = -sign[imp]
        impacts[imp] += 1
        n_ev[imp] += 1
        fallback[imp[n_ev[imp] > limit]] = True
        live = moved[(kind != HORIZON) & (te < t_end) & ~fallback[moved]]
    return BatchRun(x, v, det, impacts, turnings, sticks, fallback)


def simulate(p: Params, initial: PhaseState, duration: float, *,
             event_cap: int = 1_000_000) -> Trajectory:
    """Full event-driven trajectory over [initial.t, initial.t + duration]."""
    res = _advance(p, initial.x, initial.v, initial.t, initial.t + duration,
                   record=True, jac=False, event_cap=event_cap)
    return Trajectory(params=p, initial=initial, segments=res.segments,
                      events=res.events,
                      final=PhaseState(res.x, res.v, res.t))
