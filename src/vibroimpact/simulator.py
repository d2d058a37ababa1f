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
eventually released inward.  Grazing episodes are logged and flag the map
derivative as undefined.
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
                    applied_force, spatial_envelope)
from .flight import (HORIZON, IMPACT, IRREGULAR, EventKind, FlightArc,
                     UniformFlightArc, UniformFlightArcs, WallVanishingArc,
                     next_event, next_events)


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
        return _signature(self.events)

    def to_json(self) -> str:
        def ev(e: ResolvedEvent) -> dict:
            return {"kind": e.kind.value, "time": e.time, "wall": e.wall,
                    "x": e.state_before.x,
                    "v_before": e.state_before.v, "v_after": e.state_after.v,
                    "force": e.force, "release_time": e.release_time,
                    "direction": e.direction}
        doc = {
            "params": {"F": self.params.F, "f": self.params.f,
                       "omega": self.params.omega, "l": self.params.l,
                       "r": self.params.r,
                       "force_law": self.params.force_law.value},
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


def _signature(events) -> tuple[str, ...]:
    code = {ResolvedKind.IMPACT: {1: "R", -1: "L"},
            ResolvedKind.TURNING: "T", ResolvedKind.STICK_START: "S",
            ResolvedKind.STICK_RELEASE: "s", ResolvedKind.GRAZING: "G"}
    out = []
    for e in events:
        c = code[e.kind]
        out.append(c[e.wall] if isinstance(c, dict) else c)
    return tuple(out)


# ---------------------------------------------------------------------------
# pointwise event resolution (public contract operations)
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


def resolve_velocity_zero(p: Params, state: PhaseState) -> ResolvedEvent:
    """Classify an interior velocity zero: turning point or stick start."""
    if state.v != 0.0:
        raise ContractViolation("resolve_velocity_zero requires v = 0")
    if not (p.l < state.x < p.r):
        raise ContractViolation("state must be strictly between the walls")
    g = applied_force(p, state.x, state.t)
    if _turns(g, p.f):
        direction = 1 if g > 0 else -1
        return ResolvedEvent(ResolvedKind.TURNING, state.t, state, state,
                             force=g, direction=direction)
    rel = stick_release_time(p, state.x, state.t)
    if rel is None:
        return ResolvedEvent(ResolvedKind.STICK_START, state.t, state, state,
                             force=g, release_time=None)
    return ResolvedEvent(ResolvedKind.STICK_START, state.t, state, state,
                         force=g, release_time=rel[0], direction=rel[1])


def resolve_impact(p: Params, state: PhaseState) -> ResolvedEvent:
    """Instantaneous elastic reflection at a wall (unit restitution)."""
    if state.x == p.r:
        wall = 1
    elif state.x == p.l:
        wall = -1
    else:
        raise ContractViolation("resolve_impact requires x at a wall")
    g = applied_force(p, state.x, state.t)
    if state.v == 0.0:
        return ResolvedEvent(ResolvedKind.GRAZING, state.t, state, state,
                             force=g, wall=wall)
    if (state.v > 0) != (wall > 0):
        raise ContractViolation("velocity points away from the wall")
    after = PhaseState(state.x, -state.v, state.t)
    return ResolvedEvent(ResolvedKind.IMPACT, state.t, state, after,
                         force=g, wall=wall, direction=-wall)


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


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

_STICK_FACTOR = np.array([[1.0, 0.0], [0.0, 0.0]])


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
    n_events: int


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

    def note(ev: ResolvedEvent, code: str):
        nonlocal n_events
        n_events += 1
        if n_events > event_cap:
            raise SimulationError(
                f"event cascade exceeded cap of {event_cap} events "
                f"(possible chatter or degenerate configuration)")
        sig.append(code)
        if record:
            events.append(ev)

    def add_stick_segment(x_s, t_a, t_b, constrained=False):
        if record and t_b > t_a:
            segments.append(StickInterval(x_s, t_a, t_b, constrained))

    def reflect(x_w, v_w, t_w, wall):
        """Record an elastic impact at a wall; v_w is the pre-impact velocity."""
        g = applied_force(p, x_w, t_w)
        counts["impacts_right" if wall > 0 else "impacts_left"] += 1
        note(ResolvedEvent(ResolvedKind.IMPACT, t_w, PhaseState(x_w, v_w, t_w),
                           PhaseState(x_w, -v_w, t_w), force=g, wall=wall,
                           direction=-wall), "R" if wall > 0 else "L")
        if jac:
            factors.append(("reflection",
                            np.array([[-1.0, 0.0], [2.0 * g / v_w, -1.0]]), 0.0))

    def stick_factor():
        nonlocal det, undefined
        det = 0.0
        if p.f == 0.0:
            undefined = True   # degenerate tangency: v and force vanish together
        if jac:
            factors.append(("stick", _STICK_FACTOR.copy(), 0.0))

    sign = 0
    if v > 0:
        sign = 1
    elif v < 0:
        sign = -1

    # an initial state resting on a wall but pointed outward is resolved by
    # an immediate reflection
    if sign != 0 and ((x == p.r and sign > 0) or (x == p.l and sign < 0)):
        reflect(x, v, t, 1 if x == p.r else -1)
        v, sign = -v, -sign

    while True:
        # --- zero-velocity states (interior or at a wall) ------------------
        while v == 0.0 and t < t_end:
            at_wall = 1 if x == p.r else (-1 if x == p.l else 0)
            g = applied_force(p, x, t)
            if at_wall != 0:
                undefined = True
                counts["grazings"] += 1
                st = PhaseState(x, 0.0, t)
                note(ResolvedEvent(ResolvedKind.GRAZING, t, st, st, force=g,
                                   wall=at_wall), "G")
                # stay at the wall until motion can resume inward
                while t < t_end:
                    g = applied_force(p, x, t)
                    if _turns(g, p.f) and (g > 0) != (at_wall > 0):
                        sign = -at_wall
                        break  # resume inward
                    t_pe = _pressed_end_time(p, at_wall, t) if _turns(g, p.f) else t
                    if t_pe > t + 1e-14 * max(1.0, abs(t)):
                        # pressed against the wall by the force
                        counts["pressed"] += 1
                        n_events += 1
                        if n_events > event_cap:
                            raise SimulationError(
                                f"event cascade exceeded cap of {event_cap}")
                        add_stick_segment(x, t, min(t_pe, t_end), constrained=True)
                        t = min(t_pe, t_end)
                        continue
                    # |force| <= f, or at the band boundary: friction sticking
                    rel = stick_release_time(p, x, t)
                    counts["sticks"] += 1
                    st = PhaseState(x, 0.0, t)
                    note(ResolvedEvent(ResolvedKind.STICK_START, t, st, st,
                                       force=g, wall=at_wall,
                                       release_time=None if rel is None else rel[0],
                                       direction=0 if rel is None else rel[1]),
                         "S")
                    if rel is None or rel[0] >= t_end:
                        add_stick_segment(x, t, t_end)
                        return RunResult(x, 0.0, t_end, tuple(sig), counts, 0.0,
                                         undefined, factors, events, segments,
                                         n_events)
                    add_stick_segment(x, t, rel[0])
                    t_r, direction = rel
                    st = PhaseState(x, 0.0, t_r)
                    note(ResolvedEvent(ResolvedKind.STICK_RELEASE, t_r, st, st,
                                       force=applied_force(p, x, t_r),
                                       wall=at_wall, direction=direction), "s")
                    det = 0.0
                    t = t_r
                    if (direction > 0) != (at_wall > 0):
                        sign = direction
                        break  # released inward: fly
                    # released toward the wall: pressed episode follows
                break
            # interior velocity zero
            if _turns(g, p.f):
                sign = 1 if g > 0 else -1
                counts["turnings"] += 1
                st = PhaseState(x, 0.0, t)
                note(ResolvedEvent(ResolvedKind.TURNING, t, st, st, force=g,
                                   direction=sign), "T")
                ratio = _turning_ratio(g, p.f)
                det *= ratio
                if jac:
                    factors.append(("turning",
                                    np.array([[1.0, 0.0], [0.0, ratio]]), 0.0))
                break
            rel = stick_release_time(p, x, t)
            counts["sticks"] += 1
            st = PhaseState(x, 0.0, t)
            note(ResolvedEvent(ResolvedKind.STICK_START, t, st, st, force=g,
                               release_time=None if rel is None else rel[0],
                               direction=0 if rel is None else rel[1]), "S")
            stick_factor()
            if rel is None or rel[0] >= t_end:
                add_stick_segment(x, t, t_end)
                return RunResult(x, 0.0, t_end, tuple(sig), counts, det,
                                 undefined, factors, events, segments, n_events)
            add_stick_segment(x, t, rel[0])
            t_r, direction = rel
            st = PhaseState(x, 0.0, t_r)
            note(ResolvedEvent(ResolvedKind.STICK_RELEASE, t_r, st, st,
                               force=applied_force(p, x, t_r),
                               direction=direction), "s")
            sign = direction
            t = t_r
            break

        if t >= t_end:
            break

        # --- flight arc -----------------------------------------------------
        if sign == 0:
            raise ContractViolation("internal: flight requested without a sign")
        if p.force_law is ForceLaw.WALL_VANISHING:
            arc: FlightArc = WallVanishingArc(p, x, v, t, sign,
                                              with_transport=jac)
        else:
            arc = UniformFlightArc(p, x, v, t, sign)
        ev = next_event(p, arc, t_end)
        if record:
            segments.append(FlightSegment(arc, t, ev.time))
        if jac:
            factors.append(("flight", arc.transport(t, ev.time),
                            arc.friction_column(t, ev.time)))

        x, v, t = ev.state.x, ev.state.v, ev.state.t

        if ev.kind is EventKind.HORIZON:
            break
        if ev.grazing:
            v = 0.0
            continue  # wall + velocity zero handled at loop top
        if ev.wall != 0:
            reflect(x, v, t, ev.wall)
            v, sign = -v, -sign
            continue
        # interior velocity zero: classified at loop top
        v = 0.0

    return RunResult(x, v, t_end, tuple(sig), counts, det, undefined,
                     factors, events, segments, n_events)


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
    """``_advance`` of many uniform-law cells from time t to t_end, in
    lockstep: every pass resolves the pending velocity zeros and then
    moves each live cell to its next event.

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
    th0 = math.acos(min(1.0, p.f / p.F)) if p.F > p.f else None
    limit = min(event_cap, LOCKSTEP_EVENTS)
    while live.size:
        # --- interior velocity zeros: turning point or stick -----------
        z = live[v[live] == 0.0]
        if z.size:
            g = p.F * np.cos(p.omega * tt[z])   # applied_force, uniform law
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
            elif th0 is None:           # no release: at rest to the end
                tt[zs], v[zs] = t_end, 0.0
            else:
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
        arcs = UniformFlightArcs(p, x[live], v[live], tt[live], sign[live])
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
