import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibroimpact import (ContractViolation, PhaseState, ResolvedKind,
                         SimulationError, StickInterval, applied_force,
                         make_params, oracle_simulate, period_map,
                         period_map_jacobian, resolve_impact,
                         resolve_velocity_zero, simulate)
import vibroimpact
from vibroimpact import portrait, simulator, strobemap
from vibroimpact.orbits import symmetric_orbit_formula, symmetric_orbit_state
from vibroimpact.simulator import (FlightSegment, reflection_factor,
                                   stick_release_time, turning_factor)
from tests.test_batch import PARAMS, WV_PARAMS


# ---------------------------------------------------------------------------
# pointwise event resolution
# ---------------------------------------------------------------------------

def test_turning_when_force_beats_friction():
    p = make_params(F=1.0, f=0.1, omega=1.0, l=-5.0, r=5.0)
    t = math.acos(-0.5)   # force = -0.5
    ev = resolve_velocity_zero(p, PhaseState(0.0, 0.0, t))
    assert ev.kind is ResolvedKind.TURNING
    assert ev.direction == -1


def test_stick_with_analytic_release():
    # at t = pi/2 the force vanishes; with f = 0.5 the release happens when
    # |cos t| climbs back to 0.5, i.e. at t = 2 pi / 3, moving left
    p = make_params(F=1.0, f=0.5, omega=1.0, l=-5.0, r=5.0)
    ev = resolve_velocity_zero(p, PhaseState(0.0, 0.0, math.pi / 2))
    assert ev.kind is ResolvedKind.STICK_START
    assert ev.release_time == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert ev.direction == -1


def test_permanent_rest_inside_wall_vanishing_band(wall_vanishing):
    ev = resolve_velocity_zero(wall_vanishing, PhaseState(0.99, 0.0, 0.0))
    assert ev.kind is ResolvedKind.STICK_START
    assert ev.release_time is None


def test_exact_force_equals_friction_is_stick():
    # closed Filippov condition: |force| = f counts as sticking
    p = make_params(F=1.0, f=1.0, omega=1.0, l=-5.0, r=5.0)
    ev = resolve_velocity_zero(p, PhaseState(0.0, 0.0, 0.0))
    assert ev.kind is ResolvedKind.STICK_START


def test_resolve_velocity_zero_contract():
    p = make_params(F=1.0, f=0.1, omega=1.0, l=-5.0, r=5.0)
    with pytest.raises(ContractViolation):
        resolve_velocity_zero(p, PhaseState(0.0, 0.5, 0.0))
    with pytest.raises(ContractViolation):
        resolve_velocity_zero(p, PhaseState(5.0, 0.0, 0.0))


def test_resolve_impact_flips_velocity():
    p = make_params(F=1.0, f=0.1, omega=1.0, l=0.0, r=1.0)
    ev = resolve_impact(p, PhaseState(1.0, 2.0, 1.0))
    assert ev.state_after == PhaseState(1.0, -2.0, 1.0)
    ev = resolve_impact(p, PhaseState(0.0, -0.5, 3.0))
    assert ev.state_after == PhaseState(0.0, 0.5, 3.0)
    with pytest.raises(ContractViolation):
        resolve_impact(p, PhaseState(1.0, -2.0, 0.0))
    with pytest.raises(ContractViolation):
        resolve_impact(p, PhaseState(0.5, 1.0, 0.0))


def test_grazing_constructed_by_bisection():
    """Shrink the leftward launch speed until the left wall is reached with
    nearly zero speed (the forcing decelerates the approach); the
    zero-speed wall contact resolves as a grazing event."""
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=0.8)

    def impact_speed(v0):
        tr = simulate(p, PhaseState(0.4, -v0, 0.0), 2.5)
        for e in tr.events:
            if e.kind is ResolvedKind.IMPACT and e.wall == -1:
                return abs(e.state_before.v)
        return -1.0   # no impact: turned before the wall

    lo, hi = 0.5, 2.0
    assert impact_speed(hi) > 0 and impact_speed(lo) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        (lo, hi) = (lo, mid) if impact_speed(mid) > 0 else (mid, hi)
    v_graze = hi
    assert 0 <= impact_speed(v_graze) < 1e-4
    # exactly at the wall with v = 0, the resolver reports grazing
    ev = resolve_impact(p, PhaseState(0.8, 0.0, 1.0))
    assert ev.kind is ResolvedKind.GRAZING


# ---------------------------------------------------------------------------
# full trajectories
# ---------------------------------------------------------------------------

def test_frictionless_run_matches_oracle(narrow):
    ic = PhaseState(0.4, 0.0, 0.0)
    tr = simulate(narrow, ic, 10 * narrow.T)
    orc = oracle_simulate(narrow, ic, 10 * narrow.T, narrow.T / 20_000)
    ts = orc.ts[::59]
    imp = [e.time for e in tr.events if e.kind is ResolvedKind.IMPACT]
    keep = np.ones(len(ts), bool)
    for te in imp:
        keep &= np.abs(ts - te) > 1e-6
    sim = tr.sample(ts[keep])
    ox = np.interp(ts[keep], orc.ts, orc.xs)
    assert np.max(np.abs(sim[:, 1] - ox)) < 1e-6
    assert tr.event_signature() == orc.signature()


def test_globally_sticking_comes_to_rest():
    p = make_params(F=1.0, f=1.5, omega=1.0, l=0.0, r=1.0)
    tr = simulate(p, PhaseState(0.5, 0.0, 0.0), 10 * p.T)
    assert tr.final.v == 0.0
    assert tr.final.x == 0.5
    assert len(tr.events) == 1       # a single stick-start, rest forever
    assert tr.events[0].kind is ResolvedKind.STICK_START
    assert tr.events[0].release_time is None
    # with some initial speed: finitely many events, then permanent rest
    tr = simulate(p, PhaseState(0.5, 2.0, 0.0), 10 * p.T)
    assert tr.final.v == 0.0
    assert tr.events[-1].kind is ResolvedKind.STICK_START
    assert tr.events[-1].release_time is None


def test_symmetric_orbit_round_trip(wide):
    """The closed-form two-impact orbit returns to its start after one
    period with exactly two impacts and no other events."""
    fo = symmetric_orbit_formula(wide, 2)
    st0 = symmetric_orbit_state(wide, fo, 0.0)
    tr = simulate(wide, st0, wide.T)
    assert tr.event_signature() == ("R", "L")
    assert tr.final.x == pytest.approx(st0.x, abs=1e-10)
    assert tr.final.v == pytest.approx(st0.v, abs=1e-10)


def test_impacts_conserve_speed(fast, rng):
    for _ in range(10):
        ic = PhaseState(rng.uniform(-0.9, 0.9), rng.uniform(1.0, 5.0), 0.0)
        tr = simulate(fast, ic, 3 * fast.T)
        for e in tr.events:
            if e.kind is ResolvedKind.IMPACT:
                assert abs(e.state_after.v) == abs(e.state_before.v)


def test_trajectory_stays_between_walls(fast, rng):
    for _ in range(5):
        ic = PhaseState(rng.uniform(-0.9, 0.9), rng.uniform(-4.0, 4.0), 0.0)
        tr = simulate(fast, ic, 5 * fast.T)
        ts = np.linspace(ic.t, tr.final.t, 4000)
        xs = tr.sample(ts)[:, 1]
        assert xs.min() >= fast.l - 1e-10
        assert xs.max() <= fast.r + 1e-10


def _scanned_state(tr, t):
    """(t, x, v) from the first segment, in order, that ends at or after t
    (the last one for later t)."""
    t = min(max(t, tr.initial.t), tr.final.t)
    for seg in tr.segments:
        if t <= seg.t1 or seg is tr.segments[-1]:
            if isinstance(seg, StickInterval):
                return (t, seg.x, 0.0)
            s = seg.arc.state(min(max(t, seg.t0), seg.t1))
            return (t, s.x, s.v)


@pytest.mark.parametrize("p,start,periods", [
    (PARAMS[2], (1.5, 2.0), 6),
    (PARAMS[1], (3.0, 0.0), 3),
    (WV_PARAMS[0], (0.3, 2.0), 3),
    (WV_PARAMS[0], (0.9, 0.0), 3),
], ids=["sticks and grazing", "turnings and sticks", "wall-vanishing impacts",
        "wall-vanishing rest band"])
def test_sample_equals_a_linear_scan(p, start, periods):
    """``sample`` bisects the segment ends and gives the scan's states bit
    for bit, at every segment's start and end and in between."""
    tr = simulate(p, PhaseState(*start, 0.1), periods * p.T)
    ends = [seg.t1 for seg in tr.segments]
    assert ends == sorted(ends)
    ts = np.concatenate([[seg.t0 for seg in tr.segments], ends,
                         np.linspace(tr.initial.t, tr.final.t, 501)])
    want = np.array([_scanned_state(tr, t) for t in ts.tolist()])
    np.testing.assert_array_equal(tr.sample(ts), want)


def test_energy_balance_on_flight_arcs(fast, rng):
    """Over an event-free arc, the kinetic-energy change equals the work of
    the applied force minus friction times the arc length (Simpson
    quadrature on the closed-form arc)."""
    for _ in range(6):
        ic = PhaseState(rng.uniform(-0.5, 0.5), rng.uniform(1.5, 4.0), 0.0)
        tr = simulate(fast, ic, 2 * fast.T)
        seg = next(s for s in tr.segments if isinstance(s, FlightSegment))
        a, b = seg.t0, seg.t1
        ts = np.linspace(a, b, 4001)
        vs = np.array([seg.arc.v(t) for t in ts])
        xs = np.array([seg.arc.x(t) for t in ts])
        force = np.array([applied_force(fast, x, t) for x, t in zip(xs, ts)])
        from scipy.integrate import simpson
        work = simpson(force * vs, x=ts)
        arclen = abs(xs[-1] - xs[0])
        dke = 0.5 * (vs[-1] ** 2 - vs[0] ** 2)
        assert dke == pytest.approx(work - fast.f * arclen,
                                    rel=1e-9, abs=1e-11)


def test_backward_nonuniqueness_through_stick():
    """Two distinct states whose trajectories stick at the same position
    map to exactly the same state one period later (the stick interval
    erases the velocity history)."""
    p = make_params(F=1.0, f=0.8, omega=1.0, l=-20.0, r=20.0)

    def stick_x(ic):
        tr = simulate(p, ic, p.T)
        for e in tr.events:
            if e.kind is ResolvedKind.STICK_START:
                return e.state_before.x, tr.final
        return None, tr.final

    a = PhaseState(0.0, 1.0, 0.0)
    xa, fin_a = stick_x(a)
    assert xa is not None
    # adjust the start position of a faster copy until it sticks at the
    # same spot (secant iteration on the stick position)
    v2 = 1.05
    x2 = -0.05
    for _ in range(60):
        xb, _ = stick_x(PhaseState(x2, v2, 0.0))
        if xb is None:
            x2 -= 0.01
            continue
        err = xb - xa
        if abs(err) < 1e-13:
            break
        x2 -= err
    b = PhaseState(x2, v2, 0.0)
    xb, fin_b = stick_x(b)
    assert abs(xb - xa) < 1e-12
    assert math.hypot(b.x - a.x, b.v - a.v) > 1e-3   # genuinely distinct
    assert fin_b.x == pytest.approx(fin_a.x, abs=1e-11)
    assert fin_b.v == pytest.approx(fin_a.v, abs=1e-11)


def test_event_cap():
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=0.8)
    with pytest.raises(SimulationError):
        simulate(p, PhaseState(0.4, 2.0, 0.0), 200 * p.T, event_cap=10)


def test_one_event_cap_default():
    """Every public ``event_cap`` defaults to EVENT_CAP, and the grid and
    long-run functions of ``portrait`` take none."""
    funcs = [getattr(vibroimpact, name) for name in vibroimpact.__all__]
    funcs.append(strobemap.period_map_batch)
    capped = set()
    for fn in funcs:
        if not callable(fn) or isinstance(fn, type) \
                and issubclass(fn, Exception):   # no signature to read
            continue
        param = inspect.signature(fn).parameters.get("event_cap")
        if param is not None:
            assert param.default == simulator.EVENT_CAP, fn.__name__
            capped.add(fn.__name__)
    assert capped == {"simulate", "period_map", "period_map_jacobian",
                      "period_map_batch", "find_periodic"}
    for name, fn in inspect.getmembers(portrait, inspect.isfunction):
        if fn.__module__ == portrait.__name__:
            assert "event_cap" not in inspect.signature(fn).parameters, name


def test_initial_velocity_zero_classified():
    p = make_params(F=1.0, f=0.5, omega=1.0, l=-5.0, r=5.0)
    tr = simulate(p, PhaseState(0.0, 0.0, math.pi / 2), p.T)
    kinds = [e.kind for e in tr.events]
    assert kinds[0] is ResolvedKind.STICK_START
    assert ResolvedKind.STICK_RELEASE in kinds


def test_wall_vanishing_rest_and_release(wall_vanishing):
    from vibroimpact import sticking_band
    band = sticking_band(wall_vanishing)
    # inside the band: at rest forever
    tr = simulate(wall_vanishing, PhaseState(band.eta + 1e-3, 0.0, 0.0),
                  20 * wall_vanishing.T)
    assert tr.final.v == 0.0 and tr.final.x == band.eta + 1e-3
    # just outside: motion begins within one period
    tr = simulate(wall_vanishing, PhaseState(band.eta - 1e-3, 0.0, 0.0),
                  2 * wall_vanishing.T)
    rel = [e for e in tr.events if e.kind is ResolvedKind.STICK_RELEASE]
    assert rel and rel[0].time < wall_vanishing.T


def test_grazing_at_wall_continues_inward():
    p = make_params(F=1.0, f=0.1, omega=1.0, l=0.0, r=0.8)
    # placed on the right wall at rest while the force presses outward
    tr = simulate(p, PhaseState(0.8, 0.0, 0.0), 2 * p.T)
    kinds = [e.kind for e in tr.events]
    assert kinds[0] is ResolvedKind.GRAZING
    assert any(isinstance(s, StickInterval) and s.constrained
               for s in tr.segments)
    assert tr.final.x < 0.8 or tr.final.v != 0.0   # eventually moves inward


def test_stick_release_time_is_band_exit(fast):
    t_rel = stick_release_time(fast, 0.0, 0.0)
    assert t_rel is not None
    t, direction = t_rel
    # at the release instant the force magnitude equals f and grows
    assert abs(abs(applied_force(fast, 0.0, t)) - fast.f) < 1e-12
    assert abs(applied_force(fast, 0.0, t + 1e-6)) > fast.f


def test_trajectory_exports(tmp_path, fast):
    tr = simulate(fast, PhaseState(0.0, 2.0, 0.0), 2 * fast.T)
    doc = json.loads(tr.to_json())
    assert doc["params"]["F"] == 1.0
    assert len(doc["events"]) == len(tr.events)
    csv_text = tr.samples_csv(fast.T / 50)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,x,v"
    assert len(lines) > 90
    t, x, v = (float(c) for c in lines[1].split(","))
    assert (t, x, v) == (0.0, 0.0, 2.0)


# ---------------------------------------------------------------------------
# wall contact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("wall", [1, -1])
def test_release_into_wall_starts_pressed_episode(f, wall):
    """At rest on a wall with the force inside the friction band, the band
    exit toward the wall comes first: the release presses the particle
    against the wall until |force| drops back to f, after which it sticks
    and is released inward.  At the band exit |force| may round to just
    below f: the release must not restart a friction rest there, which
    would release it again at the same instant, without end."""
    p = make_params(F=1.0, f=f, omega=1.0, l=0.0, r=1.0)
    x = p.r if wall > 0 else p.l
    t0 = 1.5 * math.pi if wall > 0 else 0.5 * math.pi   # force = 0
    tr = simulate(p, PhaseState(x, 0.0, t0), p.T, event_cap=100)
    assert tr.event_signature()[:5] == ("G", "S", "s", "S", "s")
    release, restick, inward = tr.events[2], tr.events[3], tr.events[4]
    assert release.direction == wall
    assert inward.direction == -wall
    pressed = [s for s in tr.segments
               if isinstance(s, StickInterval) and s.constrained]
    assert len(pressed) == 1
    seg = pressed[0]
    assert seg.t0 == release.time and seg.t1 == restick.time
    # the force presses into the wall throughout, and has dropped to f
    # at the end
    mid = 0.5 * (seg.t0 + seg.t1)
    assert wall * applied_force(p, x, mid) > f
    assert abs(applied_force(p, x, seg.t1)) == pytest.approx(f, abs=1e-12)
    res = period_map(p, (x, 0.0), t0)
    assert res.event_summary["pressed"] == 1
    assert res.det == 0.0 and res.undefined


def test_release_into_wall_then_flight_to_other_wall():
    p = make_params(F=1.0, f=0.3, omega=1.0, l=0.0, r=1.0)
    tr = simulate(p, PhaseState(1.0, 0.0, 4.6), p.T, event_cap=100)
    assert "".join(tr.event_signature()) == "GSsSsL"
    assert period_map(p, (1.0, 0.0), 4.6).event_summary["pressed"] == 1


# (x0, t0, f) at rest on a wall of [0, 1], F = omega = 1, over two
# periods: signature, wall-pressed episodes and image.
WALL_CASES = [
    (1.0, 0.0, 0.3, "GSsLRTRTSsLRT", 1,
     (0.8636695826849574, 0.13639148067184514)),
    (1.0, 2.0, 0.3, "GLRTRTSsLRTRTSs", 0,
     (0.9462811386797969, -0.00728846883435208)),
    (0.0, 0.5, 0.3, "GTLTLSsRLTLTSs", 0,
     (0.6993177165388968, 0.9035336381872988)),
    (1.0, 1.3, 0.3, "GSsLRTRTSsLRTRT", 0,
     (0.9323775755618238, 0.06857609027868819)),
    (1.0, 1.3, 0.0, "GSsLRTRLTLRT", 1,
     (0.17206016131057067, 0.2246338007734936)),
]


@pytest.mark.parametrize("x0,t0,f,sig,pressed,image", WALL_CASES)
@pytest.mark.parametrize("jac", [False, True])
def test_wall_contact_branches(x0, t0, f, sig, pressed, image, jac):
    """Every branch of the wall-contact rules: resuming inward, wall-pressed
    rest, friction rest at the wall and its release, with and without the
    Jacobian.  Grazing leaves the derivative undefined."""
    p = make_params(F=1.0, f=f, omega=1.0, l=0.0, r=1.0)
    res = (period_map_jacobian if jac else period_map)(p, (x0, 0.0), t0, k=2)
    assert "".join(res.signature) == sig
    assert res.event_summary["pressed"] == pressed
    assert res.det == 0.0 and res.undefined
    assert res.output == pytest.approx(image, abs=1e-12)


# ---------------------------------------------------------------------------
# the public resolvers are the engine's rules
# ---------------------------------------------------------------------------

def _resolved_in_engine(params, data):
    p = data.draw(st.sampled_from(params))
    x = data.draw(st.one_of(st.floats(p.l, p.r), st.sampled_from([p.l, p.r])))
    v = data.draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    t0 = data.draw(st.floats(0.0, p.T))
    tr = simulate(p, PhaseState(x, v, t0), p.T)
    res = period_map_jacobian(p, (x, v), t0)
    for ev in tr.events:
        if ev.kind in (ResolvedKind.TURNING, ResolvedKind.STICK_START) \
                and ev.wall == 0:
            assert resolve_velocity_zero(p, ev.state_before) == ev
        elif ev.kind in (ResolvedKind.IMPACT, ResolvedKind.GRAZING):
            assert resolve_impact(p, ev.state_before) == ev
    if res.factors is None:
        return
    factors = [m for m in res.factors if m.kind != "flight"]
    events = [e for e in tr.events if e.kind is not ResolvedKind.STICK_RELEASE]
    assert len(factors) == len(events)
    for m, ev in zip(factors, events):
        if ev.kind is ResolvedKind.IMPACT:
            assert m.kind == "reflection"
            want = reflection_factor(ev.force, ev.state_before.v)
        elif ev.kind is ResolvedKind.TURNING:
            assert m.kind == "turning"
            want = turning_factor(ev.force, p.f)
        else:
            assert m.kind == "stick"
            want = np.diag([1.0, 0.0])
        np.testing.assert_array_equal(m.matrix, want)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_resolvers_agree_with_engine_uniform(data):
    _resolved_in_engine(PARAMS, data)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_resolvers_agree_with_engine_wall_vanishing(data):
    _resolved_in_engine(WV_PARAMS, data)
