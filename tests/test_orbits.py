import hashlib
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vibroimpact import (ContractViolation, Nonexistence, OrbitError,
                         OrbitType, PhaseState, continue_in_friction,
                         find_periodic, lift_conjugacy_check, make_params,
                         period_map, period_map_jacobian, simulate,
                         symmetric_orbit, symmetric_orbit_formula,
                         symmetric_orbit_state)
from vibroimpact import orbits
from vibroimpact.orbits import CORRECTOR_ITERATIONS
from vibroimpact.simulator import FlightSegment
from tests.conftest import random_valid_symmetric_params

TWO_OVER_PI = 2.0 / math.pi


# ---------------------------------------------------------------------------
# closed-form symmetric orbits
# ---------------------------------------------------------------------------

def test_frictionless_coefficients_wide_geometry():
    """At f = 0 the printed coefficients collapse to simple closed forms:
    psi_1 = pi, psi_2 = 0, C = (+-4F + 2 R w^2)/(2 pi w), D = l -+ F/w^2."""
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=20.0)
    f1 = symmetric_orbit_formula(p, 1)
    f2 = symmetric_orbit_formula(p, 2)
    assert f1.psi == pytest.approx(math.pi)
    assert f2.psi == pytest.approx(0.0)
    assert f1.C == pytest.approx(44.0 / (2 * math.pi), abs=1e-12)
    assert f2.C == pytest.approx(36.0 / (2 * math.pi), abs=1e-12)
    assert f1.D == pytest.approx(-1.0, abs=1e-12)
    assert f2.D == pytest.approx(1.0, abs=1e-12)


def test_formula_anchors_are_wall_states(wide):
    """The flight anchored at phase psi departs the left wall with speed v0
    and reaches the right wall half a period later."""
    for branch in (1, 2):
        fo = symmetric_orbit_formula(wide, branch)
        dep = symmetric_orbit_state(wide, fo, fo.psi / wide.omega)
        assert dep.x == pytest.approx(wide.l, abs=1e-12)
        assert dep.v == pytest.approx(fo.v0, abs=1e-12)
        arr = symmetric_orbit_state(
            wide, fo, (fo.psi + math.pi) / wide.omega - 1e-13)
        assert arr.x == pytest.approx(wide.r, abs=1e-9)


def test_printed_coefficient_identities(wide):
    """C and D relate to the anchored arc by C = v0 + (F/w) sin psi and
    D = l + (F/w^2) cos psi, matching the printed sign conventions."""
    for branch, sgn in ((1, +1), (2, -1)):
        fo = symmetric_orbit_formula(wide, branch)
        F, w, f = wide.F, wide.omega, wide.f
        root = math.sqrt(4 * F * F - (f * math.pi) ** 2)
        C_printed = (f * math.pi ** 2 + sgn * 2 * root
                     + 2 * wide.R * w ** 2) / (2 * math.pi * w)
        D_printed = wide.l - sgn * root / (2 * w * w)
        assert fo.C == pytest.approx(C_printed, rel=1e-12)
        assert fo.D == pytest.approx(D_printed, rel=1e-12)
        assert fo.psi == pytest.approx(
            math.pi + math.asin(math.pi * f / (2 * F)) if branch == 1
            else -math.asin(math.pi * f / (2 * F)), abs=1e-12)


def test_orbit_state_antisymmetry(wide):
    fo = symmetric_orbit_formula(wide, 2)
    for t in np.linspace(0.0, wide.T, 17):
        a = symmetric_orbit_state(wide, fo, t)
        b = symmetric_orbit_state(wide, fo, t + math.pi / wide.omega)
        assert b.x == pytest.approx(-a.x + wide.r + wide.l, abs=1e-9)
        assert b.v == pytest.approx(-a.v, abs=1e-9)


def test_existence_boundary():
    p = make_params(F=1.0, f=0.65, omega=1.0, l=0.0, r=20.0)
    with pytest.raises(Nonexistence) as exc:
        symmetric_orbit_formula(p, 1)
    assert exc.value.reason == "fold passed"
    # at the fold the two branches coincide
    pf = make_params(F=1.0, f=TWO_OVER_PI, omega=1.0, l=0.0, r=20.0)
    f1 = symmetric_orbit_formula(pf, 1)
    f2 = symmetric_orbit_formula(pf, 2)
    assert f1.v0 == pytest.approx(f2.v0, rel=1e-12)
    s1 = symmetric_orbit_state(pf, f1, 0.0)
    s2 = symmetric_orbit_state(pf, f2, 0.0)
    assert s1.x == pytest.approx(s2.x, abs=1e-9)
    assert s1.v == pytest.approx(s2.v, abs=1e-9)


def test_sticking_nonexistence_small_chamber():
    # narrow chamber: the slow branch would need negative departure speed
    p = make_params(F=1.0, f=0.005, omega=1.0, l=0.0, r=0.8)
    with pytest.raises(Nonexistence) as exc:
        symmetric_orbit_formula(p, 2)
    assert exc.value.reason == "sticking"


def _wall_aware_dist(p, a, b):
    """Distance between stroboscopic states identifying the pre/post impact
    representatives at the walls (an orbit whose impact phase coincides with
    the strobe has two equivalent representatives)."""
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    if min(abs(a[0] - p.l), abs(a[0] - p.r)) < 1e-9:
        d = min(d, math.hypot(a[0] - b[0], a[1] + b[1]))
    return d


@given(F=st.floats(0.5, 2.0), ff=st.floats(0.0, 0.55), om=st.floats(0.5, 2.5),
       R=st.floats(3.0, 30.0), l=st.floats(-3.0, 3.0))
# the right-wall impact is within roundoff of the strobe: the mirrored state
# fell one ulp outside the walls, and a pre-impact state gave 3 impacts
@example(F=1.0, ff=2.22e-16, om=1.0, R=3.0, l=0.0)
@example(F=1.0, ff=2.22e-16, om=0.5, R=5.0, l=0.0)
# at the sticking margin R omega^2 = 2F the slow branch departs at
# v0 = 1.4e-16, roundoff of 0: it sticks and has no such orbit
@example(F=1.5, ff=2.22e-16, om=1.0, R=3.0, l=2.9)
@settings(max_examples=40, deadline=None)
def test_formula_states_are_fixed_points(F, ff, om, R, l):
    """Whenever the existence and non-sticking conditions hold, the
    closed-form state is a fixed point of the period map with two impacts
    and no other events.  (At f = 0 the impact phases coincide with the
    strobe and the comparison identifies the pre/post representatives.)"""
    p = make_params(F=F, f=ff * F, omega=om, l=l, r=l + R)
    for branch in (1, 2):
        try:
            fo = symmetric_orbit_formula(p, branch)
        except Nonexistence:
            continue
        st0 = symmetric_orbit_state(p, fo, 0.0)
        res = period_map(p, (st0.x, st0.v))
        assert _wall_aware_dist(p, (st0.x, st0.v), res.output) < 1e-8
        c = res.event_summary
        assert 1 <= c["impacts_left"] + c["impacts_right"] <= 2
        if ff > 1e-3:   # interior impact phases: the count is exact
            assert c["impacts_left"] + c["impacts_right"] == 2
        assert c["turnings"] == 0 and c["sticks"] == 0


@pytest.mark.parametrize("m", [1, 3, 5])
def test_monodromy_trace_closed_form(fast, wide, m):
    """The symmetric orbit's trace is (h c - 2)^2 - 2, with h = m pi / omega
    and c = 2 F cos(psi + m pi) / v0, on both branches."""
    for p in (fast, wide.replace_friction(0.01)):
        for branch in (1, 2):
            fo = symmetric_orbit_formula(p, branch, m)
            st0 = symmetric_orbit_state(p, fo, 0.0)
            h = m * math.pi / p.omega
            c = 2.0 * p.F * math.cos(fo.psi + m * math.pi) / fo.v0
            tr = period_map_jacobian(p, (st0.x, st0.v), 0.0, m).trace
            assert tr == pytest.approx((h * c - 2.0) ** 2 - 2.0, rel=1e-12)


def test_ac01_reference_pair_is_not_attainable(fast):
    """At the AC-01 parameters the saddle's trace is 3.088112, while the
    reference multipliers (0.3159, 3.1659) need 3.4818 (det 1): AC-01's
    reference pair cannot hold."""
    fo = symmetric_orbit_formula(fast, 2)
    h = math.pi / fast.omega
    tr = (h * 2.0 * fast.F * math.cos(fo.psi + math.pi) / fo.v0 - 2.0) ** 2 - 2.0
    assert tr == pytest.approx(3.088112, abs=1e-6)
    assert abs(tr - (0.3159 + 3.1659)) > 2 * 2e-3


# ---------------------------------------------------------------------------
# the non-sticking margin
# ---------------------------------------------------------------------------

def nonsticking_margin(p) -> float:
    """Closed-form non-sticking margin of the symmetric m = 1 family:

        sqrt(4F^2 - pi^2 f^2) - pi sqrt(F^2 - f^2)
        + pi f (asin(pi f / 2F) - asin(f / F)) + R omega^2

    positive iff the slower minimum of the flight velocity is positive
    (the margin equals pi omega times that minimum)."""
    if not (p.f < p.F):
        raise ContractViolation("margin requires f < F")
    if p.f / p.F > 2.0 / math.pi:
        raise ContractViolation("margin requires f/F <= 2/pi")
    F, f = p.F, p.f
    return (math.sqrt(4.0 * F * F - math.pi ** 2 * f * f)
            - math.pi * math.sqrt(F * F - f * f)
            + math.pi * f * (math.asin(math.pi * f / (2.0 * F))
                             - math.asin(f / F))
            + p.R * p.omega ** 2)


def test_margin_frictionless_value():
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=20.0)
    assert nonsticking_margin(p) == pytest.approx(2 - math.pi + 20, abs=1e-12)


def test_margin_at_fold_reduces_to_geometry_condition():
    """At f = 2F/pi the sign of the margin equals the sign of
    R w^2 / F - (sqrt(pi^2 - 4) - 2 arccos(2/pi))."""
    thresh = math.sqrt(math.pi ** 2 - 4) - 2 * math.acos(TWO_OVER_PI)
    assert thresh == pytest.approx(0.6613, abs=1e-4)
    for R, expect_positive in ((0.5, False), (0.7, True), (20.0, True)):
        p = make_params(F=1.0, f=TWO_OVER_PI, omega=1.0, l=0.0, r=R)
        assert (nonsticking_margin(p) > 0) == expect_positive
        assert nonsticking_margin(p) == pytest.approx(R - thresh, abs=1e-12)


def test_margin_equals_scaled_minimum_flight_velocity(rng):
    """The printed margin is pi*omega times the minimum velocity over the
    slow branch's wall-to-wall flight (brute-force minimum on the
    simulated closed-form orbit)."""
    for p in random_valid_symmetric_params(rng, 5):
        fo = symmetric_orbit_formula(p, 1)
        margin = nonsticking_margin(p)
        assert margin == pytest.approx(math.pi * p.omega * fo.min_flight_velocity,
                                       rel=1e-9, abs=1e-9)
        # brute force: sample the simulated trajectory's velocity
        st0 = symmetric_orbit_state(p, fo, 0.0)
        tr = simulate(p, st0, p.T)
        vmin = math.inf
        for seg in tr.segments:
            if not isinstance(seg, FlightSegment):
                continue
            ts = np.linspace(seg.t0, seg.t1, 2001)
            vmin = min(vmin, float(min(abs(seg.arc.v(t)) for t in ts)))
        assert vmin == pytest.approx(fo.min_flight_velocity, abs=1e-5)


def test_margin_domain_checks(wide):
    p = make_params(F=1.0, f=1.2, omega=1.0, l=0.0, r=20.0)
    with pytest.raises(ContractViolation):
        nonsticking_margin(p)


# ---------------------------------------------------------------------------
# Newton orbit location
# ---------------------------------------------------------------------------

def test_find_periodic_refines_symmetric_orbit(fast):
    fo = symmetric_orbit_formula(fast, 2)
    st0 = symmetric_orbit_state(fast, fo, 0.0)
    guess = (st0.x + 1e-3, st0.v - 1e-3)
    orb = find_periodic(fast, guess, 1)
    assert orb.residual < 1e-10
    assert orb.fixed_state[0] == pytest.approx(st0.x, abs=1e-8)
    assert orb.fixed_state[1] == pytest.approx(st0.v, abs=1e-8)
    assert orb.orbit_type is OrbitType.SADDLE
    lam1, lam2 = orb.multipliers
    assert abs(lam1 * lam2 - 1.0) < 1e-6


def test_find_periodic_center_and_saddle_pair(fast):
    center = find_periodic(fast, symmetric_orbit(fast, 1).fixed_state, 1)
    saddle = find_periodic(fast, symmetric_orbit(fast, 2).fixed_state, 1)
    assert center.orbit_type is OrbitType.CENTER
    assert abs(center.trace) < 2
    assert saddle.orbit_type is OrbitType.SADDLE
    assert abs(saddle.trace) > 2


def test_find_periodic_focus(narrow_lowfric):
    orb = find_periodic(narrow_lowfric, (0.51, 0.0), 1, event_cap=5000)
    assert orb.orbit_type is OrbitType.ATTRACTING
    lam1, lam2 = orb.multipliers
    assert abs(lam1) < 1.0 and abs(lam2) < 1.0
    assert lam1.imag != 0.0    # focus, not node


def test_find_periodic_five_cycle(narrow):
    """The period-5 center chain around the central fixed point."""
    orb = find_periodic(narrow, (0.532, 0.056), 5, event_cap=5000)
    assert orb.residual < 1e-10
    pts = [orb.fixed_state]
    z = orb.fixed_state
    for _ in range(4):
        z = period_map(narrow, z).output
        pts.append(z)
    dmin = min(math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
               for i in range(5) for j in range(i + 1, 5))
    assert dmin > 1e-3          # five genuinely distinct states
    z5 = period_map(narrow, pts[4]).output
    assert math.hypot(z5[0] - pts[0][0], z5[1] - pts[0][1]) < 1e-8
    assert abs(orb.trace) <= 2.0 + 1e-6   # center chain


def test_find_periodic_fails_fast_without_orbit(monkeypatch):
    """AC-08's probe: no period-3 orbit at f = 0.3.  Only steps that lower
    the residual are taken, so the iterate never walks off to fast states
    (|v| ~ 1e4, thousands of impacts per map) before the solve fails."""
    import vibroimpact.orbits as orbits
    probed = []

    def recording_map(p, z, *args, **kwargs):
        probed.append(z)
        return period_map_jacobian(p, z, *args, **kwargs)

    monkeypatch.setattr(orbits, "_pmj", recording_map)
    fast3 = make_params(F=1.0, f=0.2, omega=2 * math.pi, l=-1.0, r=1.0)
    guess = symmetric_orbit(fast3, 1, m=3).fixed_state
    with pytest.raises(OrbitError):
        find_periodic(fast3.replace_friction(0.3), guess, 3, event_cap=20_000)
    assert max(abs(v) for _, v in probed) < 10.0


def test_find_periodic_failure():
    p = make_params(F=1.0, f=0.8, omega=1.0, l=-20.0, r=20.0)
    with pytest.raises(OrbitError):
        find_periodic(p, (0.0, 1.0), 1, event_cap=5000)   # sticking region


# ---------------------------------------------------------------------------
# continuation in friction
# ---------------------------------------------------------------------------

def test_fold_location_wide_geometry():
    p = make_params(F=1.0, f=0.01, omega=1.0, l=0.0, r=20.0)
    res = continue_in_friction(p, symmetric_orbit(p, 1), f_min=1e-4, ds=2e-3)
    assert res.fold is not None
    assert res.fold.f_crit == pytest.approx(TWO_OVER_PI, abs=1e-4)
    fs = [pt.f for pt in res.points]
    imax = int(np.argmax(fs))
    types_before = {pt.orbit_type for pt in res.points[:imax - 2]}
    types_after = {pt.orbit_type for pt in res.points[imax + 3:]}
    assert types_before == {OrbitType.CENTER}
    assert types_after == {OrbitType.SADDLE}


def test_continuation_endpoint_matches_closed_form():
    p = make_params(F=1.0, f=0.01, omega=1.0, l=0.0, r=20.0)
    res = continue_in_friction(p, symmetric_orbit(p, 1), f_min=1e-6, ds=2e-3)
    # the first leg descends to f_min before... the branch runs up through
    # the fold; compare each sampled f on the center leg with the formula
    fs = [pt.f for pt in res.points]
    imax = int(np.argmax(fs))
    for pt in res.points[:imax - 2:25]:
        pp = p.replace_friction(pt.f)
        st0 = symmetric_orbit_state(pp, symmetric_orbit_formula(pp, 1), 0.0)
        assert pt.state[0] == pytest.approx(st0.x, abs=1e-8)
        assert pt.state[1] == pytest.approx(st0.v, abs=1e-8)


def test_k3_fold_bracketed():
    p = make_params(F=1.0, f=0.2, omega=2 * math.pi, l=-1.0, r=1.0)
    orb = symmetric_orbit(p, 1, m=3)
    res = continue_in_friction(p, orb, f_min=0.19, f_max=0.35, k=3, ds=1e-3)
    assert res.fold is not None
    assert 0.2 < res.fold.f_crit < 0.3
    assert res.fold.f_crit == pytest.approx(2.0 / (3.0 * math.pi), abs=1e-4)
    assert (len(res.points), res.termination, res.fold.f_crit) == (
        30, "fold refined", 0.21220659078916299)
    assert _csv_sha(res) == ("6638105ca61546ebd5e349fef5b9eefc"
                             "acab080fca019500bf511a356d501da5")


def _csv_sha(res) -> str:
    return hashlib.sha256(res.csv().encode()).hexdigest()


@pytest.fixture(scope="module")
def sticking_branch():
    """The descending branch 2 of a chamber too small for the fast branch
    at low friction: it ends where the orbit begins to stick."""
    p = make_params(F=1.0, f=0.55, omega=1.0, l=0.0, r=1.6)
    res = continue_in_friction(p, symmetric_orbit(p, 2), f_min=0.0,
                               f_max=0.6, direction=-1, ds=1e-3)
    return p, res


def _speed_test_branch():
    """A descending branch 1 whose last accepted orbit is impacts-only with
    minimum flight speed 3.6e-5: the 1e-3 speed test ends it."""
    p = make_params(F=1.0, f=0.4, omega=1.0, l=0.0, r=1.1)
    return p, continue_in_friction(p, symmetric_orbit(p, 1), f_min=0.0,
                                   direction=-1)


def _simulated_min_speed(p, pt):
    """The minimum flight speed of a branch point's orbit, run again by
    ``simulate`` (0 if it rests)."""
    traj = simulate(p.replace_friction(pt.f), PhaseState(*pt.state, 0.0), p.T)
    if not all(isinstance(seg, FlightSegment) for seg in traj.segments):
        return 0.0
    return min(seg.arc.min_speed(seg.t0, seg.t1) for seg in traj.segments)


def test_branch_terminates_at_sticking_boundary(sticking_branch):
    """For a chamber too small for the fast branch at low friction, the
    descending branch dies where the orbit begins to stick
    (departure speed -> 0 at f0 = sqrt(4 F^2 - R^2 w^4) / pi...)."""
    p, res = sticking_branch
    assert res.termination == "sticking boundary"
    assert len(res.points) == 153 and res.fold is None
    assert _csv_sha(res) == ("c6dcdee44f5536077d96158279267615"
                             "d27f725b5fcbe4ba9008a21046dcb81e")
    f_end = res.points[-1].f
    f_boundary = math.sqrt(4.0 - p.R ** 2) / math.pi
    # the branch stalls approaching the boundary from above
    assert f_boundary < f_end < f_boundary + 0.06
    pp = p.replace_friction(f_end)
    assert symmetric_orbit_formula(pp, 2).min_flight_velocity < 0.05


def test_wide_branch_corrector_converges_fast():
    """With the closed-form friction column the corrector is Newton on a
    smooth system: along the AC-02 branch no call runs out of iterations."""
    p = make_params(F=1.0, f=0.01, omega=1.0, l=0.0, r=20.0)
    res = continue_in_friction(p, symmetric_orbit(p, 1), f_min=1e-4, ds=2e-3)
    assert len(res.iterations) == len(res.points) - 1
    assert res.cap_hits == 0
    assert max(res.iterations) < CORRECTOR_ITERATIONS
    assert statistics.median(res.iterations) <= 3
    assert (len(res.points), res.termination, res.fold.f_crit) == (
        1016, "fold refined", 0.636619772365869)
    assert _csv_sha(res) == ("3d22229a1e6539eacc6566d0dbba6efd"
                             "8d7add2fd558bd379f213520437acce7")


@pytest.mark.parametrize("branch", ["sticking", "speed test"])
def test_map_min_speed_equals_simulated(branch, sticking_branch):
    """The speed that the sticking test reads off each converged map's
    segments is, bit for bit, the minimum over a fresh ``simulate`` run of
    the same orbit."""
    p, res = sticking_branch if branch == "sticking" else _speed_test_branch()
    for pt in res.points:
        mp = period_map_jacobian(p.replace_friction(pt.f), pt.state)
        assert mp.signature == pt.signature and set(pt.signature) == {"R", "L"}
        assert orbits._min_speed(mp) == _simulated_min_speed(p, pt)


def test_speed_test_reads_the_map_not_simulate(monkeypatch):
    """Continuation runs no orbit again: with ``simulate`` gone it gives
    the same branch, and its 1e-3 speed test still ends it."""
    def refuse(*args, **kwargs):
        raise AssertionError("continuation ran simulate")
    monkeypatch.setattr(orbits, "simulate", refuse)
    p, res = _speed_test_branch()
    last = res.points[-1]
    assert res.termination == "sticking boundary"
    assert len(res.points) == 37 and set(last.signature) == {"R", "L"}
    mp = period_map_jacobian(p.replace_friction(last.f), last.state)
    assert orbits._min_speed(mp) < 1e-3
    assert _csv_sha(res) == ("aed11aaee0b3485f1a06cf5c00aac954"
                             "80a85170c71f6c14bea8927071c4d112")


def test_continuation_refuses_wall_vanishing_law(fast, wall_vanishing):
    with pytest.raises(ContractViolation):
        continue_in_friction(wall_vanishing, symmetric_orbit(fast, 1))


def test_continuation_csv(fast):
    res = continue_in_friction(fast, symmetric_orbit(fast, 1),
                               f_min=0.04, f_max=0.08, ds=2e-3,
                               max_points=60)
    text = res.csv()
    lines = text.strip().splitlines()
    assert lines[0] == "f,x0,v0,tr,det,type"
    assert len(lines) > 5


# ---------------------------------------------------------------------------
# tent-map lift conjugacy
# ---------------------------------------------------------------------------

def test_lift_frictionless_island_point(narrow):
    rep = lift_conjugacy_check(narrow, PhaseState(0.4, 0.2, 0.0),
                               10 * narrow.T)
    assert rep.applicable
    assert rep.max_defect < 1e-8


def test_lift_on_closed_form_orbit(wide):
    fo = symmetric_orbit_formula(wide, 2)
    st0 = symmetric_orbit_state(wide, fo, 0.0)
    rep = lift_conjugacy_check(wide, st0, wide.T)
    assert rep.applicable
    assert rep.max_defect < 1e-8


def test_lift_rejects_sticking_trajectory(narrow_lowfric):
    rep = lift_conjugacy_check(
        narrow_lowfric, PhaseState(0.4, 0.0, math.pi / 2),
        5 * narrow_lowfric.T)
    assert not rep.applicable
    assert "stick" in rep.reason


def test_lift_rejects_turning_with_friction(fast):
    rep = lift_conjugacy_check(fast, PhaseState(0.0, 0.15, 0.0), 3 * fast.T)
    assert not rep.applicable


def test_lift_uniform_only(wall_vanishing):
    with pytest.raises(ContractViolation):
        lift_conjugacy_check(wall_vanishing, PhaseState(0.0, 1.0, 0.0),
                             wall_vanishing.T)
