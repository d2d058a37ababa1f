import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vibroimpact import (ContractViolation, MapClass, PhaseState,
                         finite_difference_jacobian, make_params, period_map,
                         period_map_jacobian, simulate)
from vibroimpact.simulator import (EVENT_CAP, _advance, reflection_factor,
                                   turning_factor)
from vibroimpact.strobemap import period_map_batch
from vibroimpact.orbits import symmetric_orbit
from tests.conftest import random_valid_symmetric_params
from tests.test_batch import FAST, PARAMS, WV_PARAMS


def test_reflection_factor_entries():
    m = reflection_factor(1.0, 1.0)   # force F cos(0) = 1, pre-impact v = 1
    assert np.allclose(m, [[-1.0, 0.0], [2.0, -1.0]])
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-15)


def test_turning_factor_entries():
    m = turning_factor(0.5, 0.1)
    assert np.allclose(m, np.diag([1.0, (0.5 - 0.1) / (0.5 + 0.1)]))
    assert m[1, 1] == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("law", ["uniform", "wall_vanishing"])
@pytest.mark.parametrize("state", [(0.0, 2.0), (0.3, 0.0), (-0.7, -0.4)])
def test_jacobian_map_keeps_the_simulated_segments(law, state):
    """``period_map_jacobian`` keeps the segments ``simulate`` would give
    for the same period (same kinds and times); ``period_map`` keeps none.
    A Jacobian run keeps no event list: only a trajectory reads one."""
    p = make_params(F=1.0, f=0.5, omega=2.0 * math.pi, l=-1.0, r=1.0,
                    force_law=law)   # impacts, turnings and rests
    res = period_map_jacobian(p, state, 0.0, 2)
    traj = simulate(p, PhaseState(*state, 0.0), 2 * p.T)
    assert ([(type(s), s.t0, s.t1) for s in res.segments]
            == [(type(s), s.t0, s.t1) for s in traj.segments])
    assert period_map(p, state).segments is None
    run = _advance(p, *state, 0.0, 2 * p.T, jac=True, event_cap=EVENT_CAP)
    assert run.events is None and len(run.segments) == len(res.segments)


def test_flight_only_jacobian_is_shear():
    p = make_params(F=0.0, f=0.0, omega=1.0, l=-100.0, r=100.0)
    res = period_map_jacobian(p, (0.0, 0.001))
    assert np.allclose(res.jacobian, [[1.0, p.T], [0.0, 1.0]], atol=1e-14)
    fd = finite_difference_jacobian(p, (0.0, 0.001))
    assert np.allclose(fd, [[1.0, p.T], [0.0, 1.0]], atol=1e-6)


def test_nonsticking_map_has_unit_determinant(fast, rng):
    checked = 0
    for _ in range(60):
        z = (rng.uniform(-0.9, 0.9), rng.uniform(1.5, 5.0) * rng.choice([-1, 1]))
        res = period_map_jacobian(fast, z)
        c = res.event_summary
        if c["turnings"] + c["sticks"] + c["grazings"]:
            continue
        checked += 1
        assert res.det == 1.0    # structural determinant is exact
        assert abs(np.linalg.det(res.jacobian) - 1.0) <= 1e-9
        assert res.classification is MapClass.AREA_PRESERVING
    assert checked >= 20


def test_stick_map_has_zero_determinant():
    p = make_params(F=1.0, f=0.8, omega=1.0, l=-20.0, r=20.0)
    res = period_map_jacobian(p, (0.0, 1.0))
    assert res.event_summary["sticks"] >= 1
    assert res.det == 0.0         # exactly zero, by construction
    assert res.classification is MapClass.SINGULAR


def test_det_equals_product_of_factor_dets(fast, rng):
    for _ in range(20):
        z = (rng.uniform(-0.9, 0.9), rng.uniform(-4.0, 4.0))
        res = period_map_jacobian(fast, z)
        if res.jacobian is None:
            continue
        prod = 1.0
        for fac in res.factors:
            prod *= fac.det
        assert res.det == pytest.approx(prod, abs=1e-15)
        assert np.linalg.det(res.jacobian) == pytest.approx(res.det, abs=1e-12)


def test_semigroup_property(fast):
    z = (0.2, 2.4)
    once = period_map(fast, z)
    twice = period_map(fast, once.output, t0=fast.T)
    direct = period_map(fast, z, k=2)
    assert twice.output[0] == pytest.approx(direct.output[0], abs=1e-10)
    assert twice.output[1] == pytest.approx(direct.output[1], abs=1e-10)


def test_phase_state_maps_like_the_pair(fast):
    for z in ((0.2, 2.4), (0.0, 0.15), (-1.0, 0.3)):
        a = period_map(fast, z, t0=0.3)
        b = period_map(fast, PhaseState(*z, 0.3), t0=0.3)
        assert ((b.input, b.output, b.signature, b.det)
                == (a.input, a.output, a.signature, a.det))


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: period_map(FAST, (0.0, NAN)),
    lambda: period_map(FAST, PhaseState(0.0, INF)),
    lambda: period_map(FAST, (0.0, 0.5), NAN),
    lambda: period_map_jacobian(FAST, (0.0, -INF)),
    lambda: period_map_jacobian(FAST, (0.0, 0.5), INF),
    lambda: simulate(FAST, PhaseState(0.0, NAN), 1.0),
    lambda: simulate(FAST, PhaseState(0.0, 1.0, NAN), 1.0),
    lambda: simulate(FAST, PhaseState(0.0, 1.0), INF),
    lambda: period_map_batch(FAST, [NAN], [0.5]),
    lambda: period_map_batch(FAST, [0.0, 0.1], [NAN, 0.5]),
    lambda: period_map_batch(FAST, np.zeros(100), np.full(100, NAN)),
    lambda: period_map_batch(FAST, np.zeros(100), np.full(100, 0.5), NAN),
    lambda: period_map_batch(WV_PARAMS[0], [0.0], [INF]),
], ids=["map v nan", "map PhaseState v inf", "map t0 nan", "jacobian v -inf",
        "jacobian t0 inf", "simulate v nan", "simulate t nan",
        "simulate duration inf", "batch x nan", "batch v nan (one at a time)",
        "batch v nan (lockstep)", "batch t0 nan (lockstep)",
        "wall-vanishing batch v inf"])
def test_non_finite_start_or_time_is_refused(call):
    """A nan or inf position, velocity, start time or duration is a
    ContractViolation (CLI exit 2): not a map classed area-preserving, a
    run to the event cap, or an untyped numpy or scipy error."""
    with pytest.raises(ContractViolation, match="non-finite"):
        call()


def test_jacobian_matches_finite_differences(fast, rng):
    """Saltation product vs central differences at points with a locally
    constant event signature."""
    checked = 0
    worst = 0.0
    while checked < 25:
        z = (rng.uniform(-0.9, 0.9), rng.uniform(-5.0, 5.0))
        res = period_map_jacobian(fast, z)
        if res.jacobian is None:
            continue
        try:
            fd = finite_difference_jacobian(fast, z, h=1e-6)
        except ContractViolation:
            continue
        rel = (np.linalg.norm(res.jacobian - fd)
               / max(np.linalg.norm(res.jacobian), 1.0))
        worst = max(worst, rel)
        checked += 1
    assert worst < 1e-5


def test_eigenvalues_match_fd_at_fixed_point(fast):
    orb = symmetric_orbit(fast, 2)
    res = period_map_jacobian(fast, orb.fixed_state)
    fd = finite_difference_jacobian(fast, orb.fixed_state, h=1e-6)
    lam_an = sorted(np.linalg.eigvals(res.jacobian).real)
    lam_fd = sorted(np.linalg.eigvals(fd).real)
    assert lam_an[0] == pytest.approx(lam_fd[0], abs=1e-4)
    assert lam_an[1] == pytest.approx(lam_fd[1], abs=1e-4)


def test_multiplier_reciprocity_on_nonsticking_orbits(rng):
    for p in random_valid_symmetric_params(rng, 6):
        for branch in (1, 2):
            orb = symmetric_orbit(p, branch)
            lam1, lam2 = orb.multipliers
            assert abs(lam1 * lam2 - 1.0) < 1e-6


def test_fd_refuses_near_event_boundary(narrow):
    """Probe points straddling an event-topology change are rejected."""
    # bisect the leftward launch speed to the left-wall grazing boundary
    def n_impacts(v0):
        return sum(period_map(narrow, (0.4, -v0)).event_summary[k]
                   for k in ("impacts_left", "impacts_right"))

    lo, hi = 0.5, 2.0
    base = n_impacts(lo)
    assert n_impacts(hi) != base
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        (lo, hi) = (mid, hi) if n_impacts(mid) == base else (lo, mid)
    with pytest.raises(ContractViolation):
        finite_difference_jacobian(narrow, (0.4, -0.5 * (lo + hi)), h=1e-4)


def test_classification_tolerances(fast):
    res = period_map_jacobian(fast, (0.2, 3.0))
    assert res.classification is MapClass.AREA_PRESERVING
    res = period_map_jacobian(fast, (0.0, 0.15))  # low speed: turning events
    c = res.event_summary
    assert c["turnings"] >= 1 or c["sticks"] >= 1
    assert res.classification in (MapClass.CONTRACTING, MapClass.SINGULAR)


def test_undefined_on_grazing():
    p = make_params(F=1.0, f=0.1, omega=1.0, l=0.0, r=0.8)
    res = period_map_jacobian(p, (0.8, 0.0))
    assert res.undefined
    assert res.jacobian is None
    assert res.classification is MapClass.UNDEFINED
    with pytest.raises(ContractViolation):
        res.trace


def test_frictionless_turning_keeps_unit_determinant(narrow):
    """With f = 0 a turning point contributes a unit factor: the map stays
    area-preserving even though velocity zeros occur."""
    res = period_map_jacobian(narrow, (0.4, 0.0))
    assert res.event_summary["turnings"] >= 1
    assert res.det == pytest.approx(1.0, abs=1e-12)
    assert res.classification is MapClass.AREA_PRESERVING


def test_wall_vanishing_jacobian_matches_fd(wall_vanishing):
    """With the position-dependent force the flight factors come from the
    integrated variational system; the assembled product still matches
    finite differences and keeps a unit determinant on impact-only maps."""
    z = (0.0, 1.3)
    res = period_map_jacobian(wall_vanishing, z)
    assert res.det == 1.0
    fd = finite_difference_jacobian(wall_vanishing, z, h=1e-6)
    rel = np.linalg.norm(res.jacobian - fd) / np.linalg.norm(fd)
    assert rel < 1e-6
    assert np.linalg.det(res.jacobian) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the friction column df = dP/df
# ---------------------------------------------------------------------------

def _richardson_in_f(p, state, t0, k, h):
    """Richardson-extrapolated difference quotient of the map in f
    (central, or forward at f < h), or None when the four probes do not
    share one event signature."""
    if p.f >= h:
        fs = (p.f + h, p.f - h, p.f + h / 2, p.f - h / 2)
    else:
        fs = (p.f + h, p.f, p.f + h / 2, p.f)
    outs, sigs = [], set()
    for f in fs:
        r = period_map(p.replace_friction(f), state, t0, k)
        outs.append(np.array(r.output))
        sigs.add(r.signature)
    if len(sigs) != 1:
        return None
    d1 = (outs[0] - outs[1]) / (fs[0] - fs[1])
    d2 = (outs[2] - outs[3]) / (fs[2] - fs[3])
    return (4.0 * d2 - d1) / 3.0 if p.f >= h else 2.0 * d2 - d1


def fd_friction_column(p, state, t0, k):
    """Finite-difference dP/df, or None where it does not settle.

    Chaotic k = 3 maps reach |dP/df| ~ 1e4, so no single step resolves
    every cell: of the estimates at h = 1e-5 ... 1e-8, the later one of the
    closest consecutive pair is returned.  It counts as settled when that
    pair agrees to 1e-7 relative, ten times finer than the tolerance the
    column is held to.  A cell pressed against a wall at f = 0 (hundreds
    of micro-bounces a period, d2P/df2 ~ 1e7) never settles."""
    ests = [_richardson_in_f(p, state, t0, k, h)
            for h in (1e-5, 1e-6, 1e-7, 1e-8)]
    pairs = [(np.abs(a - b).max(), b) for a, b in zip(ests, ests[1:])
             if a is not None and b is not None]
    if not pairs:
        return None
    gap, est = min(pairs, key=lambda q: q[0])
    return est if gap <= 1e-7 * max(1.0, np.abs(est).max()) else None


def assert_column_matches(res, fd):
    assert np.abs(res.df - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(PARAMS), u=st.floats(1e-6, 1.0 - 1e-6),
       v=st.floats(-4.0, 4.0) | st.just(0.0), t0=st.floats(0.0, 10.0),
       k=st.integers(1, 3))
def test_friction_column_matches_finite_differences(p, u, v, t0, k):
    state = (p.l + (p.r - p.l) * u, v)
    res = period_map_jacobian(p, state, t0, k)
    assume(res.df is not None)
    fd = fd_friction_column(p, state, t0, k)
    assume(fd is not None)
    assert_column_matches(res, fd)


P3 = make_params(F=1.0, f=0.2, omega=2.0 * math.pi, l=-1.0, r=1.0)
STICK_BRANCH = make_params(F=1.0, f=0.45, omega=1.0, l=0.0, r=1.6)


@pytest.mark.parametrize("p, state, t0, k, kinds", [
    (FAST, (0.9, 0.1), 0.1, 1, {"T"}),
    (PARAMS[1], (0.0, 0.3), 0.0, 1, {"S", "s"}),
    (FAST, (0.3, 0.0), 0.25, 3, {"S", "s", "T"}),
    (P3, symmetric_orbit(P3, 1, m=3).fixed_state, 0.0, 3, {"L", "R"}),
    # |dP/df| ~ 5e3 near the sticking boundary of the continuation test
    (STICK_BRANCH, symmetric_orbit(STICK_BRANCH, 2).fixed_state, 0.0, 1,
     {"L", "R"}),
])
def test_friction_column_through_each_event_kind(p, state, t0, k, kinds):
    res = period_map_jacobian(p, state, t0, k)
    assert set(res.signature) == kinds
    assert_column_matches(res, fd_friction_column(p, state, t0, k))


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(WV_PARAMS), x=st.floats(-0.999, 0.999),
       v=st.floats(-3.0, 3.0), t0=st.floats(0.0, 10.0),
       at_rest=st.booleans(), k=st.integers(1, 2))
def test_wall_vanishing_jacobian_leaves_the_image(p, x, v, t0, at_rest, k):
    """The variational block stays out of the step control, so the map
    with and without the Jacobian takes the same steps: image, events and
    det agree bit for bit."""
    z = (x, 0.0 if at_rest else v)
    a, b = period_map(p, z, t0, k), period_map_jacobian(p, z, t0, k)
    assert (a.output, a.signature, a.det) == (b.output, b.signature, b.det)


def test_friction_column_only_under_uniform_law(wall_vanishing, fast):
    assert period_map_jacobian(wall_vanishing, (0.0, 1.3)).df is None
    assert period_map(fast, (0.1, 2.0)).df is None
    # wall-pressed rest leaves the whole derivative undefined
    p = make_params(F=1.0, f=0.55, omega=1.0, l=0.0, r=1.6)
    res = period_map_jacobian(p, (p.r, 0.0))
    assert res.jacobian is None and res.df is None
