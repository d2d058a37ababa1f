import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from vibroimpact import (ContractViolation, applied_force, flight, lockstep,
                         make_params, period_map_jacobian)
from vibroimpact.flight import (_BRENT_KW, HORIZON, IMPACT, VELOCITY_ZERO,
                                SinusoidArc, UniformFlightArc, UniformFlightArcs,
                                WallVanishingArcs, _arc, _speed_keeps_sign,
                                next_event)


def test_force_free_drift_arc():
    p = make_params(F=0.0, f=0.0, omega=1.0, l=-10.0, r=10.0)
    arc = _arc(p, 0.1, 0.5, 0.0, 1)
    for t in (0.0, 0.7, 2.0):
        assert arc.x(t) == pytest.approx(0.1 + 0.5 * t, abs=1e-15)
        assert arc.v(t) == pytest.approx(0.5, abs=1e-15)


def test_cosine_arc_from_rest():
    # zero-velocity start is valid with sign +1 (force 1 > f = 0) and gives
    # x(t) = 1 - cos t, v(t) = sin t
    p = make_params(F=1.0, f=0.0, omega=1.0, l=-10.0, r=10.0)
    arc = _arc(p, 0.0, 0.0, 0.0, 1)
    for t in (0.2, 1.0, 2.5):
        assert arc.x(t) == pytest.approx(1 - math.cos(t), abs=1e-14)
        assert arc.v(t) == pytest.approx(math.sin(t), abs=1e-14)


def test_friction_arc_against_quadrature():
    """v(t) = 1 + sin t - 0.1 t checked against a fixed-step RK4 oracle."""
    p = make_params(F=1.0, f=0.1, omega=1.0, l=-100.0, r=100.0)
    arc = _arc(p, 0.0, 1.0, 0.0, 1)
    x, v, t = 0.0, 1.0, 0.0
    h = 1e-4

    def acc(tt):
        return math.cos(tt) - 0.1

    while t < 1.0 - h / 2:
        k1x, k1v = v, acc(t)
        k2x, k2v = v + 0.5 * h * k1v, acc(t + 0.5 * h)
        k3x, k3v = v + 0.5 * h * k2v, acc(t + 0.5 * h)
        k4x, k4v = v + h * k3v, acc(t + h)
        x += (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v += (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += h
    assert arc.v(1.0) == pytest.approx(1 + math.sin(1.0) - 0.1, abs=1e-12)
    assert abs(arc.v(1.0) - v) < 1e-8
    assert abs(arc.x(1.0) - x) < 1e-8


def test_first_impact_at_analytic_time():
    # 1 - cos t reaches the wall at 0.8 when t = arccos(0.2)
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=0.8)
    arc = _arc(p, 0.0, 0.0, 0.0, 1)
    kind, t, x, v = next_event(p, arc, 20.0)
    assert kind == IMPACT and x == 0.8
    assert t == pytest.approx(math.acos(0.2), abs=1e-12)
    assert v == pytest.approx(math.sin(t), abs=1e-14)


def test_drift_impact():
    p = make_params(F=0.0, f=0.0, omega=1.0, l=0.0, r=1.0)
    arc = _arc(p, 0.1, 0.5, 0.0, 1)
    kind, t, x, v = next_event(p, arc, 10.0)
    assert kind == IMPACT and x == 1.0
    assert t == pytest.approx(1.8, abs=1e-12)


def test_velocity_zero_at_pi():
    # from rest at t=0 with f=0: v(t) = sin t vanishes next at t = pi
    p = make_params(F=1.0, f=0.0, omega=1.0, l=-100.0, r=100.0)
    arc = _arc(p, 0.0, 0.0, 0.0, 1)
    kind, t, x, v = next_event(p, arc, 10.0)
    assert kind == VELOCITY_ZERO
    assert t == pytest.approx(math.pi, abs=1e-12)
    assert v == 0.0


def test_horizon_event():
    p = make_params(F=1.0, f=0.0, omega=1.0, l=-100.0, r=100.0)
    arc = _arc(p, 0.0, 0.0, 0.0, 1)
    kind, t, x, v = next_event(p, arc, 1.0)
    assert kind == HORIZON
    assert t == 1.0 and (x, v) == (arc.x(1.0), arc.v(1.0))
    with pytest.raises(ContractViolation):
        next_event(p, arc, -1.0)


@pytest.mark.parametrize("v0,sign", [(2.0, 1), (-2.0, -1)])
def test_min_speed_is_the_exact_minimum(v0, sign):
    """Over five periods ``accel_zeros`` lists all ten acceleration zeros,
    and ``min_speed`` is the minimum of sign * v: a dense sample lies no
    lower, and comes within its own spacing's error of it."""
    p = make_params(F=1.0, f=0.3, omega=1.3, l=-100.0, r=100.0)
    arc = UniformFlightArc(p, 0.0, v0, 0.4, sign)
    a, b = 0.4, 0.4 + 5 * p.T
    zeros = arc.accel_zeros(a, b)
    assert len(zeros) == 10 and zeros == sorted(zeros)
    assert all(a < t < b and abs(arc.accel(t)) < 1e-12 for t in zeros)
    sampled = min(sign * arc.v(t) for t in np.linspace(a, b, 20_001))
    assert sampled - 1e-6 <= arc.min_speed(a, b) <= sampled


@given(x0=st.floats(-0.5, 0.5), v0=st.floats(0.05, 3.0),
       f=st.floats(0.0, 0.4), om=st.floats(0.5, 3.0),
       t0=st.floats(0.0, 6.0))
@settings(max_examples=40, deadline=None)
def test_event_is_first_by_dense_sampling(x0, v0, f, om, t0):
    """No earlier sign change of the event functions exists on the arc."""
    p = make_params(F=1.0, f=f, omega=om, l=-1.0, r=1.0)
    arc = _arc(p, x0, v0, t0, 1)
    kind, t, x, v = next_event(p, arc, t0 + 3 * p.T)
    ts = np.linspace(t0, t, 10_000, endpoint=False)[1:]
    xs = np.array([arc.x(t) for t in ts])
    vs = np.array([arc.v(t) for t in ts])
    assert np.all(vs > 0), "velocity sign change before the reported event"
    assert np.all(xs < 1.0 + 1e-10), "wall crossing before the reported event"
    assert np.all(xs > -1.0 - 1e-10)
    # continuity at the event
    if kind == IMPACT:
        assert x == 1.0 and abs(arc.x(t) - 1.0) < 1e-12
    elif kind == VELOCITY_ZERO:
        assert abs(arc.v(t)) < 1e-12


def test_wall_vanishing_arc_events(wall_vanishing):
    p = wall_vanishing
    arc = _arc(p, 0.0, 1.2, 0.0, 1)
    kind, t, x, v = next_event(p, arc, 5.0 * p.T)
    assert kind in (IMPACT, VELOCITY_ZERO)
    # residual of the event condition on the integrated arc
    if kind == IMPACT:
        assert x == 1.0 and abs(arc.x(t) - 1.0) < 1e-10
    else:
        assert abs(arc.v(t)) < 1e-10


# ---------------------------------------------------------------------------
# the lockstep velocity-zero scan against the scalar arc
# ---------------------------------------------------------------------------

def assert_scan_matches_scalar(p, t0, v0, sign, t_hi):
    """``UniformFlightArcs.first_velocity_zero`` of a bundle equals
    ``UniformFlightArc.first_velocity_zero`` arc by arc, bit for bit (nan
    for None).  The start position does not enter the scan."""
    t0, v0, sign = (np.asarray(a, dtype=float) for a in (t0, v0, sign))
    got = UniformFlightArcs(p, np.zeros_like(t0), v0, t0,
                            sign).first_velocity_zero(t_hi)
    want = [UniformFlightArc(p, 0.0, v, t, int(s)).first_velocity_zero(t_hi)
            for t, v, s in zip(t0.tolist(), v0.tolist(), sign.tolist())]
    np.testing.assert_array_equal(
        got, [math.nan if w is None else w for w in want])
    return got


def _signs(p, t0, v0):
    """The velocity's sign, or at rest the applied force's."""
    return np.where(v0 != 0.0, np.sign(v0),
                    np.where(np.cos(p.omega * t0) >= 0.0, 1.0, -1.0))


def test_scan_departures_from_rest():
    """v0 = 0, so the departure guard applies; the last two arcs leave
    at the stick release times, where the acceleration vanishes too."""
    p = make_params(F=1.0, f=0.3, omega=1.0, l=-10.0, r=10.0)
    t0 = np.append(np.linspace(0.0, p.T, 40, endpoint=False),
                   [p.T - math.acos(0.3), math.acos(-0.3)])
    v0 = np.zeros_like(t0)
    sign = np.append(_signs(p, t0[:-2], v0[:-2]), [1.0, -1.0])
    got = assert_scan_matches_scalar(p, t0, v0, sign, p.T + 0.3)
    assert np.isfinite(got).any() and np.isnan(got).any()


def test_scan_horizon_inside_the_first_window():
    """t_hi - t0 < T/4 on every arc, down to below the departure guard."""
    p = make_params(F=1.0, f=0.2, omega=2.0, l=-10.0, r=10.0)
    t_hi = 3.0
    t0 = t_hi - np.append(np.linspace(0.25 * p.T, 0.0, 24, endpoint=False),
                          1e-9)
    v0 = np.linspace(-0.3, 0.3, 25)
    v0[::3] = 0.0
    got = assert_scan_matches_scalar(p, t0, v0, _signs(p, t0, v0), t_hi)
    assert np.isfinite(got).any() and np.isnan(got).any()


def test_scan_acceleration_zeros_on_window_edges():
    """f = 0, t0 = 0, omega = 1: the acceleration zeros pi/2 + k pi are
    window edges too."""
    p = make_params(F=1.0, f=0.0, omega=1.0, l=-10.0, r=10.0)
    assert math.acos(0.0) / p.omega == 0.5 * math.pi / p.omega
    v0 = np.arange(-15, 16) / 10.0
    t0 = np.zeros_like(v0)
    got = assert_scan_matches_scalar(p, t0, v0, _signs(p, t0, v0), 2.0 * p.T)
    # |v0| > F / omega never turns back
    assert np.array_equal(np.isnan(got), np.abs(v0) > 1.0)


def test_scan_without_acceleration_zeros():
    """f > F: the acceleration never vanishes, the knots are the edges."""
    p = make_params(F=1.0, f=1.2, omega=1.5, l=-10.0, r=10.0)
    t0 = np.linspace(0.0, 4.0, 21)
    v0 = np.linspace(-2.0, 2.0, 21)
    got = assert_scan_matches_scalar(p, t0, v0, _signs(p, t0, v0), 5.0)
    assert np.isfinite(got).any() and np.isnan(got).any()


SCAN_PARAMS = (
    make_params(F=1.0, f=0.05, omega=2.0 * math.pi, l=-1.0, r=1.0),
    make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=0.8),
    make_params(F=1.0, f=0.55, omega=1.0, l=0.0, r=1.6),
    make_params(F=1.0, f=1.0, omega=3.0, l=-1.0, r=1.0),
    make_params(F=1.0, f=1.2, omega=1.0, l=-1.0, r=1.0),
    make_params(F=0.0, f=0.1, omega=1.0, l=-1.0, r=1.0),
)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(SCAN_PARAMS),
       arcs=st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(-3.0, 3.0),
                               st.booleans(), st.sampled_from([-1.0, 1.0])),
                     min_size=1, max_size=32),
       t_hi=st.floats(0.0, 12.0))
def test_scan_matches_scalar_mixed(p, arcs, t_hi):
    """A bundle mixing starts from rest and in flight, horizons from zero
    to 1.5 periods, friction below, at and above the force, and no force."""
    ahead, v0, rest, s = (np.array(c) for c in zip(*arcs))
    t0 = t_hi - ahead * p.T
    v0 = np.where(rest, 0.0, v0)
    assert_scan_matches_scalar(p, t0, v0, np.where(v0 != 0.0, np.sign(v0), s),
                               t_hi)


# ---------------------------------------------------------------------------
# the closed-form speed floor against the unskipped knot walk
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(SCAN_PARAMS), lift=st.sampled_from([0.0, 1.0, -1.0]),
       arcs=st.lists(st.tuples(st.floats(0.0, 3.0), st.sampled_from([-1, 1]),
                               st.integers(-4, 4),
                               st.just(0.0) | st.floats(-1e-9, 1e-9)),
                     min_size=1, max_size=16),
       t_hi=st.floats(0.0, 12.0))
# exactly on the floor at f = 0: the computed floor is above 0 by an ulp
# or less, and the walk finds a zero at the trough (without the margin,
# the floor would certify these arcs)
@example(p=SCAN_PARAMS[1], lift=0.0, t_hi=3.0,
         arcs=[(a, s, 0, 0.0) for a, s in ((0.5, -1), (1.5, -1), (2.5, 1))])
@example(p=SCAN_PARAMS[1], lift=1.0, t_hi=3.0, arcs=[(1.5, 1, 0, 0.0)])
# 1e-9 below the floor with s c sin0 > 0, a trough within the span
@example(p=SCAN_PARAMS[1], lift=0.0, t_hi=3.0, arcs=[(1.0, 1, 0, -1e-9)])
def test_speed_floor_certifies_only_arcs_without_a_zero(p, lift, arcs, t_hi):
    """Whenever ``_speed_keeps_sign`` certifies an arc, the knot walk it
    skips, scalar and batch, finds no velocity zero.  The start speeds lie
    within a few ulps or 1e-9 of the exact floor s v0 = |c| + s c sin0 +
    |a_k| span, on both sides of it, and the horizons from 0 to 3 periods
    reach the velocity's troughs, where at f = 0 the floor is attained.
    lift = 0 gives the uniform law's coefficients (a_cos = F, a_k = -s f);
    lift = +-1 the tent lift's (a_cos = +-F/R, a_k = -+f/R), whose arcs
    are only ever scalar."""
    w = p.omega
    rows = []
    for ahead, s, ulps, rel in arcs:
        t0 = t_hi - ahead * p.T
        a_cos, a_k = ((p.F, -s * p.f) if lift == 0.0
                      else (lift * p.F / p.R, -lift * p.f / p.R))
        c, sin0, span = a_cos / w, math.sin(w * t0), t_hi - t0
        floor_v = abs(c) + s * c * sin0 + abs(a_k) * span
        v0 = s * (floor_v * (1.0 + rel) + ulps * math.ulp(floor_v))
        certified = _speed_keeps_sign(s, v0, c, sin0, a_k, span)
        arc = SinusoidArc(t0, 0.0, v0, s, a_cos, a_k, w)
        assert not certified or arc._scan_velocity_zero(t_hi) is None
        assert arc.first_velocity_zero(t_hi) == (
            None if certified else arc._scan_velocity_zero(t_hi))
        rows.append((t0, v0, s, certified))
    if lift != 0.0:
        return
    t0, v0, s, certified = (np.array(c) for c in zip(*rows))
    bundle = UniformFlightArcs(p, np.zeros_like(t0), v0, t0, s)
    np.testing.assert_array_equal(
        _speed_keeps_sign(s, v0, bundle.a_cos / w, bundle._sin0, bundle.a_k,
                          t_hi - t0), certified)
    assert np.isnan(bundle._scan_velocity_zero(t_hi)[certified]).all()


# ---------------------------------------------------------------------------
# the lockstep Brent against scipy's, bracket by bracket
# ---------------------------------------------------------------------------

def assert_brent_matches_scipy(p, t0, x0, v0, lo, hi, target):
    """``lockstep.brentq`` on x(t) - target of a bundle of uniform arcs
    equals scipy's ``brentq`` bracket by bracket, bit for bit: on arrays
    alone (float tail 0), handing over mid-iteration (tail 2) and at the
    default tail.  So does ``lockstep.brentq1`` on each bracket.  Returns
    scipy's number of function calls per bracket."""
    sign = np.where(v0 != 0.0, np.sign(v0), 1.0)
    arcs = UniformFlightArcs(p, x0, v0, t0, sign)

    def bracket_fn(i):
        sub, tg = arcs.take(i), target[i]
        return lambda t: sub.x(t) - tg

    def bracket_fn1(i):
        x, tg = arcs.one(i).x, float(target[i])
        return lambda t: x(t) - tg
    ref = [brentq(lambda t, k=k: (arcs.take([k]).x(np.array([t])) - target[k]
                                  ).item(), lo[k], hi[k], full_output=True,
                  **_BRENT_KW) for k in range(len(lo))]
    for tail in (0, 2, lockstep._FLOAT_TAIL):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lockstep, "_FLOAT_TAIL", tail)
            got = lockstep.brentq(bracket_fn, bracket_fn1, lo, hi,
                                  arcs.x(lo) - target, arcs.x(hi) - target,
                                  **_BRENT_KW)
        np.testing.assert_array_equal(got, [root for root, _ in ref])
    for k, (root, _) in enumerate(ref):
        assert assert_brent1_matches_scipy(bracket_fn1(k), float(lo[k]),
                                           float(hi[k])) is not None
    return [r.function_calls for _, r in ref]


def test_lockstep_brent_on_drift_brackets():
    """Force-free drift x = x0 + v0 (t - t0), where the secant step is
    exact: roots at lo and at hi, one hit exactly by the first secant step
    (an exact zero mid-iteration), and others reached by the tolerance, so
    the brackets finish at different iterations."""
    p = make_params(F=0.0, f=0.0, omega=1.0, l=-10.0, r=10.0)
    lo = np.array([0.0, 0.0, 0.0, 0.0, 0.3, 1.0])
    hi = np.array([2.0, 2.0, 2.0, 3.0, 2.9, 1.0 + 1e-9])
    v0 = np.array([1.0, 1.0, 1.0, 0.7, -1.3, 2.0])
    zeros = np.zeros_like(lo)
    # at lo, at hi, the first secant step, then inexact sums
    target = np.array([0.0, 2.0, 0.5, 0.7 / 3.0, -1.3 * 1.1,
                       2.0 * (1.0 + 5e-10)])
    calls = assert_brent_matches_scipy(p, zeros, zeros, v0, lo, hi, target)
    assert calls[:3] == [2, 2, 3] and len(set(calls)) >= 3


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(SCAN_PARAMS),
       brackets=st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(-1.0, 1.0),
                                   st.floats(-3.0, 3.0), st.floats(0.0, 2.0),
                                   st.floats(1e-9, 3.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=24))
def test_lockstep_brent_matches_scipy(p, brackets):
    """Brackets [t0 + a, t0 + a + width] of the closed-form x of random
    uniform arcs, with the target x at a fraction of the width (0 and 1:
    a root exactly at an end).  Brackets whose ends do not straddle the
    target are left out.  Widths from 1e-9 to 3 finish at different
    iterations in one bundle."""
    t0, x0, v0, a, width, frac = (np.array(c) for c in zip(*brackets))
    lo, hi = t0 + a, t0 + a + width
    sign = np.where(v0 != 0.0, np.sign(v0), 1.0)
    arcs = UniformFlightArcs(p, x0, v0, t0, sign)
    target = arcs.x(lo + frac * width)
    g_lo, g_hi = arcs.x(lo) - target, arcs.x(hi) - target
    k = np.flatnonzero((g_lo == 0.0) | (g_hi == 0.0)
                       | (np.signbit(g_lo) != np.signbit(g_hi)))
    if k.size:
        assert_brent_matches_scipy(p, t0[k], x0[k], v0[k], lo[k], hi[k],
                                   target[k])


# ---------------------------------------------------------------------------
# Brent on Python floats
# ---------------------------------------------------------------------------

def assert_brent1_matches_scipy(g, lo, hi):
    """``lockstep.brentq1``, handed g's values at lo and hi, returns scipy's
    root bit for bit, or raises ValueError with scipy's reason where scipy
    does.  Returns scipy's number of function calls (None: refused)."""
    try:
        root, r = brentq(g, lo, hi, full_output=True, **_BRENT_KW)
    except ValueError as e:
        reason = "different signs" if "different signs" in str(e) else "NaN"
        with pytest.raises(ValueError, match=reason):
            lockstep.brentq1(g, lo, hi, g(lo), g(hi), **_BRENT_KW)
        return None
    got = lockstep.brentq1(g, lo, hi, g(lo), g(hi), **_BRENT_KW)
    assert float(got).hex() == root.hex()
    return r.function_calls


def _nan_between(g, a, b):
    return lambda t: math.nan if a < t < b else g(t)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(SCAN_PARAMS), t0=st.floats(0.0, 6.0),
       x0=st.floats(-1.0, 1.0), v0=st.floats(-3.0, 3.0),
       a=st.floats(0.0, 2.0), width=st.floats(1e-9, 3.0),
       frac=st.floats(-0.25, 1.25),
       nan=st.sampled_from([None, "lo", "hi", "inside"]))
@example(p=SCAN_PARAMS[0], t0=0.0, x0=0.0, v0=1.0, a=0.0, width=1.0,
         frac=0.5, nan=None)
@example(p=SCAN_PARAMS[0], t0=0.0, x0=0.0, v0=1.0, a=0.0, width=1.0,
         frac=1.5, nan=None)
@example(p=SCAN_PARAMS[0], t0=0.0, x0=0.0, v0=1.0, a=0.0, width=1.0,
         frac=0.5, nan="inside")
def test_float_brent_matches_scipy(p, t0, x0, v0, a, width, frac, nan):
    """On x(t) - target of a uniform arc, with the target at a fraction of
    the bracket's width (outside [0, 1]: most often ends of one sign), and
    with NaN at an end or over the bracket's middle third."""
    arc = UniformFlightArc(p, x0, v0, t0, 1 if v0 >= 0.0 else -1)
    lo, hi = t0 + a, t0 + a + width
    target = arc.x(lo + frac * width)

    def g(t):
        return arc.x(t) - target
    if nan == "lo":
        g = _nan_between(g, -math.inf, lo + width / 3.0)
    elif nan == "hi":
        g = _nan_between(g, hi - width / 3.0, math.inf)
    elif nan == "inside":
        g = _nan_between(g, lo + width / 3.0, hi - width / 3.0)
    assert_brent1_matches_scipy(g, lo, hi)


@pytest.mark.parametrize("tail", [0, 40], ids=["arrays", "floats"])
def test_lockstep_brent_refuses_nan(monkeypatch, tail):
    """``lockstep.brentq`` raises ValueError, as scipy does, on a NaN end
    value and on a NaN met mid-iteration (here at the first secant step,
    t = 0.5), on arrays and on the float tail alike."""
    monkeypatch.setattr(lockstep, "_FLOAT_TAIL", tail)

    def g(t):
        return math.nan if abs(t - 0.5) < 0.01 else t - 0.5
    lo, hi = np.zeros(40), np.full(40, 0.8)
    f_lo, f_hi = lo - 0.5, hi - 0.5
    args = (lambda i: lambda t: np.array([g(x) for x in t]), lambda i: g)
    with pytest.raises(ValueError, match="NaN"):
        lockstep.brentq(*args, lo, hi, f_lo, f_hi, **_BRENT_KW)
    f_hi[3] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        lockstep.brentq(*args, lo, hi, f_lo, f_hi, **_BRENT_KW)


def _at_float_tails(monkeypatch, fn, n):
    """fn() with ``lockstep.brentq`` handing its brackets to floats at no
    live count (0), at 7, at the default crossover and at once (n)."""
    outs = []
    for tail in (0, 7, lockstep._FLOAT_TAIL, n):
        monkeypatch.setattr(lockstep, "_FLOAT_TAIL", tail)
        outs.append(fn())
    return outs


def _assert_all_equal(outs):
    for out in outs[1:]:
        for a, b in zip(outs[0], out):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("p", SCAN_PARAMS[:3], ids=["fast", "narrow", "sticky"])
def test_float_tail_keeps_uniform_roots(monkeypatch, p):
    """Uniform wall crossings and velocity polishes give the same roots
    whichever live count the lockstep Brent finishes on floats at."""
    rng = np.random.default_rng(7)
    n = 300
    t0 = rng.uniform(0.0, p.T, n)
    x0 = rng.uniform(p.l, p.r, n)
    v0 = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-3.0, 3.0, n))
    arcs = UniformFlightArcs(p, x0, v0, t0, _signs(p, t0, v0))
    t_hi = t0 + 1.5 * p.T
    target = np.where(arcs.sign > 0, p.r, p.l)
    outs = _at_float_tails(monkeypatch, lambda: (
        arcs.first_velocity_zero(float(t_hi.max())),
        arcs.wall_crossing(target, t0, t_hi)), n)
    _assert_all_equal(outs)
    t_v, t_x = outs[0]
    assert np.isfinite(t_v).sum() > 30 and np.isfinite(t_x).sum() > 30


def test_float_tail_keeps_wall_vanishing_roots(monkeypatch, wall_vanishing):
    """Velocity zeros and wall crossings polished on the dense polynomials
    of wall-vanishing steps, likewise."""
    p, rng, n = wall_vanishing, np.random.default_rng(11), 120
    t0 = rng.uniform(0.0, p.T, n)
    x0 = rng.uniform(-0.999, 0.999, n)
    v0 = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-2.0, 2.0, n))
    sign = np.array([(1 if v > 0 else -1) if v != 0.0
                     else (1 if applied_force(p, x, t) > 0 else -1)
                     for x, v, t in zip(x0, v0, t0)], dtype=float)
    outs = _at_float_tails(monkeypatch, lambda: WallVanishingArcs(
        p, x0, v0, t0, sign).event_times(float(t0.max()) + p.T), n)
    _assert_all_equal(outs)
    t_v, t_x = outs[0]
    assert np.isfinite(t_v).sum() > 20 and np.isfinite(t_x).sum() > 20


def test_scalar_maps_call_brent_through_the_module_name(monkeypatch):
    """Single arcs reach ``flight.brentq`` through the module global, the
    name perfbench/spans.py wraps: a counter put there sees the calls of
    a scalar Jacobian map."""
    calls = []
    real = flight.brentq

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(flight, "brentq", counted)
    p = make_params(F=1.0, f=0.05, omega=2.0 * math.pi, l=-1.0, r=1.0)
    period_map_jacobian(p, (0.3, 1.0), 0.0)
    assert len(calls) > 0
