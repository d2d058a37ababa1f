import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibroimpact import (ContractViolation, PhaseState, make_arc, make_params,
                         next_event)
from vibroimpact.flight import (HORIZON, IMPACT, VELOCITY_ZERO, UniformFlightArc,
                                UniformFlightArcs)


def test_force_free_drift_arc():
    p = make_params(F=0.0, f=0.0, omega=1.0, l=-10.0, r=10.0)
    arc = make_arc(p, PhaseState(0.1, 0.5, 0.0), 1)
    for t in (0.0, 0.7, 2.0):
        assert arc.x(t) == pytest.approx(0.1 + 0.5 * t, abs=1e-15)
        assert arc.v(t) == pytest.approx(0.5, abs=1e-15)


def test_cosine_arc_from_rest():
    # zero-velocity start is valid with sign +1 (force 1 > f = 0) and gives
    # x(t) = 1 - cos t, v(t) = sin t
    p = make_params(F=1.0, f=0.0, omega=1.0, l=-10.0, r=10.0)
    arc = make_arc(p, PhaseState(0.0, 0.0, 0.0), 1)
    for t in (0.2, 1.0, 2.5):
        assert arc.x(t) == pytest.approx(1 - math.cos(t), abs=1e-14)
        assert arc.v(t) == pytest.approx(math.sin(t), abs=1e-14)
    with pytest.raises(ContractViolation):
        make_arc(p, PhaseState(0.0, 0.0, 0.0), -1)   # force points the other way


def test_arc_sign_contract():
    p = make_params(F=1.0, f=0.0, omega=1.0, l=-10.0, r=10.0)
    with pytest.raises(ContractViolation):
        make_arc(p, PhaseState(0.0, -1.0, 0.0), 1)
    with pytest.raises(ContractViolation):
        make_arc(p, PhaseState(0.0, 1.0, 0.0), -1)


def test_friction_arc_against_quadrature():
    """v(t) = 1 + sin t - 0.1 t checked against a fixed-step RK4 oracle."""
    p = make_params(F=1.0, f=0.1, omega=1.0, l=-100.0, r=100.0)
    arc = make_arc(p, PhaseState(0.0, 1.0, 0.0), 1)
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
    arc = make_arc(p, PhaseState(0.0, 0.0, 0.0), 1)
    kind, t, x, v = next_event(p, arc, 20.0)
    assert kind == IMPACT and x == 0.8
    assert t == pytest.approx(math.acos(0.2), abs=1e-12)
    assert v == pytest.approx(math.sin(t), abs=1e-14)


def test_drift_impact():
    p = make_params(F=0.0, f=0.0, omega=1.0, l=0.0, r=1.0)
    arc = make_arc(p, PhaseState(0.1, 0.5, 0.0), 1)
    kind, t, x, v = next_event(p, arc, 10.0)
    assert kind == IMPACT and x == 1.0
    assert t == pytest.approx(1.8, abs=1e-12)


def test_velocity_zero_at_pi():
    # from rest at t=0 with f=0: v(t) = sin t vanishes next at t = pi
    p = make_params(F=1.0, f=0.0, omega=1.0, l=-100.0, r=100.0)
    arc = make_arc(p, PhaseState(0.0, 0.0, 0.0), 1)
    kind, t, x, v = next_event(p, arc, 10.0)
    assert kind == VELOCITY_ZERO
    assert t == pytest.approx(math.pi, abs=1e-12)
    assert v == 0.0


def test_horizon_event():
    p = make_params(F=1.0, f=0.0, omega=1.0, l=-100.0, r=100.0)
    arc = make_arc(p, PhaseState(0.0, 0.0, 0.0), 1)
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
    arc = make_arc(p, PhaseState(x0, v0, t0), 1)
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
    arc_state = PhaseState(0.0, 1.2, 0.0)
    arc = make_arc(p, arc_state, 1)
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
