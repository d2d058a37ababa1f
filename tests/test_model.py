import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from vibroimpact import (ForceLaw, ParameterError, Params, applied_force,
                         make_params, params_from_dict, params_to_dict,
                         sticking_band)


def test_validate_basic():
    p = Params(1.0, 0.0, 1.0, 0.0, 0.8)
    assert p.R == pytest.approx(0.8)
    assert p.T == pytest.approx(2 * math.pi)
    assert not p.globally_sticking


def test_validate_flags_globally_sticking():
    p = make_params(F=1.0, f=1.5, omega=1.0, l=0.0, r=1.0)
    assert p.globally_sticking


@pytest.mark.parametrize("kwargs", [
    dict(F=1.0, f=0.1, omega=1.0, l=1.0, r=0.0),     # r <= l
    dict(F=1.0, f=0.1, omega=0.0, l=0.0, r=1.0),     # omega <= 0
    dict(F=-1.0, f=0.1, omega=1.0, l=0.0, r=1.0),    # negative F
    dict(F=1.0, f=-0.1, omega=1.0, l=0.0, r=1.0),    # negative f
])
def test_validate_rejects(kwargs):
    with pytest.raises(ParameterError):
        make_params(**kwargs)


def test_wall_vanishing_requires_unit_walls():
    with pytest.raises(ParameterError):
        make_params(F=1.0, f=0.1, omega=1.0, l=0.0, r=1.0,
                    force_law="wall_vanishing")
    p = make_params(F=1.0, f=0.1, omega=1.0, l=-1.0, r=1.0,
                    force_law="wall_vanishing")
    assert p.force_law is ForceLaw.WALL_VANISHING


def test_applied_force_uniform():
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=1.0)
    for x in (0.0, 0.3, 1.0):
        assert applied_force(p, x, 0.0) == 1.0


def test_applied_force_wall_vanishing():
    p = make_params(F=1.0, f=0.1, omega=2 * math.pi, l=-1.0, r=1.0,
                    force_law="wall_vanishing")
    assert applied_force(p, 1.0, 0.3) == pytest.approx(0.0, abs=1e-15)
    assert applied_force(p, 0.0, 0.0) == 1.0


def test_sticking_band_value():
    p = make_params(F=1.0, f=0.1, omega=2 * math.pi, l=-1.0, r=1.0,
                    force_law="wall_vanishing")
    band = sticking_band(p)
    # independent oracle: the band edge solves F cos(pi eta / 2) = f
    edge = brentq(lambda x: math.cos(0.5 * math.pi * x) - 0.1, 0.0, 1.0,
                  xtol=1e-15)
    assert band.eta == pytest.approx((2 / math.pi) * math.acos(0.1), abs=1e-15)
    assert band.eta == pytest.approx(edge, abs=1e-12)
    assert band.eta == pytest.approx(0.936231, abs=1e-6)
    assert band.intervals == ((-1.0, -band.eta), (band.eta, 1.0))


def test_sticking_band_limits():
    # f -> 0+: the band edge moves to the walls (only there the force is 0)
    p = make_params(F=1.0, f=1e-12, omega=1.0, l=-1.0, r=1.0,
                    force_law="wall_vanishing")
    assert sticking_band(p).eta == pytest.approx(1.0, abs=1e-6)
    # f = F: the edge reaches the center, everything is at rest
    p = make_params(F=1.0, f=1.0, omega=1.0, l=-1.0, r=1.0,
                    force_law="wall_vanishing")
    band = sticking_band(p)
    assert band.eta == 0.0
    assert band.intervals == ((-1.0, 1.0),)
    # f > F: entire interval at rest
    p = make_params(F=1.0, f=1.5, omega=1.0, l=-1.0, r=1.0,
                    force_law="wall_vanishing")
    assert sticking_band(p).contains(0.0)


def test_sticking_band_uniform_is_error():
    p = make_params(F=1.0, f=0.1, omega=1.0, l=0.0, r=1.0)
    with pytest.raises(ParameterError):
        sticking_band(p)


@given(x=st.floats(-1.0, 1.0), t=st.floats(-50.0, 50.0),
       wall_law=st.booleans())
@settings(max_examples=60, deadline=None)
def test_force_is_periodic(x, t, wall_law):
    p = make_params(F=1.3, f=0.2, omega=2.0, l=-1.0, r=1.0,
                    force_law="wall_vanishing" if wall_law else "uniform")
    assert applied_force(p, x, t) == pytest.approx(
        applied_force(p, x, t + p.T), abs=1e-13)


def test_wall_vanishing_band_characterizes_rest():
    """|force| <= f for all t exactly when x is inside the band."""
    p = make_params(F=1.0, f=0.3, omega=2 * math.pi, l=-1.0, r=1.0,
                    force_law="wall_vanishing")
    band = sticking_band(p)
    ts = [k * p.T / 200 for k in range(201)]
    for x in (band.eta + 1e-6, 0.99, -band.eta - 1e-3):
        assert max(abs(applied_force(p, x, t)) for t in ts) <= p.f + 1e-12
    for x in (band.eta - 1e-3, 0.0, -band.eta + 1e-2):
        assert max(abs(applied_force(p, x, t)) for t in ts) > p.f


def test_serialization_round_trips(fast):
    d = params_to_dict(fast)
    assert params_from_dict(d) == fast
    with pytest.raises(ParameterError):
        params_from_dict({"F": 1.0, "f": 0.0})
    with pytest.raises(ParameterError):
        params_from_dict({"F": "1", "f": "oops", "omega": "1", "l": "0",
                          "r": "1"})
