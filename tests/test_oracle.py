import numpy as np
import pytest

from vibroimpact import (OracleError, PhaseState, make_params,
                         oracle_simulate, period_map, simulate)
from vibroimpact.orbits import symmetric_orbit_formula, symmetric_orbit_state
from vibroimpact.strobemap import period_map_batch


def test_drift_is_exact():
    p = make_params(F=0.0, f=0.0, omega=1.0, l=-10.0, r=10.0)
    orc = oracle_simulate(p, PhaseState(0.0, 1.0, 0.0), 3.0, p.T / 2000)
    assert orc.final.x == pytest.approx(3.0, abs=1e-12)
    assert orc.final.v == 1.0


def test_dt_validation():
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=1.0)
    with pytest.raises(OracleError):
        oracle_simulate(p, PhaseState(0.5, 1.0, 0.0), 1.0, p.T / 100)


def test_closed_form_orbit_returns(wide):
    fo = symmetric_orbit_formula(wide, 2)
    st0 = symmetric_orbit_state(wide, fo, 0.0)
    orc = oracle_simulate(wide, st0, wide.T, wide.T / 20_000)
    assert orc.final.x == pytest.approx(st0.x, abs=1e-6)
    assert orc.final.v == pytest.approx(st0.v, abs=1e-6)
    assert orc.signature() == ("R", "L")


def test_event_sequences_match_engine(fast):
    ic = PhaseState(0.3, 1.7, 0.0)
    orc = oracle_simulate(fast, ic, 5 * fast.T, fast.T / 5000)
    tr = simulate(fast, ic, 5 * fast.T)
    assert orc.signature() == tr.event_signature()
    # event times agree to the oracle's resolution
    for oe, ee in zip(orc.events, tr.events):
        assert oe.time == pytest.approx(ee.time, abs=1e-6)


def test_stick_slip_sequence_matches_engine():
    p = make_params(F=1.0, f=0.6, omega=1.0, l=-30.0, r=30.0)
    ic = PhaseState(0.0, 1.2, 0.0)
    orc = oracle_simulate(p, ic, 4 * p.T, p.T / 4000)
    tr = simulate(p, ic, 4 * p.T)
    assert "S" in tr.event_signature()
    assert orc.signature() == tr.event_signature()
    assert orc.final.x == pytest.approx(tr.final.x, abs=1e-5)


def test_convergence_order():
    """Halving dt shrinks the disagreement with the event-driven engine at
    the integrator's fourth-order rate, confirming the engine as the more
    accurate reference."""
    # strong forcing keeps the truncation error above the event-location
    # noise floor at the coarse end
    p = make_params(F=40.0, f=2.0, omega=3.0, l=0.0, r=30.0)
    ic = PhaseState(10.0, 6.0, 0.0)
    tr = simulate(p, ic, 6 * p.T)
    errs = []
    for n in (1000, 2000, 4000):
        orc = oracle_simulate(p, ic, 6 * p.T, p.T / n)
        s = tr.state_at(orc.final.t)
        errs.append(abs(orc.final.x - s.x) + abs(orc.final.v - s.v))
    assert errs[0] / errs[1] > 8
    assert errs[1] / errs[2] > 8


def test_wall_vanishing_scalar_path(wall_vanishing):
    ic = PhaseState(0.0, 0.9, 0.0)
    orc = oracle_simulate(wall_vanishing, ic, wall_vanishing.T,
                          wall_vanishing.T / 1500)
    tr = simulate(wall_vanishing, ic, wall_vanishing.T)
    assert orc.signature() == tr.event_signature()
    assert orc.final.x == pytest.approx(tr.final.x, abs=1e-6)
    assert orc.final.v == pytest.approx(tr.final.v, abs=1e-5)


def test_wall_vanishing_batch_matches_oracle(wall_vanishing):
    """The lockstep wall-vanishing map against the RK4 oracle on cells with
    impacts, turnings and stick-slip: the same events, images to 1e-9."""
    p = wall_vanishing
    rng = np.random.default_rng(4)
    xs, vs = rng.uniform(-0.95, 0.95, 24), rng.uniform(-2.5, 2.5, 24)
    vs[::3] = 0.0
    b = period_map_batch(p, xs, vs, 0.3)
    seen = set()
    for i in range(len(xs)):
        orc = oracle_simulate(p, PhaseState(xs[i], vs[i], 0.3), p.T, p.T / 2000)
        sig = orc.signature()
        seen.update(sig)
        assert b.counts[i].tolist() == [sig.count("R") + sig.count("L"),
                                        sig.count("T"), sig.count("S"),
                                        sig.count("G")]
        assert abs(orc.final.x - b.out_x[i]) < 1e-9
        assert abs(orc.final.v - b.out_v[i]) < 1e-9
    assert {"R", "L", "T", "S"} <= seen


def test_wall_vanishing_turning_then_quick_stop(wall_vanishing):
    """An arc from rest at a turning point whose velocity returns to zero
    within the first dense-output sample: the departure guard keeps the
    arc start from being polished as its own velocity zero (that looped on
    one turning until the event cap)."""
    res = period_map(wall_vanishing, (0.5, 0.15), event_cap=5000)
    orc = oracle_simulate(wall_vanishing, PhaseState(0.5, 0.15, 0.0),
                          wall_vanishing.T, wall_vanishing.T / 4000)
    assert res.signature == orc.signature() == ("T", "S", "s")


def test_departure_tangent_to_rest_matches_oracle():
    """v = -1 + sin t reaches zero tangentially at t = pi/2, where the force
    cos t vanishes too: the turning point departs so weakly that the
    velocity at the departure guard is roundoff (the polish bracket used to
    have no sign change and brentq raised)."""
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=0.8)
    res = period_map(p, (0.6, -1.0))
    orc = oracle_simulate(p, PhaseState(0.6, -1.0, 0.0), p.T, p.T / 20_000)
    assert res.signature == orc.signature()
    assert res.output[0] == pytest.approx(orc.final.x, abs=1e-9)
    assert res.output[1] == pytest.approx(orc.final.v, abs=1e-9)
