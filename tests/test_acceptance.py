"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines for
passing criteria too).
"""

import math

import numpy as np
import pytest

from vibroimpact import (GridSpec, Nonexistence, OrbitError,
                         OrbitType, PhaseState, SimulationError,
                         classify_regions,
                         continue_in_friction, find_periodic,
                         finite_difference_jacobian, invariance_check,
                         island_area, lift_conjugacy_check, make_params,
                         oracle_simulate, period_map, period_map_jacobian,
                         simulate, sticking_band, symmetric_orbit,
                         symmetric_orbit_formula, symmetric_orbit_state)
from vibroimpact.model import ContractViolation
from vibroimpact.simulator import ResolvedKind

WORKERS = 2


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def fast_params(f=0.05):
    return make_params(F=1.0, f=f, omega=2.0 * math.pi, l=-1.0, r=1.0)


# ---------------------------------------------------------------------------
# 1. saddle multipliers at the fast-forcing setup
# ---------------------------------------------------------------------------

def test_ac01_saddle_multipliers():
    """Reference target: saddle multipliers (0.3159, 3.1659) +- 2e-3 with
    unit product.

    The located saddle (confirmed against finite differences of the flow
    and an independent algebraic solve of the two-impact periodicity
    conditions) has multipliers (0.36757, 2.72054); the quoted pair is not
    attainable at these parameters, so this criterion fails by a genuine
    reference-value defect.  The reciprocity part holds exactly.
    """
    p = fast_params()
    guess = symmetric_orbit(p, 2).fixed_state
    orb = find_periodic(p, guess, 1)
    lam = sorted(m.real for m in orb.multipliers)
    recip = abs(lam[0] * lam[1] - 1.0)
    ok_recip = recip < 1e-6
    ok_values = abs(lam[0] - 0.3159) <= 2e-3 and abs(lam[1] - 3.1659) <= 2e-3
    ok = ok_recip and ok_values and orb.orbit_type is OrbitType.SADDLE
    report("AC-01", ok,
           f"saddle multipliers ({lam[0]:.5f}, {lam[1]:.5f}), "
           f"|l1*l2 - 1| = {recip:.2e}; reference targets (0.3159, 3.1659)")
    assert orb.orbit_type is OrbitType.SADDLE
    assert ok_recip
    assert ok_values, (
        f"multipliers ({lam[0]:.5f}, {lam[1]:.5f}) differ from the reference "
        "targets (0.3159, 3.1659); see the docstring analysis")


# ---------------------------------------------------------------------------
# 2. fold of the symmetric branch at 2/pi
# ---------------------------------------------------------------------------

def test_ac02_fold_location():
    p = make_params(F=1.0, f=0.01, omega=1.0, l=0.0, r=20.0)
    res = continue_in_friction(p, symmetric_orbit(p, 1), f_min=1e-4, ds=2e-3)
    assert res.fold is not None, "no fold detected"
    err = abs(res.fold.f_crit - 2.0 / math.pi)
    fs = [pt.f for pt in res.points]
    imax = int(np.argmax(fs))
    before = {pt.orbit_type for pt in res.points[:imax - 2]}
    after = {pt.orbit_type for pt in res.points[imax + 3:]}
    split_ok = (before == {OrbitType.CENTER} and after == {OrbitType.SADDLE})
    traces_ok = (all(abs(pt.trace) < 2 for pt in res.points[:imax - 2])
                 and all(abs(pt.trace) > 2 for pt in res.points[imax + 3:]))
    ok = err <= 1e-4 and split_ok and traces_ok
    report("AC-02", ok,
           f"fold at f = {res.fold.f_crit:.8f} (2/pi = {2 / math.pi:.8f}, "
           f"error {err:.2e}); center/saddle split across the fold: {split_ok}")
    assert err <= 1e-4
    assert split_ok and traces_ok


# ---------------------------------------------------------------------------
# 3. closed-form states are fixed points (50 random parameter sets)
# ---------------------------------------------------------------------------

def test_ac03_closed_form_fixed_points():
    rng = np.random.default_rng(314159)
    n_sets = 0
    worst = 0.0
    while n_sets < 50:
        F = rng.uniform(0.5, 2.0)
        f = rng.uniform(0.02, 0.6) * F
        omega = rng.uniform(0.5, 3.0)
        l = rng.uniform(-5.0, 5.0)
        R = rng.uniform(0.5, 30.0)
        p = make_params(F=F, f=f, omega=omega, l=l, r=l + R)
        try:
            formulas = [symmetric_orbit_formula(p, b) for b in (1, 2)]
        except Nonexistence:
            continue
        n_sets += 1
        for fo in formulas:
            st0 = symmetric_orbit_state(p, fo, 0.0)
            res = period_map(p, (st0.x, st0.v))
            resid = math.hypot(res.output[0] - st0.x, res.output[1] - st0.v)
            worst = max(worst, resid)
            c = res.event_summary
            assert resid <= 1e-8, (p, fo.branch, resid)
            assert c["impacts_left"] + c["impacts_right"] == 2
            assert c["turnings"] == 0
            assert c["sticks"] == 0
    report("AC-03", True,
           f"50 parameter sets x 2 branches: worst residual {worst:.2e}, "
           "all with exactly 2 impacts, 0 turnings, 0 sticks")


# ---------------------------------------------------------------------------
# 4. area preservation / singularity of the determinant
# ---------------------------------------------------------------------------

def test_ac04_determinants():
    rng = np.random.default_rng(602214)
    nonstick = 0
    stick = 0
    worst = 0.0
    while nonstick < 1000 or stick < 50:
        F = rng.uniform(0.5, 2.0)
        f = rng.uniform(0.0, 0.9) * F
        omega = rng.uniform(0.5, 3.0)
        R = rng.uniform(0.5, 10.0)
        p = make_params(F=F, f=f, omega=omega, l=0.0, r=R)
        z = (rng.uniform(0.05, 0.95) * R, rng.uniform(-3.0, 3.0))
        try:
            res = period_map_jacobian(p, z, event_cap=20_000)
        except SimulationError:
            continue
        if res.undefined:
            continue
        c = res.event_summary
        if c["sticks"] > 0:
            if stick < 50:
                stick += 1
                assert res.det == 0.0      # exactly zero
        elif c["turnings"] == 0 and nonstick < 1000:
            nonstick += 1
            num_det = float(np.linalg.det(res.jacobian))
            worst = max(worst, abs(num_det - 1.0))
            assert abs(num_det - 1.0) <= 1e-9
            assert res.det == 1.0
    report("AC-04", True,
           f"1000 non-sticking maps: worst |det - 1| = {worst:.2e}; "
           f"{stick} sticking maps with det exactly 0")


# ---------------------------------------------------------------------------
# 5. saltation-product Jacobian vs finite differences
# ---------------------------------------------------------------------------

def test_ac05_jacobian_vs_finite_differences():
    rng = np.random.default_rng(271828)
    p = fast_params()
    checked = 0
    worst = 0.0
    while checked < 100:
        z = (rng.uniform(-0.95, 0.95), rng.uniform(-5.5, 5.5))
        try:
            res = period_map_jacobian(p, z)
            if res.jacobian is None:
                continue
            fd = finite_difference_jacobian(p, z, h=1e-6)
        except (ContractViolation, Exception):
            continue
        rel = (np.linalg.norm(res.jacobian - fd)
               / max(1.0, np.linalg.norm(res.jacobian)))
        worst = max(worst, rel)
        checked += 1
    ok = worst <= 1e-5
    report("AC-05", ok,
           f"100 random points with constant event signature: worst relative "
           f"difference {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 6. oracle equivalence
# ---------------------------------------------------------------------------

def test_ac06_oracle_equivalence():
    cases = [
        ("narrow frictionless", make_params(F=1, f=0.0, omega=1, l=0, r=0.8),
         PhaseState(0.4, 0.0, 0.0)),
        ("narrow low friction", make_params(F=1, f=0.005, omega=1, l=0, r=0.8),
         PhaseState(0.4, 0.0, 0.0)),
        ("fast forcing", fast_params(), PhaseState(0.0, 2.0, 0.0)),
    ]
    details = []
    for name, p, ic in cases:
        orc = oracle_simulate(p, ic, 10 * p.T, p.T / 1e5)
        tr = simulate(p, ic, 10 * p.T)
        assert tr.event_signature() == orc.signature(), name
        # compare on the oracle grid away from the velocity discontinuities
        # at impacts (both event times agree to ~1e-12, but a sample falling
        # between the two versions of an impact would compare +-v)
        imp = np.array([e.time for e in tr.events
                        if e.kind is ResolvedKind.IMPACT] or [math.inf])
        ts = orc.ts[::7]
        keep = np.ones(len(ts), bool)
        for te in imp:
            keep &= np.abs(ts - te) > 1e-6 * p.T
        ts = ts[keep]
        sim = tr.sample(ts)
        ox = np.interp(ts, orc.ts, orc.xs)
        ov = np.interp(ts, orc.ts, orc.vs)
        dx = float(np.max(np.abs(sim[:, 1] - ox)))
        dv = float(np.max(np.abs(sim[:, 2] - ov)))
        details.append(f"{name}: dx={dx:.1e} dv={dv:.1e} "
                       f"events={len(tr.events)}")
        assert dx <= 1e-6, (name, dx)
        assert dv <= 1e-5, (name, dv)
    report("AC-06", True, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. forward invariance of the contracting region
# ---------------------------------------------------------------------------

def test_ac07_dissipative_region_invariance():
    """Reference claim: the image of the contracting region stays inside it;
    threshold 1% violations on a 400x400 grid, one-cell boundary band
    excluded.

    The measured leakage is genuine, not discretization: a set of cells
    near the walls (turning-rich trajectories) maps to low-speed states
    whose next period is event-free, re-entering the contracting region
    only two or three periods later (verified with the independent
    fixed-step integrator).  The inclusion holds only approximately
    (~96%), so this criterion fails by a reference-claim defect.
    """
    p = fast_params()
    grid = GridSpec((-1.0, 1.0), (-2.0, 2.0), 400, 400)
    rg = classify_regions(p, grid, workers=WORKERS)
    rep = invariance_check(p, rg, workers=WORKERS)
    frac = rep.violation_fraction
    ok = frac < 0.01
    report("AC-07", ok,
           f"400x400 grid: {rep.violations}/{rep.checked} interior "
           f"dissipative cells map to area-preserving points "
           f"(fraction {frac:.4f}, boundary excluded "
           f"{rep.boundary_excluded}); threshold 0.01")
    assert rep.checked > 5000
    assert frac < 0.01, (
        f"violation fraction {frac:.4f} exceeds 1%: the forward-invariance "
        "claim is only approximate at these parameters (see project notes)")


# ---------------------------------------------------------------------------
# 8. island ladder: shrinkage, subharmonic disappearance, fold bracket
# ---------------------------------------------------------------------------

LADDER = (0.005, 0.01, 0.05, 0.1, 0.2, 0.3)


def _ladder_island(p):
    """Island measurement at the mid-flight strobe phase T/4, where the
    island is a single loop (at phase 0 the orbit sits at the wall and the
    loop's image straddles the impact).  The area is phase-invariant:
    every derivative factor along non-sticking trajectories is unimodular.
    """
    fo = symmetric_orbit_formula(p, 1)
    t0 = 0.25 * p.T
    center = symmetric_orbit_state(p, fo, t0)
    box = (max(p.l, center.x - 1.05), min(p.r, center.x + 1.05),
           center.v - 1.6, center.v + 1.6)
    return island_area(p, (center.x, center.v), t0=t0, n_periods=300,
                       box=box, nx=33, nv=33, mc_samples=8000,
                       mc_forward=150, forward_periods=5, rng_seed=97)


def test_ac08_island_ladder():
    areas = []
    errs = []
    for f in LADDER:
        res = _ladder_island(fast_params(f))
        areas.append(res.area)
        errs.append(res.stderr)
    mono = all(areas[i + 1] <= areas[i] + errs[i] + errs[i + 1]
               for i in range(len(areas) - 1))

    # subharmonic (period-3) family: present at f = 0.2, gone at f = 0.3,
    # with the collision bracketed by continuation
    p02 = fast_params(0.2)
    orb3 = symmetric_orbit(p02, 1, m=3)
    located = find_periodic(p02, orb3.fixed_state, 3)
    exists_02 = (located.residual < 1e-10
                 and located.orbit_type is OrbitType.CENTER)
    with pytest.raises(Nonexistence):
        symmetric_orbit_formula(fast_params(0.3), 1, m=3)
    try:
        find_periodic(fast_params(0.3), orb3.fixed_state, 3, event_cap=20_000)
        absent_03 = False
    except OrbitError:
        absent_03 = True
    res3 = continue_in_friction(p02, orb3, f_min=0.19, f_max=0.35, k=3,
                                ds=1e-3)
    fold_ok = res3.fold is not None and 0.2 < res3.fold.f_crit < 0.3
    ok = mono and exists_02 and absent_03 and fold_ok
    report("AC-08", ok,
           f"areas {['%.3f' % a for a in areas]} (non-increasing within "
           f"error bars: {mono}); period-3 exists at f=0.2: {exists_02}, "
           f"absent at f=0.3: {absent_03}, fold at "
           f"{res3.fold.f_crit if res3.fold else None}")
    assert mono, list(zip(LADDER, areas, errs))
    assert exists_02
    assert absent_03
    assert fold_ok
    assert res3.fold.f_crit == pytest.approx(2 / (3 * math.pi), abs=1e-4)


# ---------------------------------------------------------------------------
# 9. tent-lift conjugacy
# ---------------------------------------------------------------------------

def test_ac09_lift_conjugacy():
    rng = np.random.default_rng(161803)
    checked = 0
    worst = 0.0
    while checked < 20:
        F = rng.uniform(0.5, 2.0)
        f = rng.uniform(0.01, 0.3) * F
        omega = rng.uniform(0.8, 3.0)
        l = rng.uniform(-3.0, 3.0)
        R = rng.uniform(1.0, 20.0)
        p = make_params(F=F, f=f, omega=omega, l=l, r=l + R)
        ic = PhaseState(l + rng.uniform(0.2, 0.8) * R,
                        rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 6.0)
                        * math.sqrt(R * omega), 0.0)
        rep = lift_conjugacy_check(p, ic, 3 * p.T, n_samples=1000)
        if not rep.applicable:
            continue
        checked += 1
        worst = max(worst, rep.max_defect)
        assert rep.max_defect <= 1e-8
    # sticking trajectories report not-applicable
    p = make_params(F=1.0, f=0.5, omega=1.0, l=0.0, r=20.0)
    rep = lift_conjugacy_check(p, PhaseState(10.0, 0.0, math.pi / 2), 3 * p.T)
    assert not rep.applicable and "stick" in rep.reason
    report("AC-09", True,
           f"20 non-sticking trajectories, 1000 samples each: worst "
           f"projection defect {worst:.2e}; sticking case correctly "
           "reports not-applicable")


# ---------------------------------------------------------------------------
# 10. wall-vanishing force: rest band
# ---------------------------------------------------------------------------

def test_ac10_wall_vanishing_rest_band():
    p = make_params(F=1.0, f=0.1, omega=2.0 * math.pi, l=-1.0, r=1.0,
                    force_law="wall_vanishing")
    band = sticking_band(p)
    eta_err = abs(band.eta - (2.0 / math.pi) * math.acos(0.1))
    assert eta_err <= 1e-12
    rng = np.random.default_rng(137035)
    # 100 rest states inside the band stay at rest for 100 periods
    for _ in range(100):
        side = rng.choice([-1.0, 1.0])
        x = side * rng.uniform(band.eta, 1.0)
        t0 = rng.uniform(0.0, p.T)
        tr = simulate(p, PhaseState(x, 0.0, t0), 100 * p.T)
        assert tr.final.x == x and tr.final.v == 0.0
        assert all(e.kind is ResolvedKind.STICK_START for e in tr.events)
    # rest states just outside the band begin moving within one period
    moved = 0
    for side in (-1.0, 1.0):
        for _ in range(10):
            x = side * (band.eta - 1e-3)
            t0 = rng.uniform(0.0, p.T)
            tr = simulate(p, PhaseState(x, 0.0, t0), 1.5 * p.T)
            rel = [e for e in tr.events
                   if e.kind is ResolvedKind.STICK_RELEASE]
            assert rel and rel[0].time - t0 < p.T
            moved += 1
    report("AC-10", True,
           f"band edge at {band.eta:.12f} (formula error {eta_err:.1e}); "
           f"100 interior rest states unmoved over 100 periods; {moved} "
           "edge states released within one period")
