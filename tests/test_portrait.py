import csv
import io
import math

import numpy as np
import pytest

from vibroimpact import (AttractorRegistry, GridError, GridSpec,
                         IslandSeedError, MapClass, RegionGrid, Verdict,
                         classify_cell, classify_cells, classify_regions,
                         find_periodic,
                         invariance_check, island_area, iterate_cloud,
                         make_params, period_map_jacobian, symmetric_orbit,
                         symmetric_orbit_formula, symmetric_orbit_state,
                         tile_from_bytes)
from vibroimpact.portrait import _neighbourhood
from vibroimpact.strobemap import turning_factor


def test_gridspec_validation(fast):
    with pytest.raises(GridError):
        GridSpec((0.0, 1.0), (0.0, 1.0), 1, 10)
    with pytest.raises(GridError):
        GridSpec((1.0, 0.0), (0.0, 1.0), 10, 10)
    g = GridSpec((-2.0, 2.0), (0.0, 1.0), 10, 10)
    with pytest.raises(GridError):
        g.validate_against(fast)


def test_cloud_fixed_point_is_constant(fast):
    orb = symmetric_orbit(fast, 1)
    g = GridSpec((-1, 1), (-6, 6), 2, 2, iterations=20)
    cloud = iterate_cloud(fast, g, seeds=np.array([orb.fixed_state]))
    pts = cloud.points[0]
    assert len(pts) == 20
    assert np.max(np.abs(pts - np.array(orb.fixed_state))) < 1e-8
    assert not cloud.errors


def test_cloud_converges_to_focus(narrow_lowfric):
    """Seeds near the stable focus spiral in geometrically (multiplier
    modulus ~0.99 per period); the seed must sit inside the small focus
    basin bounded by the period-5 resonance ring."""
    focus = find_periodic(narrow_lowfric, (0.51, 0.0), 1, event_cap=5000)
    seed = (focus.fixed_state[0] + 0.004, focus.fixed_state[1] + 0.004)
    g = GridSpec((0, 0.8), (-2, 2), 2, 2, iterations=200)
    cloud = iterate_cloud(narrow_lowfric, g, seeds=np.array([seed]))
    d = np.hypot(cloud.points[0][:, 0] - focus.fixed_state[0],
                 cloud.points[0][:, 1] - focus.fixed_state[1])
    rho = abs(focus.multipliers[0])
    assert d[-1] < 0.6 * d[0]
    # decay rate consistent with the multiplier modulus (within a factor)
    measured = (d[-1] / d[0]) ** (1.0 / (len(d) - 1))
    assert measured == pytest.approx(rho, abs=0.01)


def test_cloud_csv(fast):
    g = GridSpec((-1, 1), (-6, 6), 2, 2, iterations=3)
    cloud = iterate_cloud(fast, g, seeds=np.array([[0.0, 2.0]]))
    lines = cloud.csv().strip().splitlines()
    assert lines[0] == "seed,iteration,x,v"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# region classification
# ---------------------------------------------------------------------------

def test_region_classes(fast):
    g = GridSpec((-1, 1), (-2, 2), 24, 24)
    rg = classify_regions(fast, g)
    codes = set(np.unique(rg.classes))
    assert 0 in codes          # area-preserving cells (fast bouncing)
    assert 1 in codes          # contracting band near v = 0
    # impacts-only cells have det exactly 1
    ap = rg.classes == 0
    assert np.all(np.abs(rg.det[ap] - 1.0) <= 1e-9)


def test_stick_cell_det_zero():
    p = make_params(F=1.0, f=0.8, omega=1.0, l=-20.0, r=20.0)
    g = GridSpec((-2, 2), (0.5, 1.5), 4, 4)
    rg = classify_regions(p, g)
    assert np.all(rg.det[rg.classes == 2] == 0.0)
    assert np.sum(rg.classes == 2) > 0


def test_turning_cell_det_is_factor_product(fast):
    """A cell with exactly one turning has det equal to the contraction ratio at
    the recorded event force."""
    res = period_map_jacobian(fast, (0.0, 0.15))
    c = res.event_summary
    assert c["turnings"] >= 1 and c["sticks"] == 0
    prod = 1.0
    for fac in res.factors:
        if fac.kind == "turning":
            prod *= fac.matrix[1, 1]
    assert res.det == pytest.approx(prod, abs=1e-15)
    # the tabulated contraction ratio at |force| = 0.5, f = 0.05
    assert turning_factor(0.5, 0.05)[1, 1] == pytest.approx(0.45 / 0.55)


@pytest.mark.parametrize("params,x_range,v_range,n,t0", [
    ((1.0, 0.05, 2.0 * math.pi, -1.0, 1.0), (-1.0, 1.0), (-2.0, 2.0), 60, 0.0),
    ((1.0, 0.05, 2.0 * math.pi, -1.0, 1.0), (-1.0, 1.0), (-2.0, 2.0), 60, 0.3),
    ((1.0, 0.005, 1.0, 0.0, 0.8), (0.0, 0.8), (-1.0, 1.0), 40, 0.0),
    ((1.0, 0.1, 2.0 * math.pi, -1.0, 1.0, "wall_vanishing"), (-1.0, 1.0),
     (-3.0, 3.0), 24, 0.0),
])
def test_region_grid_sigma_equivariance(params, x_range, v_range, n, t0):
    """The region grid at t0 + T/2 is the grid at t0 flipped on both axes,
    sigma(x, v) = (l + r - x, -v) mapping cell centers onto cell centers:
    equal classes, and dets and images within 1e-10 (the roundoff of the
    shifted phase and of the mirrored centers)."""
    p = make_params(*params)
    a = classify_regions(p, GridSpec(x_range, v_range, n, n, t0=t0))
    b = classify_regions(p, GridSpec(x_range, v_range, n, n,
                                     t0=t0 + 0.5 * p.T))
    np.testing.assert_array_equal(b.classes, a.classes[::-1, ::-1])
    for got, want in ((b.det, a.det), (b.out_x, p.l + p.r - a.out_x),
                      (b.out_v, -a.out_v)):
        np.testing.assert_allclose(got, want[::-1, ::-1], rtol=0.0, atol=1e-10)


def test_region_grid_csv_and_tile(fast):
    g = GridSpec((-1, 1), (-2, 2), 8, 6)
    rg = classify_regions(fast, g)
    lines = rg.csv().strip().splitlines()
    assert lines[0].startswith("ix,iv,x,v")
    assert len(lines) == 1 + 48
    meta, det, cls = tile_from_bytes(rg.to_tile_bytes())
    assert meta["nx"] == 8 and meta["nv"] == 6
    assert np.array_equal(det, rg.det)
    assert np.array_equal(cls, rg.classes)


def _csv_writer_reference(rg):
    """The region CSV as the csv module writes it, field by field."""
    xs, vs = rg.spec.xs(), rg.spec.vs()
    names = {0: "area_preserving", 1: "contracting", 2: "singular",
             3: "undefined"}
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["ix", "iv", "x", "v", "x_out", "v_out", "det",
                "classification"])
    for iv in range(rg.spec.nv):
        for ix in range(rg.spec.nx):
            w.writerow([ix, iv, f"{xs[ix]:.17g}", f"{vs[iv]:.17g}",
                        f"{rg.out_x[iv, ix]:.17g}", f"{rg.out_v[iv, ix]:.17g}",
                        f"{rg.det[iv, ix]:.17g}",
                        names[int(rg.classes[iv, ix])]])
    return buf.getvalue()


def test_region_csv_bytes_match_csv_writer(rng):
    g = GridSpec((-1.0, 1.0), (-2.5, 2.5), 13, 7)
    shape = (g.nv, g.nx)
    det = rng.uniform(-1.0, 2.0, shape)
    det.flat[::5] = 1.0
    det.flat[1::9] = 0.0
    det.flat[3] = -0.0
    det.flat[[4, 17, 40]] = [math.nan, math.inf, -math.inf]
    rg = RegionGrid(spec=g, det=det,
                    classes=rng.integers(0, 4, shape).astype(np.uint8),
                    out_x=(rng.uniform(-1.0, 1.0, shape)
                           * 10.0 ** rng.integers(-20, 3, shape)),
                    out_v=rng.normal(size=shape))
    rg.out_v.flat[6] = math.nan
    assert rg.csv().encode() == _csv_writer_reference(rg).encode()


def test_neighbourhood_does_not_wrap_across_box_edges():
    """The one-cell dilation of a mask touching the box edges stays next to
    the mask instead of wrapping to the opposite edges."""
    mask = np.zeros((5, 6), dtype=bool)
    mask[0, 0] = mask[4, 2] = mask[2, 5] = True
    near = _neighbourhood(mask)
    dil = np.logical_or.reduce(near)
    expect = np.zeros_like(mask)
    for j, i in zip(*np.nonzero(mask)):
        expect[max(j - 1, 0):j + 2, max(i - 1, 0):i + 2] = True
    assert np.array_equal(dil, expect)
    assert not dil[4, 0] and not dil[0, 5] and not dil[2, 0]
    # a cell on the edge has out-of-box neighbors, so it is never interior
    assert not np.logical_and.reduce(_neighbourhood(np.ones((3, 3), bool)))[0, 1]


def test_workers_give_identical_results(fast):
    g = GridSpec((-1, 1), (-2, 2), 12, 12)
    a = classify_regions(fast, g, workers=1)
    b = classify_regions(fast, g, workers=2)
    assert np.array_equal(a.det, b.det)
    assert np.array_equal(a.classes, b.classes)
    assert np.array_equal(a.out_x, b.out_x)


# ---------------------------------------------------------------------------
# forward invariance
# ---------------------------------------------------------------------------

def test_invariance_empty_region_trivially_contained():
    # frictionless: no dissipative cells at all
    p = make_params(F=1.0, f=0.0, omega=2 * math.pi, l=-1.0, r=1.0)
    g = GridSpec((-1, 1), (1.0, 3.0), 10, 10)
    rg = classify_regions(p, g)
    rep = invariance_check(p, rg)
    assert rep.checked == 0
    assert rep.violation_fraction == 0.0


def test_invariance_small_grid(fast):
    g = GridSpec((-1, 1), (-1.5, 1.5), 90, 90)
    rg = classify_regions(fast, g)
    rep = invariance_check(fast, rg)
    assert rep.checked > 100
    # most of the contracting band maps into itself; genuine leakage is a
    # few percent at these parameters
    assert rep.violation_fraction < 0.08


def test_island_cells_stay_area_preserving(fast):
    fo = symmetric_orbit_formula(fast, 1)
    t0 = 0.25 * fast.T
    center = symmetric_orbit_state(fast, fo, t0)
    z = (center.x + 0.05, center.v)
    for _ in range(100):
        res = period_map_jacobian(fast, z, t0)
        assert res.classification is MapClass.AREA_PRESERVING
        z = res.output


# ---------------------------------------------------------------------------
# long-run verdicts
# ---------------------------------------------------------------------------

def test_verdicts_partition(narrow_lowfric):
    g = GridSpec((0.05, 0.75), (-1.0, 1.0), 5, 5, iterations=300)
    verdicts = classify_cells(narrow_lowfric, g, event_cap=20_000)
    assert len(verdicts) == 25
    assert all(isinstance(v.kind, Verdict) for v in verdicts)


def test_attractor_consistency(narrow_lowfric):
    """Cells attracted to a periodic orbit converge to an orbit located
    independently by the Newton solver (here: the attracting period-5
    cycle that continues the frictionless resonance chain)."""
    cyc = find_periodic(narrow_lowfric, (0.533, 0.035), 5, event_cap=5000)
    states = [cyc.fixed_state]
    from vibroimpact import period_map
    z = cyc.fixed_state
    for _ in range(4):
        z = period_map(narrow_lowfric, z).output
        states.append(z)
    registry = AttractorRegistry()
    v = classify_cell(narrow_lowfric, 0.45, 0.1, budget=3000,
                      registry=registry, event_cap=20_000)
    assert v.kind is Verdict.PERIODIC_ORBIT
    assert v.orbit_period == 5
    d = min(math.hypot(v.final_state[0] - s[0], v.final_state[1] - s[1])
            for s in states)
    assert d < 1e-6


def test_island_verdict(fast):
    fo = symmetric_orbit_formula(fast, 1)
    t0 = 0.25 * fast.T
    center = symmetric_orbit_state(fast, fo, t0)
    v = classify_cell(fast, center.x + 0.03, center.v, t0=t0, budget=250)
    assert v.kind is Verdict.ISLAND


def test_no_impact_line_verdict():
    """Frictionless wide chamber: a state on the impact-free solution
    family is a fixed point with zero velocity at the strobe."""
    p = make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=20.0)
    x0 = 10.0 - 1.0   # C - F/omega^2 with C = 10
    v = classify_cell(p, x0, 0.0, budget=200)
    assert v.kind is Verdict.NO_IMPACT_LINE


def test_sticking_transient_verdict():
    p = make_params(F=1.0, f=0.6, omega=1.0, l=0.0, r=20.0)
    v = classify_cell(p, 10.0, 0.3, budget=12)   # too short to converge
    assert v.kind in (Verdict.STICKING_TRANSIENT, Verdict.PERIODIC_ORBIT,
                      Verdict.NO_IMPACT_LINE)


def test_escaped_verdict(narrow):
    """Chaotic-sea seeds in the frictionless narrow chamber never settle."""
    v = classify_cell(narrow, 0.05, 0.9, budget=150, event_cap=20_000)
    assert v.kind in (Verdict.ESCAPED, Verdict.ISLAND)


# ---------------------------------------------------------------------------
# island area
# ---------------------------------------------------------------------------

def _fast_island_setup(f):
    p = make_params(F=1.0, f=f, omega=2 * math.pi, l=-1.0, r=1.0)
    fo = symmetric_orbit_formula(p, 1)
    t0 = 0.25 * p.T
    center = symmetric_orbit_state(p, fo, t0)
    box = (max(p.l, center.x - 1.05), min(p.r, center.x + 1.05),
           center.v - 1.6, center.v + 1.6)
    return p, t0, center, box


def test_island_area_and_forward_consistency():
    p, t0, center, box = _fast_island_setup(0.1)
    res = island_area(p, (center.x, center.v), t0=t0, n_periods=150,
                      box=box, nx=31, nv=31, mc_samples=4000,
                      mc_forward=120, rng_seed=5)
    assert res.area > 0.5
    assert res.n_cells > 50
    # forward-mapped samples stay inside (one-cell dilation allowance)
    assert res.forward_retention > 0.99
    # the Monte-Carlo estimate agrees with the fill within its error bar
    assert abs(res.mc_area - res.area) < 3 * res.stderr + res.cell_area * res.boundary_cells


def test_island_area_maps_the_seed_with_the_grid(monkeypatch):
    """One lockstep batch per period: the seed rides in the grid's batch,
    so no call maps a single state."""
    from vibroimpact import portrait
    sizes, real = [], portrait.period_map_batch

    def counting(p, xs, vs, *args, **kwargs):
        sizes.append(len(xs))
        return real(p, xs, vs, *args, **kwargs)

    monkeypatch.setattr(portrait, "period_map_batch", counting)
    p, t0, center, box = _fast_island_setup(0.1)
    island_area(p, (center.x, center.v), t0=t0, n_periods=40, box=box,
                nx=15, nv=15, mc_samples=2000, mc_forward=60,
                forward_periods=3)
    assert 0 < len(sizes) <= 40 + 3
    assert min(sizes) > 1


def test_island_area_rejects_non_island_seed(fast):
    with pytest.raises(IslandSeedError):
        island_area(fast, (0.0, 0.2), n_periods=50, nx=21, nv=21)


def test_island_gone_past_fold():
    """Above the saddle-center collision the synchronized orbit family is
    gone; a seed at the former center location is not in an island."""
    p = make_params(F=1.0, f=0.7, omega=1.0, l=0.0, r=20.0)
    with pytest.raises(IslandSeedError):
        island_area(p, (9.79, 6.37), t0=0.25 * p.T, n_periods=100,
                    nx=21, nv=21)


def test_verdicts_csv(narrow_lowfric):
    from vibroimpact.portrait import verdicts_csv
    g = GridSpec((0.3, 0.6), (-0.3, 0.3), 2, 2, iterations=200)
    verdicts = classify_cells(narrow_lowfric, g, event_cap=20_000)
    text = verdicts_csv(g, verdicts)
    lines = text.strip().splitlines()
    assert lines[0].startswith("cell,x,v,verdict")
    assert len(lines) == 5
