"""The lockstep period map against the scalar one, cell by cell."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibroimpact import (ContractViolation, GridSpec, MapClass, SimulationError,
                         classify_regions, make_params, period_map,
                         period_map_jacobian, sticking_band)
from vibroimpact.simulator import LOCKSTEP_EVENTS, _advance_batch
from vibroimpact.strobemap import BATCH_CELLS, CLASS_CODE, period_map_batch

FAST = make_params(F=1.0, f=0.05, omega=2.0 * math.pi, l=-1.0, r=1.0)
PARAMS = (
    FAST,
    # high friction in a wide chamber: turnings and sticks
    make_params(F=1.0, f=0.8, omega=1.0, l=-20.0, r=20.0),
    # narrow chamber near the sticking boundary: grazing, wall-pressed rest
    make_params(F=1.0, f=0.55, omega=1.0, l=0.0, r=1.6),
    # frictionless and small-friction narrow chambers
    make_params(F=1.0, f=0.0, omega=1.0, l=0.0, r=0.8),
    make_params(F=1.0, f=0.005, omega=1.0, l=0.0, r=0.8),
    # friction above the force: every velocity zero is a permanent stop
    make_params(F=1.0, f=1.2, omega=1.0, l=-1.0, r=1.0),
)

# F cos(pi x / 2) cos(omega t) between walls at -1 and 1
WV_PARAMS = (
    # recipes/wall_vanishing.cfg
    make_params(F=1.0, f=0.1, omega=2.0 * math.pi, l=-1.0, r=1.0,
                force_law="wall_vanishing"),
    # strong forcing and friction: turnings and sticks in most cells
    make_params(F=2.0, f=0.5, omega=3.0, l=-1.0, r=1.0,
                force_law="wall_vanishing"),
    # frictionless: a velocity zero sticks only where the force vanishes
    make_params(F=1.0, f=0.0, omega=2.0 * math.pi, l=-1.0, r=1.0,
                force_law="wall_vanishing"),
)


def scalar_rows(p, xs, vs, t0, event_cap=1_000_000):
    """Rows (out_x, out_v, det, code, impacts, turnings, sticks, grazings)
    of the scalar map, with the batch's encoding of event-cap hits."""
    rows = []
    for x, v in zip(xs, vs):
        try:
            r = period_map(p, (x, v), t0, event_cap=event_cap)
        except SimulationError:
            rows.append((math.nan, math.nan, math.nan,
                         CLASS_CODE[MapClass.UNDEFINED], 0, 0, 0, 0))
            continue
        c = r.event_summary
        rows.append((*r.output, r.det, CLASS_CODE[r.classification],
                     c["impacts_left"] + c["impacts_right"], c["turnings"],
                     c["sticks"], c["grazings"]))
    return np.array(rows)


def assert_matches_scalar(p, xs, vs, t0, event_cap=1_000_000):
    b = period_map_batch(p, xs, vs, t0, event_cap=event_cap)
    ref = scalar_rows(p, xs, vs, t0, event_cap)
    np.testing.assert_array_equal(b.code, ref[:, 3])
    np.testing.assert_array_equal(b.counts, ref[:, 4:])
    for got, want in ((b.out_x, ref[:, 0]), (b.out_v, ref[:, 1]),
                      (b.det, ref[:, 2])):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(b.capped, np.isnan(ref[:, 2]))
    return b


# Cells (u, v) with x = l + (r - l) u.  Cells within 1e-6 of a wall are
# left to test_forced_fallbacks: pressed against the wall by the force they
# bounce ~1e5 times per period, which the scalar reference takes seconds for.
cell_lists = st.lists(st.tuples(st.floats(1e-6, 1.0 - 1e-6),
                                st.floats(-4.0, 4.0)),
                      min_size=1, max_size=48)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PARAMS), cells=cell_lists,
       t0=st.floats(0.0, 10.0), zero_every=st.integers(2, 7))
def test_batch_matches_scalar(p, cells, t0, zero_every):
    u, vs = np.array(cells).T
    xs = p.l + (p.r - p.l) * u
    vs[::zero_every] = 0.0          # starts at rest: turning or stick first
    assert_matches_scalar(p, xs, vs, t0)


def test_batch_covers_turnings_sticks_and_grazings():
    """One grid per friction regime; the union of the cells exercises every
    event kind, both in the lockstep kernel and in the fallback."""
    rng = np.random.default_rng(11)
    seen = np.zeros(4, dtype=np.int64)
    for p in PARAMS:
        xs = rng.uniform(p.l, p.r, 400)
        vs = rng.uniform(-3.0, 3.0, 400)
        vs[:40] = 0.0
        b = assert_matches_scalar(p, xs, vs, rng.uniform(0.0, p.T))
        seen += b.counts.sum(axis=0)
    assert np.all(seen > 0), seen


def test_forced_fallbacks():
    """Each kind of cell the kernel hands to the scalar map."""
    # starts on a wall, both velocity signs
    xs = np.array([FAST.l, FAST.l, FAST.r, FAST.r])
    vs = np.array([1.3, -1.3, 0.7, -0.7])
    assert_matches_scalar(FAST, xs, vs, 0.1)
    # a chattering approach to the left wall ends in grazing, then
    # wall-pressed rest
    pressed = make_params(F=1.0, f=0.55, omega=1.0, l=0.0, r=1.6)
    b = assert_matches_scalar(pressed, np.array([1.5]), np.array([2.0]), 0.0)
    assert b.counts[0, 3] > 0
    assert b.code[0] == CLASS_CODE[MapClass.UNDEFINED]
    # a long cascade: pressed toward the wall from 1e-6 away, the particle
    # bounces on it ~1000 times in the period
    b = assert_matches_scalar(PARAMS[3], np.array([1e-6]), np.array([0.0]),
                              8.0)
    assert b.counts[0, 0] > LOCKSTEP_EVENTS
    # sticking without friction: the force vanishes identically
    still = make_params(F=0.0, f=0.0, omega=1.0, l=-1.0, r=1.0)
    b = assert_matches_scalar(still, np.array([0.2, 0.4]),
                              np.array([0.0, 0.5]), 0.0)
    assert b.code[0] == CLASS_CODE[MapClass.UNDEFINED]
    assert b.counts[0, 2] == 1
    # event cap: class 3, nan det and state, flagged capped
    xs = np.linspace(-0.9, 0.9, 30)
    vs = np.linspace(1.0, 9.0, 30)
    b = assert_matches_scalar(FAST, xs, vs, 0.0, event_cap=2)
    assert b.capped.any() and not b.capped.all()
    assert np.all(b.code[b.capped] == CLASS_CODE[MapClass.UNDEFINED])


def test_lockstep_kernel_hands_back_only_grazing_cells():
    """Cells leave the lockstep kernel only for the listed reasons, so the
    batch is not the scalar map in disguise."""
    rng = np.random.default_rng(2)
    for p in PARAMS[:3]:
        xs = rng.uniform(p.l, p.r, 600)
        vs = rng.uniform(-3.0, 3.0, 600)
        vs[::4] = 0.0
        run = _advance_batch(p, xs, vs, 0.7, 0.7 + p.T, 10_000)
        for i in np.flatnonzero(run.fallback):
            c = period_map(p, (xs[i], vs[i]), 0.7).event_summary
            assert c["grazings"] > 0


def test_batch_chunks_are_seamless():
    rng = np.random.default_rng(5)
    n = BATCH_CELLS + 37
    xs = rng.uniform(-1.0, 1.0, n)
    vs = rng.uniform(-2.0, 2.0, n)
    whole = period_map_batch(FAST, xs, vs, 0.3)
    tail = period_map_batch(FAST, xs[BATCH_CELLS - 5:], vs[BATCH_CELLS - 5:],
                            0.3)
    for a, b in ((whole.out_x, tail.out_x), (whole.out_v, tail.out_v),
                 (whole.det, tail.det), (whole.code, tail.code)):
        np.testing.assert_array_equal(a[BATCH_CELLS - 5:], b)


def assert_equals_scalar(p, xs, vs, t0):
    """The batch gives the scalar map's numbers, bit for bit."""
    b = period_map_batch(p, xs, vs, t0)
    got = np.column_stack([b.out_x, b.out_v, b.det, b.code, b.counts])
    np.testing.assert_array_equal(got, scalar_rows(p, xs, vs, t0))
    return b


# Rest starts this far from a wall: the arc that leaves rest there can
# reach the wall at once, with a velocity of roundoff size and either sign.
ROUNDOFF_GAPS = (1e-300, 1e-200, 1e-119, 1e-60, 1e-30, 1e-17, 1e-16, 1e-15)


@pytest.mark.parametrize("p", PARAMS[2:4])
def test_rest_next_to_a_wall_maps_inside(p):
    """A wall hit with no speed into the wall is a grazing contact, not an
    impact: from rest within roundoff of either wall, at 12 phases, every
    image lies inside the walls, the batch equals the scalar map bit for
    bit, and the Jacobian map gives the same image without raising."""
    gaps = np.array(ROUNDOFF_GAPS)
    xs = np.concatenate([p.l + gaps, p.r - gaps])
    for k in range(12):
        t0 = k * p.T / 12
        b = assert_equals_scalar(p, xs, np.zeros_like(xs), t0)
        assert np.all((p.l <= b.out_x) & (b.out_x <= p.r))
        for x, image in zip(xs, zip(b.out_x, b.out_v)):
            assert period_map_jacobian(p, (x, 0.0), t0).output == image


def test_roundoff_wall_hits_are_grazing():
    # the left-wall hit carries v = +6.7e-17, speed out of the wall
    out = period_map(PARAMS[2], (1.8e-119, 0.0), 1.0).output
    assert PARAMS[2].l <= out[0] <= PARAMS[2].r
    # the left-wall hit carries v = 0: no reflection factor exists
    res = period_map_jacobian(PARAMS[3], (1.8e-119, 0.0), 2.0)
    assert res.undefined and "G" in res.signature


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(WV_PARAMS),
       cells=st.lists(st.tuples(st.floats(-1.0 + 1e-6, 1.0 - 1e-6),
                                st.floats(-3.0, 3.0)), min_size=1, max_size=10),
       t0=st.floats(0.0, 10.0), zero_every=st.integers(2, 5),
       rest=st.floats(0.0, 1.0))
def test_wall_vanishing_batch_matches_scalar(p, cells, t0, zero_every, rest):
    """Under the wall-vanishing law too, starts in flight, at rest (a
    turning or a stick first) and at rest inside the rest band."""
    xs, vs = np.array(cells).T
    vs[::zero_every] = 0.0
    eta = sticking_band(p).eta
    if eta < 1.0:
        x_rest = min(eta + (1.0 - eta) * rest, 1.0 - 1e-6)
        xs, vs = np.append(xs, [x_rest, -x_rest]), np.append(vs, [0.0, 0.0])
    assert_equals_scalar(p, xs, vs, t0)


def test_wall_vanishing_batch_covers_event_kinds():
    """Impacts, turnings, sticks and permanent rest all occur in the
    lockstep kernel under the wall-vanishing law, with no fallback."""
    rng = np.random.default_rng(17)
    seen = np.zeros(4, dtype=np.int64)
    for p in WV_PARAMS[:2]:
        xs = rng.uniform(-0.999, 0.999, 150)
        vs = rng.uniform(-3.0, 3.0, 150)
        vs[:50] = 0.0
        xs[:10] = rng.uniform(sticking_band(p).eta, 0.999, 10)
        t0 = rng.uniform(0.0, p.T)
        b = assert_equals_scalar(p, xs, vs, t0)
        assert np.all(b.out_x[:10] == xs[:10]) and np.all(b.out_v[:10] == 0.0)
        assert not _advance_batch(p, xs, vs, t0, t0 + p.T, 10_000).fallback.any()
        seen += b.counts.sum(axis=0)
    assert np.all(seen[:3] > 0), seen


@settings(max_examples=30, deadline=None)
@given(cells=st.lists(st.tuples(st.floats(-1.0 + 1e-6, 1.0 - 1e-6),
                                st.floats(-3.0, 3.0)), min_size=1, max_size=24),
       t0=st.floats(0.0, 10.0), zero_every=st.integers(2, 7))
def test_wall_vanishing_batch_sigma_equivariance(cells, t0, zero_every):
    """P(sigma z; t0 + T/2) = sigma P(z; t0) to 1e-12 under the recipe's
    wall-vanishing law: both sides take the same integration steps up to
    roundoff of the shifted phase."""
    p = WV_PARAMS[0]
    xs, vs = np.array(cells).T
    vs[::zero_every] = 0.0
    a = period_map_batch(p, xs, vs, t0)
    b = period_map_batch(p, -xs, -vs, t0 + 0.5 * p.T)
    np.testing.assert_array_equal(a.code, b.code)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_allclose(a.out_x, -b.out_x, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(a.out_v, -b.out_v, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(a.det, b.det, rtol=0.0, atol=1e-12)


# The wall-pressed set is left out: its chattering impact-turning cascades
# end in a grazing contact whose event count is decided by roundoff.
@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PARAMS[:2] + PARAMS[3:]), cells=cell_lists,
       t0=st.floats(0.0, 10.0))
def test_batch_sigma_equivariance(p, cells, t0):
    """P(sigma z; t0 + T/2) = sigma P(z; t0), sigma(x, v) = (l+r-x, -v)."""
    u, vs = np.array(cells).T
    xs = p.l + (p.r - p.l) * u
    a = period_map_batch(p, xs, vs, t0)
    b = period_map_batch(p, p.l + p.r - xs, -vs, t0 + 0.5 * p.T)
    np.testing.assert_array_equal(a.code, b.code)
    np.testing.assert_array_equal(a.counts, b.counts)
    # the shifted phase carries roundoff of t0 + T/2 through every event
    np.testing.assert_allclose(a.out_x, p.l + p.r - b.out_x, atol=1e-10)
    np.testing.assert_allclose(a.out_v, -b.out_v, atol=1e-10)
    np.testing.assert_allclose(a.det, b.det, atol=1e-10)


def _error_scale(res):
    """R * sum_i |A_i| |M_i| |B_i| over the saltation factors M_i of a map,
    A_i and B_i being the products of the factors after and before M_i:
    the first-order bound on how far the product moves when each factor
    moves by a relative amount.  R, the largest reflection entry 2|g|/|v-|
    (at least 1), is how strongly roundoff of an impact time moves one."""
    ms = [f.matrix for f in res.factors]
    before = [np.eye(2)]
    for m in ms[:-1]:
        before.append(m @ before[-1])
    after, total = np.eye(2), 0.0
    for m, b in zip(reversed(ms), reversed(before)):
        total += math.prod(np.linalg.norm(a, np.inf) for a in (after, m, b))
        after = after @ m
    R = max([1.0] + [abs(f.matrix[1, 0]) for f in res.factors
                     if f.kind == "reflection"])
    return R * total


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from(PARAMS),
       cells=st.lists(st.tuples(st.floats(1e-6, 1.0 - 1e-6),
                                st.floats(-4.0, 4.0)), min_size=1, max_size=12),
       t0=st.floats(0.0, 10.0), zero_every=st.integers(2, 7))
def test_jacobian_sigma_equivariance(p, cells, t0, zero_every):
    """J(sigma z; t0 + T/2) = sigma J(z; t0) sigma, with equal dets, on the
    cells whose Jacobian is defined.  sigma's linear part is -I, so the two
    Jacobians are equal; the roundoff of the shifted phase moves them by
    less than 1e-12 of the product's error scale (measured: 5e-15 of it at
    most; unscaled, up to 7e-10 in the narrow chambers, whose near-grazing
    impacts have reflection entries in the tens)."""
    u, vs = np.array(cells).T
    xs = p.l + (p.r - p.l) * u
    vs[::zero_every] = 0.0
    sigma = -np.eye(2)
    for x, v in zip(xs, vs):
        a = period_map_jacobian(p, (x, v), t0)
        b = period_map_jacobian(p, (p.l + p.r - x, -v), t0 + 0.5 * p.T)
        if a.jacobian is None or b.jacobian is None:
            continue
        tol = 1e-12 * _error_scale(a)
        np.testing.assert_allclose(b.jacobian, sigma @ a.jacobian @ sigma,
                                   rtol=0.0, atol=tol)
        assert abs(b.det - a.det) <= tol


def test_region_grid_uses_batch_values(fast):
    """classify_regions reports exactly the batch's numbers."""
    g = GridSpec((-1.0, 1.0), (-2.0, 2.0), 12, 9, t0=0.2)
    rg = classify_regions(fast, g)
    cells = g.cells()
    b = period_map_batch(fast, cells[:, 0], cells[:, 1], 0.2,
                         event_cap=200_000)
    np.testing.assert_array_equal(rg.classes.ravel(), b.code)
    np.testing.assert_array_equal(rg.out_x.ravel(), b.out_x)
    np.testing.assert_array_equal(rg.det.ravel(), b.det)


def test_start_outside_the_walls_is_refused():
    with pytest.raises(ContractViolation):
        period_map_batch(FAST, np.array([0.0, FAST.r + 1.0]),
                         np.array([0.5, 0.5]))
