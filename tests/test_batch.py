"""The lockstep period map against the scalar one, cell by cell."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vibroimpact import (ContractViolation, GridSpec, MapClass, SimulationError,
                         applied_force, classify_regions, make_params,
                         period_map, period_map_jacobian, sticking_band,
                         strobemap)
from vibroimpact.flight import WallVanishingArc, WallVanishingArcs
from vibroimpact.simulator import EVENT_CAP, LOCKSTEP_EVENTS, _advance_batch
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


@pytest.fixture(autouse=True)
def lockstep_always(monkeypatch):
    """The sets here are small: without this, period_map_batch would map
    the uniform ones one state at a time, the scalar map compared with
    itself."""
    monkeypatch.setattr(strobemap, "SCALAR_CELLS", 0)


def scalar_rows(p, xs, vs, t0, event_cap=EVENT_CAP):
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


def assert_matches_scalar(p, xs, vs, t0, event_cap=EVENT_CAP):
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


def test_small_sets_map_alike_with_and_without_the_crossover(monkeypatch):
    """A uniform set below SCALAR_CELLS is mapped one state at a time; the
    lockstep kernel with its hand-backs gives the same MapBatch, capped
    rows included (the kernel has written state and counts into them)."""
    still = make_params(F=0.0, f=0.0, omega=1.0, l=-1.0, r=1.0)
    xs = np.array([0.2, 0.4, 0.0, -1.0, 1.0, -0.5])
    vs = np.array([0.0, 0.5, 9.0, 0.7, 0.0, -0.3])
    lockstep = period_map_batch(still, xs, vs, 0.3, event_cap=3)
    monkeypatch.setattr(strobemap, "SCALAR_CELLS", 96)
    one_by_one = period_map_batch(still, xs, vs, 0.3, event_cap=3)
    for name in ("out_x", "out_v", "det", "code", "counts", "capped"):
        np.testing.assert_array_equal(getattr(lockstep, name),
                                      getattr(one_by_one, name), err_msg=name)
    undefined = CLASS_CODE[MapClass.UNDEFINED]
    assert lockstep.counts[0, 2] == 1 and lockstep.code[0] == undefined
    assert lockstep.capped[2] and not lockstep.counts[2].any()
    assert lockstep.counts[3, 0] > 0                  # start on the wall
    assert lockstep.counts[4, 3] == 1 and lockstep.code[4] == undefined
    assert not lockstep.capped[[0, 1, 3, 4, 5]].any()


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


@pytest.mark.parametrize("wall, v", [(1.0, 1e-310), (-1.0, -1e-310),
                                     (1.0, 5e-324)])
def test_wall_start_with_subnormal_speed_out_is_grazing(wall, v):
    """A start on a wall whose speed out of it is too small to reflect
    (2g/v, the reflection factor's entry, overflows) is a grazing contact:
    the Jacobian map calls it undefined instead of returning nan, and the
    plain, Jacobian and batch maps give the same image and class."""
    res = period_map_jacobian(FAST, (wall, v), 0.3)
    assert res.undefined and res.signature[0] == "G"
    plain = period_map(FAST, (wall, v), 0.3)
    b = period_map_batch(FAST, np.array([wall]), np.array([v]), 0.3)
    assert plain.output == res.output == (b.out_x[0], b.out_v[0])
    assert plain.classification is res.classification is MapClass.UNDEFINED
    assert b.code[0] == CLASS_CODE[MapClass.UNDEFINED]
    # a small normal speed still reflects
    res = period_map_jacobian(FAST, (wall, 1e-300 * wall), 0.3)
    assert res.signature[0] == ("R" if wall > 0 else "L")
    assert res.jacobian is None or np.isfinite(res.jacobian).all()


def test_roundoff_wall_hits_are_grazing():
    # the left-wall hit carries v = +6.7e-17, speed out of the wall
    out = period_map(PARAMS[2], (1.8e-119, 0.0), 1.0).output
    assert PARAMS[2].l <= out[0] <= PARAMS[2].r
    # the left-wall hit carries v = 0: no reflection factor exists
    res = period_map_jacobian(PARAMS[3], (1.8e-119, 0.0), 2.0)
    assert res.undefined and "G" in res.signature


def test_float_and_array_primitives_agree():
    """The scalar arcs take math.sin and math.cos where the lockstep
    bundles take np.sin and np.cos, and np.power on a float where they take
    it on an array; batch and scalar maps are equal bit for bit only where
    these agree."""
    rng = np.random.default_rng(3)
    phases = np.concatenate([np.linspace(-4.0 * math.pi, 4.0 * math.pi, 1601),
                             rng.uniform(-200.0, 200.0, 3000)])
    for name in ("sin", "cos"):
        want = getattr(np, name)(phases)
        got = np.array([getattr(math, name)(a) for a in phases.tolist()])
        bad = np.flatnonzero(got != want)
        assert not bad.size, (
            f"math.{name} differs from np.{name} at {bad.size} of "
            f"{phases.size} phases (first: {phases[bad[0]]!r}): batch/scalar "
            "identity cannot hold on this platform")
    errs = 10.0 ** rng.uniform(-20.0, 2.0, 2000)
    for e in (-1.0 / 8.0, 1.0 / 8.0):
        got = np.array([float(np.power(a, e)) for a in errs.tolist()])
        assert np.array_equal(got, np.power(errs, e)), (
            "np.power on a float differs from np.power on an array: "
            "batch/scalar identity cannot hold on this platform")


def _wv_starts(p, starts):
    """Arc starts (x, v, t0, sign): at rest, the sign of the force."""
    return [(x, v, t, (1 if v > 0 else -1) if v != 0.0
             else (1 if applied_force(p, x, t) > 0 else -1))
            for x, v, t in starts]


def assert_arc_equals_bundle_row(arc, arcs, i, horizon):
    """The float arc equals row i of a bundle, bit for bit: the event
    times, x and v at the event and at samples of the last step, and the
    transport."""
    t_v, t_x = arc.event_times(horizon)
    np.testing.assert_array_equal(
        [math.nan if e is None else e for e in (t_v, t_x)],
        [e[i] for e in arcs.event_times(horizon)])
    t_end = t_x if t_x is not None else t_v if t_v is not None else horizon
    row = arcs.take([i])
    ts = row._t[0] + (t_end - row._t[0]) * np.linspace(0.0, 1.0, 5)
    for t in ts.tolist():
        assert (arc.x(t), arc.v(t)) == (row.x(np.array([t]))[0],
                                        row.v(np.array([t]))[0])
        if arc.jac:
            want = [row._at(np.array([t]), k)[0] for k in (2, 3, 4, 5)]
            assert arc.transport(arc.t0, t).ravel().tolist() == want


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(WV_PARAMS), x0=st.floats(-1.0 + 1e-6, 1.0 - 1e-6),
       v0=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       t0=st.floats(0.0, 10.0), span=st.floats(0.05, 1.5),
       jac=st.booleans(),
       others=st.lists(st.tuples(st.floats(-1.0 + 1e-6, 1.0 - 1e-6),
                                 st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
                                 st.floats(0.0, 2.0)), max_size=6),
       at=st.integers(0, 6))
@example(p=WV_PARAMS[1], x0=0.0, v0=0.0, t0=0.0, span=1.0, jac=False,
         others=[], at=0)
@example(p=WV_PARAMS[1], x0=0.0, v0=0.0, t0=0.0, span=1.0, jac=True,
         others=[(0.5, 1.0, 0.3)], at=1)
def test_wall_vanishing_arc_equals_bundle_row(p, x0, v0, t0, span, jac,
                                             others, at):
    """``WallVanishingArc`` on floats equals ``WallVanishingArcs``, as an
    n = 1 bundle and as one row of a larger one, from starts in flight and
    at rest, with and without the variational block."""
    horizon = t0 + span * p.T
    (start,) = _wv_starts(p, [(x0, v0, t0)])
    rest = _wv_starts(p, [(x, v, max(0.0, t0 - d)) for x, v, d in others])
    at = min(at, len(rest))
    for starts, i in (([start], 0), (rest[:at] + [start] + rest[at:], at)):
        x, v, t, s = (np.array(c, dtype=float) for c in zip(*starts))
        arc = WallVanishingArc(p, *start[:2], t0, start[3], with_transport=jac)
        assert_arc_equals_bundle_row(arc, WallVanishingArcs(p, x, v, t, s, jac=jac),
                                     i, horizon)


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
    b = period_map_batch(fast, cells[:, 0], cells[:, 1], 0.2)
    np.testing.assert_array_equal(rg.classes.ravel(), b.code)
    np.testing.assert_array_equal(rg.out_x.ravel(), b.out_x)
    np.testing.assert_array_equal(rg.det.ravel(), b.det)


def test_start_outside_the_walls_is_refused():
    with pytest.raises(ContractViolation):
        period_map_batch(FAST, np.array([0.0, FAST.r + 1.0]),
                         np.array([0.5, 0.5]))
