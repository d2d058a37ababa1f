"""Output checks of the benchmark workloads.

Every check compares the engine's output with a computation done apart
from it (the RK4 oracle, the closed-form symmetric orbits) or with a
property the method must have (half-period equivariance, the structural
determinant, round trips of the output formats).  None compares with a
stored copy of an earlier output.  Each returns a list of failure
messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import vibroimpact as vi

# Region class codes, as stored in RegionGrid.classes.
AREA_PRESERVING, CONTRACTING, SINGULAR, UNDEFINED = 0, 1, 2, 3
_CODE = {vi.MapClass.AREA_PRESERVING: AREA_PRESERVING,
         vi.MapClass.CONTRACTING: CONTRACTING,
         vi.MapClass.SINGULAR: SINGULAR,
         vi.MapClass.UNDEFINED: UNDEFINED}

ORACLE_STEPS_PER_PERIOD = 2000


def implied_class(signature) -> int:
    """Region class implied by an event signature: a stick zeroes the
    determinant, a turning point contracts, impacts alone preserve area."""
    if "S" in signature:
        return SINGULAR
    if "T" in signature:
        return CONTRACTING
    return AREA_PRESERVING


def oracle_agreement(p, t0, states_in, states_out, classes, *,
                     tol=1e-9) -> list[str]:
    """One-period images agree with the fixed-step RK4 oracle (step
    T/2000) to ``tol``, and each class matches the oracle's events."""
    fails = []
    for (x, v), (xo, vo), c in zip(states_in, states_out, classes):
        orc = vi.oracle_simulate(p, vi.PhaseState(float(x), float(v), t0),
                                 p.T, p.T / ORACLE_STEPS_PER_PERIOD)
        err = max(abs(orc.final.x - xo), abs(orc.final.v - vo))
        if not err <= tol:
            fails.append(f"oracle: cell ({x:.6g}, {v:.6g}) differs by {err:.3g}")
        want = implied_class(orc.signature())
        if int(c) != want:
            fails.append(f"oracle: cell ({x:.6g}, {v:.6g}) has class {int(c)}, "
                         f"oracle events {''.join(orc.signature())!r} imply {want}")
    return fails


def sigma_equivariance(p, t0, states_in, states_out, classes, *,
                       tol=1e-12, event_cap=200_000) -> list[str]:
    """P(sz; t0 + T/2) = sP(z; t0) with s(x, v) = (l + r - x, -v), with
    equal classes."""
    fails = []
    mid = p.l + p.r
    for (x, v), (xo, vo), c in zip(states_in, states_out, classes):
        try:
            res = vi.period_map_jacobian(p, (mid - x, -v), t0 + 0.5 * p.T,
                                         event_cap=event_cap)
        except vi.SimulationError:
            if int(c) != UNDEFINED:
                fails.append(f"sigma: mirror of ({x:.6g}, {v:.6g}) hit the "
                             "event cap, the cell did not")
            continue
        if _CODE[res.classification] != int(c):
            fails.append(f"sigma: cell ({x:.6g}, {v:.6g}) class {int(c)}, "
                         f"mirror class {_CODE[res.classification]}")
        err = max(abs(res.output[0] - (mid - xo)), abs(res.output[1] + vo))
        if not err <= tol:
            fails.append(f"sigma: cell ({x:.6g}, {v:.6g}) differs by {err:.3g}")
    return fails


def structural_det(det, classes) -> list[str]:
    """det is exactly 1 on area-preserving cells and exactly 0 on singular
    ones (products of unit and zero factor determinants)."""
    fails = []
    n1 = int(np.sum(det[classes == AREA_PRESERVING] != 1.0))
    n0 = int(np.sum(det[classes == SINGULAR] != 0.0))
    if n1:
        fails.append(f"det: {n1} area-preserving cells with det != 1")
    if n0:
        fails.append(f"det: {n0} singular cells with det != 0")
    if not np.all(np.isin(classes, (0, 1, 2, 3))):
        fails.append("det: class codes outside 0..3")
    return fails


def tile_roundtrip(blob, spec, det, classes) -> list[str]:
    meta, det2, cls2 = vi.tile_from_bytes(blob)
    want = {"nx": spec.nx, "nv": spec.nv, "x_range": tuple(spec.x_range),
            "v_range": tuple(spec.v_range)}
    fails = []
    if meta != want:
        fails.append(f"tile: header {meta} != {want}")
    if det2.tobytes() != np.ascontiguousarray(det, dtype="<f8").tobytes():
        fails.append("tile: det grid does not round-trip")
    if not np.array_equal(cls2, classes):
        fails.append("tile: classes do not round-trip")
    return fails


def csv_rows(text, region, rows) -> list[str]:
    """The CSV has one row per cell, and the sampled rows carry the grid's
    values at full precision."""
    spec = region.spec
    lines = text.splitlines()
    fails = []
    if len(lines) != 1 + spec.nx * spec.nv:
        return [f"csv: {len(lines)} lines for {spec.nx}x{spec.nv} cells"]
    if lines[0] != "ix,iv,x,v,x_out,v_out,det,classification":
        fails.append(f"csv: header {lines[0]!r}")
    names = ("area_preserving", "contracting", "singular", "undefined")
    xs, vs = spec.xs(), spec.vs()
    for k in rows:
        iv, ix = divmod(int(k), spec.nx)
        row = next(csv.reader(io.StringIO(lines[1 + k])))
        want = [str(ix), str(iv)]
        got = row[:2]
        vals = [float(s) for s in row[2:7]]
        ref = [xs[ix], vs[iv], region.out_x[iv, ix], region.out_v[iv, ix],
               region.det[iv, ix]]
        same = all(a == b or (math.isnan(a) and math.isnan(b))
                   for a, b in zip(vals, ref))
        if got != want or not same \
                or row[7] != names[int(region.classes[iv, ix])]:
            fails.append(f"csv: row {k} {row} does not match the grid")
    return fails


def invariance_report(rep, min_checked=5000) -> list[str]:
    fails = []
    if rep.checked <= min_checked:
        fails.append(f"invariance: only {rep.checked} images checked")
    if not 0 <= rep.violations <= rep.checked \
            or not 0 <= rep.undefined_images <= rep.checked:
        fails.append(f"invariance: inconsistent counts {rep}")
    return fails


# ---------------------------------------------------------------------------
# islands
# ---------------------------------------------------------------------------

def seed_fixed_point(p, t0, seed, *, tol=1e-8) -> list[str]:
    """The closed-form orbit state is a fixed point of the map at phase t0
    with two impacts, no turning point and no stick."""
    res = vi.period_map(p, seed, t0)
    err = math.hypot(res.output[0] - seed[0], res.output[1] - seed[1])
    ev = res.event_summary
    fails = []
    if not err <= tol:
        fails.append(f"seed f={p.f}: residual {err:.3g}")
    if ev["impacts_left"] + ev["impacts_right"] != 2 or ev["turnings"] \
            or ev["sticks"]:
        fails.append(f"seed f={p.f}: events {ev}")
    return fails


def areas_non_increasing(fs, areas, errs) -> list[str]:
    order = np.argsort(fs)
    f, a, e = (np.asarray(z, dtype=float)[order] for z in (fs, areas, errs))
    return [f"islands: area {a[i + 1]:.4f} at f={f[i + 1]} exceeds "
            f"{a[i]:.4f} at f={f[i]} beyond the error bars"
            for i in range(len(f) - 1) if a[i + 1] > a[i] + e[i] + e[i + 1]]


def island_structure(res) -> list[str]:
    fails = []
    n = int(res.mask.sum())
    if n != res.n_cells or n == 0:
        fails.append(f"islands: {res.n_cells} cells, mask holds {n}")
    if res.area != res.n_cells * res.cell_area:
        fails.append("islands: area is not cells x cell area")
    if not res.mask[res.seed_cell]:
        fails.append("islands: seed cell outside the island")
    if not 0 <= res.boundary_cells <= res.n_cells:
        fails.append("islands: boundary count out of range")
    return fails


def impacts_only(p, t0, states, periods) -> list[str]:
    """Island cells, run through the oracle, meet nothing but impacts."""
    fails = []
    for x, v in states:
        orc = vi.oracle_simulate(p, vi.PhaseState(float(x), float(v), t0),
                                 periods * p.T,
                                 p.T / ORACLE_STEPS_PER_PERIOD)
        other = set(orc.signature()) - {"L", "R"}
        if other:
            fails.append(f"islands f={p.f}: cell ({x:.6g}, {v:.6g}) meets "
                         f"{sorted(other)} within {periods} periods")
    return fails


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

def closed_form_trace(p, formula) -> float:
    """Monodromy trace (h c - 2)^2 - 2 of the symmetric orbit, with
    h = m pi / omega and c = 2 F cos(psi + m pi) / v0."""
    m = formula.m
    h = m * math.pi / p.omega
    c = 2.0 * p.F * math.cos(formula.psi + m * math.pi) / formula.v0
    return (h * c - 2.0) ** 2 - 2.0


def branch_on_closed_form(p, points, m, *, tol=1e-6) -> list[str]:
    """Every continuation point lies within ``tol`` of a closed-form
    symmetric orbit state, and its trace within ``tol`` (relative, for
    traces beyond 1) of the closed-form trace of that orbit.

    A period-m orbit crosses the phase-0 section m times, at t = 0, T, ...,
    (m-1) T of the closed form; the point may sit at any of them."""
    fails = []
    for pt in points:
        pp = p.replace_friction(pt.f)
        best = None
        for branch in (1, 2):
            try:
                fo = vi.symmetric_orbit_formula(pp, branch, m)
            except vi.Nonexistence:
                continue
            tr = closed_form_trace(pp, fo)
            for j in range(m):
                st = vi.symmetric_orbit_state(pp, fo, j * pp.T)
                d = math.hypot(pt.state[0] - st.x, pt.state[1] - st.v)
                if best is None or d < best[0]:
                    best = (d, abs(pt.trace - tr) / max(1.0, abs(tr)))
        if best is None:
            fails.append(f"branch m={m}: no closed-form orbit at f={pt.f}")
        elif not (best[0] <= tol and best[1] <= tol):
            fails.append(f"branch m={m}: point at f={pt.f:.8f} is "
                         f"{best[0]:.3g} from the closed form, trace off "
                         f"by {best[1]:.3g}")
    return fails[:5]


def fold_at(fold, expected, *, tol=1e-4) -> list[str]:
    if fold is None:
        return [f"fold: none found (expected {expected:.8f})"]
    if not abs(fold.f_crit - expected) <= tol:
        return [f"fold: at {fold.f_crit:.8f}, expected {expected:.8f}"]
    return []


def sticking_end(p, points, *, width=0.06) -> list[str]:
    """The descending branch ends above the sticking boundary
    f_b = sqrt(4 F^2 - R^2 omega^4) / pi, within ``width`` of it."""
    f_b = math.sqrt(4.0 * p.F ** 2 - p.R ** 2 * p.omega ** 4) / math.pi
    f_end = points[-1].f
    if not f_b < f_end < f_b + width:
        return [f"sticking: branch ends at f={f_end:.6f}, boundary "
                f"{f_b:.6f}"]
    return []


def periodic_solution(orbit, p, m, *, tol=1e-10) -> list[str]:
    """A Newton solution of the k-period map is a converged center on the
    closed-form branch."""
    fails = []
    if not orbit.residual < tol:
        fails.append(f"newton: residual {orbit.residual:.3g}")
    if orbit.orbit_type is not vi.OrbitType.CENTER:
        fails.append(f"newton: orbit type {orbit.orbit_type}")
    fo = vi.symmetric_orbit_formula(p, 1, m)
    st = vi.symmetric_orbit_state(p, fo, orbit.t0)
    d = math.hypot(orbit.fixed_state[0] - st.x, orbit.fixed_state[1] - st.v)
    if not d <= 1e-6:
        fails.append(f"newton: {d:.3g} from the closed-form orbit")
    return fails


def nonexistence(p, m) -> list[str]:
    """Where m pi f / (2F) > 1 the period-m family must not exist."""
    if not m * math.pi * p.f / (2.0 * p.F) > 1.0:
        return [f"nonexistence: m pi f / 2F <= 1 at f={p.f}"]
    try:
        vi.symmetric_orbit_formula(p, 1, m)
    except vi.Nonexistence:
        return []
    return [f"nonexistence: period-{m} formula exists at f={p.f}"]


# ---------------------------------------------------------------------------
# wall-vanishing law
# ---------------------------------------------------------------------------

def rest_band_stays(p, states, periods) -> list[str]:
    """Rest states inside the band |x| > (2/pi) acos(f/F) stay at rest."""
    eta = (2.0 / math.pi) * math.acos(p.f / p.F)
    fails = []
    for x, t0 in states:
        if not abs(x) > eta:
            fails.append(f"rest: x={x} is outside the band |x| > {eta}")
            continue
        tr = vi.simulate(p, vi.PhaseState(float(x), 0.0, float(t0)),
                         periods * p.T)
        moved = any(e.kind is not vi.ResolvedKind.STICK_START
                    for e in tr.events)
        if tr.final.x != x or tr.final.v != 0.0 or moved:
            fails.append(f"rest: state at x={x:.6g}, t0={t0:.6g} moved to "
                         f"{tr.final}")
    return fails


def trajectory_vs_oracle(p, traj, periods, *, tol=1e-9) -> list[str]:
    """The simulated trajectory's state after ``periods`` periods and its
    events up to then agree with the oracle."""
    ini = traj.initial
    t1 = ini.t + periods * p.T
    orc = vi.oracle_simulate(p, ini, periods * p.T,
                             p.T / ORACLE_STEPS_PER_PERIOD)
    st = traj.state_at(t1)
    err = max(abs(st.x - orc.final.x), abs(st.v - orc.final.v))
    sig = traj.event_signature()[:sum(e.time <= t1 for e in traj.events)]
    fails = []
    if not err <= tol:
        fails.append(f"trajectory: state at {periods} periods differs by "
                     f"{err:.3g}")
    if sig != orc.signature():
        fails.append("trajectory: event sequence differs from the oracle")
    return fails
