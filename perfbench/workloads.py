"""The four benchmark workloads.

Each workload has a set-up (``setup()``: params, grids and closed-form
seeds), a job (``steps``: public vibroimpact calls, run in order, each
storing its output under its key), the checks of its outputs
(``check()``), a digest of the outputs that must not change between rounds
(``digest()``) and a few lines of summary (``report()``).  The job's
inputs are fixed; ``--seed`` draws the cells and states the checks sample.
All grid calls use ``workers=1``: a process pool on two shared cores would
measure the scheduler rather than the program.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import vibroimpact as vi

import checks

TWO_PI = 2.0 * math.pi


def fast_params(f: float) -> vi.Params:
    """Fast forcing between unit walls (recipes/fast_regions.cfg, ladder)."""
    return vi.make_params(F=1.0, f=f, omega=TWO_PI, l=-1.0, r=1.0)


def _sample(rng, idx, n):
    idx = np.asarray(idx)
    return idx if len(idx) <= n else np.sort(rng.choice(idx, n, replace=False))


def _grid_sample(rng, region, per_class, classes=(0, 1, 2)):
    """Flat indices of up to ``per_class`` cells of each listed class."""
    flat = region.classes.ravel()
    return np.concatenate([_sample(rng, np.flatnonzero(flat == c), per_class)
                           for c in classes]).astype(int)


def _cell_states(region, idx):
    cells = region.spec.cells()[idx]
    out = np.column_stack([region.out_x.ravel()[idx],
                           region.out_v.ravel()[idx]])
    return cells, out, region.classes.ravel()[idx]


class Regions:
    """Fast-forcing region map (F=1, f=0.05, omega=2 pi, walls +-1) on the
    400x400 grid of recipes/fast_regions.cfg, its forward-invariance
    check, and both output formats."""

    name = "regions"
    steps = (
        ("region", lambda i, o: vi.classify_regions(i["p"], i["grid"],
                                                    workers=1)),
        ("invariance", lambda i, o: vi.invariance_check(i["p"], o["region"],
                                                        workers=1)),
        ("csv", lambda i, o: o["region"].csv()),
        ("tile", lambda i, o: o["region"].to_tile_bytes()),
    )

    def setup(self):
        return {"p": fast_params(0.05),
                "grid": vi.GridSpec((-1.0, 1.0), (-2.0, 2.0), 400, 400)}

    def check(self, inputs, out, rng):
        p, rg = inputs["p"], out["region"]
        t0 = rg.spec.t0
        fails = checks.structural_det(rg.det, rg.classes)
        cells, images, cls = _cell_states(rg, _grid_sample(rng, rg, 20))
        fails += checks.oracle_agreement(p, t0, cells, images, cls)
        idx = _grid_sample(rng, rg, 50, classes=(0, 1, 2, 3))
        fails += checks.sigma_equivariance(p, t0, *_cell_states(rg, idx))
        fails += checks.tile_roundtrip(out["tile"], rg.spec, rg.det, rg.classes)
        rows = rng.choice(rg.classes.size, 200, replace=False)
        fails += checks.csv_rows(out["csv"], rg, rows)
        fails += checks.invariance_report(out["invariance"])
        return fails

    def digest(self, out):
        rep = out["invariance"]
        h = hashlib.sha256(out["csv"].encode())
        h.update(out["tile"])
        h.update(repr((rep.checked, rep.violations, rep.undefined_images,
                       rep.boundary_excluded)).encode())
        return h.hexdigest()

    def report(self, out):
        rep = out["invariance"]
        counts = np.bincount(out["region"].classes.ravel(), minlength=4)
        return [f"classes (area-preserving, contracting, singular, "
                f"undefined): {counts.tolist()}",
                f"invariance: {rep.violations}/{rep.checked} images "
                f"area-preserving (fraction {rep.violation_fraction:.4f}; "
                f"the 1% reference target is not asserted)",
                f"outputs: csv {len(out['csv'])} bytes, tile "
                f"{len(out['tile'])} bytes"]


# Two rungs of the f ladder {0.005, ..., 0.3}: the two cheapest, which
# together fill one run, on either side of the period-3 fold at 2/(3 pi).
ISLAND_RUNGS = (0.2, 0.3)
ISLAND_ORACLE_CELLS = 3
ISLAND_ORACLE_PERIODS = 100


def _island(i, f):
    s = i["rungs"][f]
    return vi.island_area(s["p"], s["seed"], t0=s["t0"], n_periods=300,
                          box=s["box"], nx=33, nv=33, mc_samples=8000,
                          mc_forward=150, forward_periods=5, rng_seed=97)


class Islands:
    """AC-08 island measurement at the T/4 strobe phase, seeded by the
    closed-form symmetric orbit, on the rungs ISLAND_RUNGS."""

    name = "islands"
    steps = tuple((f"f={f}", lambda i, o, f=f: _island(i, f))
                  for f in ISLAND_RUNGS)

    def setup(self):
        rungs = {}
        for f in ISLAND_RUNGS:
            p = fast_params(f)
            t0 = 0.25 * p.T
            c = vi.symmetric_orbit_state(p, vi.symmetric_orbit_formula(p, 1),
                                         t0)
            box = (max(p.l, c.x - 1.05), min(p.r, c.x + 1.05),
                   c.v - 1.6, c.v + 1.6)
            rungs[f] = {"p": p, "t0": t0, "seed": (c.x, c.v), "box": box}
        return {"rungs": rungs}

    def check(self, inputs, out, rng):
        fails = []
        for f in ISLAND_RUNGS:
            s, res = inputs["rungs"][f], out[f"f={f}"]
            fails += checks.seed_fixed_point(s["p"], s["t0"], s["seed"])
            fails += checks.island_structure(res)
            bx0, bx1, bv0, bv1 = res.box
            nv, nx = res.mask.shape
            dx, dv = (bx1 - bx0) / nx, (bv1 - bv0) / nv
            js, is_ = np.nonzero(res.mask)
            pick = _sample(rng, np.arange(len(js)), ISLAND_ORACLE_CELLS)
            states = [(bx0 + dx * (is_[k] + 0.5), bv0 + dv * (js[k] + 0.5))
                      for k in pick]
            fails += checks.impacts_only(s["p"], s["t0"], states,
                                         ISLAND_ORACLE_PERIODS)
        res = [out[f"f={f}"] for f in ISLAND_RUNGS]
        fails += checks.areas_non_increasing(ISLAND_RUNGS,
                                             [r.area for r in res],
                                             [r.stderr for r in res])
        return fails

    def digest(self, out):
        h = hashlib.sha256()
        for f in ISLAND_RUNGS:
            r = out[f"f={f}"]
            h.update(r.mask.tobytes())
            h.update(repr((r.area, r.mc_area, r.forward_retention)).encode())
        return h.hexdigest()

    def report(self, out):
        return [f"island f={f}: area {out[f'f={f}'].area:.4f} "
                f"+- {out[f'f={f}'].stderr:.4f} "
                f"({out[f'f={f}'].n_cells} cells)" for f in ISLAND_RUNGS]


# Point budget of the descending branch into the sticking boundary.  The
# whole branch has ~2,700 points; the first ~70 take it from f=0.55 to
# f~0.419, the rest crawl toward its end at f~0.4178 with stalling
# correctors.  300 points keep ~230 of those stalled steps.
STICK_POINTS = 300


class Branch:
    """The orbits layer: the AC-02 wide-chamber branch through its fold,
    the descending branch into the sticking boundary (F=1, omega=1, R=1.6),
    and the AC-08 period-3 Newton solve and continuation at f=0.2."""

    name = "branch"
    steps = (
        ("wide", lambda i, o: vi.continue_in_friction(
            i["wide"], i["wide_orbit"], f_min=1e-4, ds=2e-3)),
        ("sticking", lambda i, o: vi.continue_in_friction(
            i["stick"], i["stick_orbit"], f_min=0.0, f_max=0.6,
            direction=-1, ds=1e-3, max_points=STICK_POINTS)),
        ("newton3", lambda i, o: vi.find_periodic(
            i["p3"], i["orbit3"].fixed_state, 3)),
        ("branch3", lambda i, o: vi.continue_in_friction(
            i["p3"], i["orbit3"], f_min=0.19, f_max=0.35, k=3, ds=1e-3)),
    )

    def setup(self):
        wide = vi.make_params(F=1.0, f=0.01, omega=1.0, l=0.0, r=20.0)
        stick = vi.make_params(F=1.0, f=0.55, omega=1.0, l=0.0, r=1.6)
        p3 = fast_params(0.2)
        return {"wide": wide, "wide_orbit": vi.symmetric_orbit(wide, 1),
                "stick": stick, "stick_orbit": vi.symmetric_orbit(stick, 2),
                "p3": p3, "orbit3": vi.symmetric_orbit(p3, 1, m=3)}

    def check(self, inputs, out, rng):
        wide, p3 = inputs["wide"], inputs["p3"]
        fails = checks.branch_on_closed_form(wide, out["wide"].points, 1)
        fails += checks.fold_at(out["wide"].fold, 2.0 * wide.F / math.pi)
        fails += checks.branch_on_closed_form(inputs["stick"],
                                              out["sticking"].points, 1)
        fails += checks.sticking_end(inputs["stick"], out["sticking"].points)
        fails += checks.periodic_solution(out["newton3"], p3, 3)
        fails += checks.branch_on_closed_form(p3, out["branch3"].points, 3)
        fails += checks.fold_at(out["branch3"].fold,
                                2.0 * p3.F / (3.0 * math.pi))
        fails += checks.nonexistence(fast_params(0.3), 3)
        return fails

    def digest(self, out):
        text = "".join(out[k].csv() for k in ("wide", "sticking", "branch3"))
        o = out["newton3"]
        return hashlib.sha256((text + repr(o.fixed_state)).encode()).hexdigest()

    def report(self, out):
        return [f"{k}: {len(out[k].points)} points, ends at f="
                f"{out[k].points[-1].f:.6f} ({out[k].termination})"
                + (f", fold {out[k].fold.f_crit:.10f}" if out[k].fold else "")
                for k in ("wide", "sticking", "branch3")]


WV_PERIODS = 50


class WallVanishing:
    """recipes/wall_vanishing.cfg (F=1, f=0.1, omega=2 pi, force
    F cos(pi x / 2) cos(omega t)): its region map on a 20x20 grid over the
    recipe's window, and the recipe's 50-period simulate run."""

    name = "wall_vanishing"
    steps = (
        ("region", lambda i, o: vi.classify_regions(i["p"], i["grid"],
                                                    workers=1)),
        ("trajectory", lambda i, o: vi.simulate(
            i["p"], vi.PhaseState(0.0, 0.8, 0.0), WV_PERIODS * i["p"].T)),
    )

    def setup(self):
        p = vi.make_params(F=1.0, f=0.1, omega=TWO_PI, l=-1.0, r=1.0,
                           force_law="wall_vanishing")
        return {"p": p, "grid": vi.GridSpec((-1.0, 1.0), (-1.5, 1.5), 20, 20),
                "band": vi.sticking_band(p)}

    def check(self, inputs, out, rng):
        p, rg = inputs["p"], out["region"]
        t0 = rg.spec.t0
        fails = checks.structural_det(rg.det, rg.classes)
        cells, images, cls = _cell_states(rg, _grid_sample(rng, rg, 4))
        fails += checks.oracle_agreement(p, t0, cells, images, cls)
        idx = _grid_sample(rng, rg, 6, classes=(0, 1, 2, 3))
        fails += checks.sigma_equivariance(p, t0, *_cell_states(rg, idx))
        eta = inputs["band"].eta
        rest = [(s * rng.uniform(eta, 1.0), rng.uniform(0.0, p.T))
                for s in rng.choice([-1.0, 1.0], 8)]
        fails += checks.rest_band_stays(p, rest, 20)
        fails += checks.trajectory_vs_oracle(p, out["trajectory"], 10)
        return fails

    def digest(self, out):
        rg, tr = out["region"], out["trajectory"]
        h = hashlib.sha256(rg.det.tobytes() + rg.classes.tobytes()
                           + rg.out_x.tobytes() + rg.out_v.tobytes())
        h.update(tr.to_json().encode())
        return h.hexdigest()

    def report(self, out):
        counts = np.bincount(out["region"].classes.ravel(), minlength=4)
        tr = out["trajectory"]
        return [f"classes: {counts.tolist()}",
                f"trajectory: {len(tr.events)} events, final {tr.final}"]


WORKLOADS = {w.name: w for w in (Regions(), Islands(), Branch(),
                                 WallVanishing())}
