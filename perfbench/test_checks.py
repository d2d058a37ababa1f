"""Self-test of the benchmark's output checks: each check passes on real
engine output and fails on a perturbed copy, so none is vacuous.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import vibroimpact as vi  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from spans import HIGHER_IS_BETTER, PER_LAYER_UNITS  # noqa: E402

FAST = workloads.fast_params(0.05)


@pytest.fixture(scope="module")
def region():
    return vi.classify_regions(FAST, vi.GridSpec((-1.0, 1.0), (-2.0, 2.0),
                                                 16, 16))


def _cells(region, classes=(0, 1)):
    rng = np.random.default_rng(5)
    idx = workloads._grid_sample(rng, region, 2, classes)
    return [np.array(a) for a in workloads._cell_states(region, idx)]


def test_oracle_agreement(region):
    cells, out, cls = _cells(region)
    assert checks.oracle_agreement(FAST, 0.0, cells, out, cls) == []
    moved = out.copy()
    moved[1, 0] += 1e-8
    assert checks.oracle_agreement(FAST, 0.0, cells, moved, cls)
    relabeled = cls.copy()
    relabeled[-1] = checks.SINGULAR
    assert checks.oracle_agreement(FAST, 0.0, cells, out, relabeled)


def test_sigma_equivariance(region):
    cells, out, cls = _cells(region)
    assert checks.sigma_equivariance(FAST, 0.0, cells, out, cls) == []
    moved = out.copy()
    moved[0, 1] += 1e-11
    assert checks.sigma_equivariance(FAST, 0.0, cells, moved, cls)
    relabeled = cls.copy()
    relabeled[0] = checks.UNDEFINED
    assert checks.sigma_equivariance(FAST, 0.0, cells, out, relabeled)


def test_structural_det():
    det = np.array([1.0, 0.0, 0.4, math.nan])
    cls = np.array([0, 2, 1, 3], dtype=np.uint8)
    assert checks.structural_det(det, cls) == []
    assert checks.structural_det(det + [1e-15, 0, 0, 0], cls)
    assert checks.structural_det(det + [0, 1e-300, 0, 0], cls)
    assert checks.structural_det(det, cls + [0, 0, 0, 4])


def test_tile_roundtrip(region):
    blob = region.to_tile_bytes()
    args = (region.spec, region.det, region.classes)
    assert checks.tile_roundtrip(blob, *args) == []
    bad = bytearray(blob)
    bad[60] ^= 1
    assert checks.tile_roundtrip(bytes(bad), *args)
    other = dataclasses.replace(region.spec, nx=8, nv=32)
    assert checks.tile_roundtrip(blob, other, region.det, region.classes)


def test_csv_rows(region):
    text = region.csv()
    rows = [0, 17, 255]
    assert checks.csv_rows(text, region, rows) == []
    lines = text.splitlines()
    cells = lines[18].split(",")
    cells[4] = repr(float(cells[4]) + 1e-12)
    lines[18] = ",".join(cells)
    assert checks.csv_rows("\n".join(lines) + "\n", region, rows)
    assert checks.csv_rows("\n".join(lines[:-1]) + "\n", region, rows)


def test_invariance_report():
    rep = vi.InvarianceReport(checked=6000, violations=10,
                              boundary_excluded=5, undefined_images=0)
    assert checks.invariance_report(rep) == []
    assert checks.invariance_report(dataclasses.replace(rep, checked=5000))
    assert checks.invariance_report(dataclasses.replace(rep, violations=-1))


@pytest.fixture(scope="module")
def islands():
    wl = workloads.Islands()
    return wl.setup()["rungs"][0.3]


def test_seed_fixed_point(islands):
    s = islands
    assert checks.seed_fixed_point(s["p"], s["t0"], s["seed"]) == []
    x, v = s["seed"]
    assert checks.seed_fixed_point(s["p"], s["t0"], (x, v + 1e-6))


def test_areas_non_increasing():
    assert checks.areas_non_increasing([0.2, 0.3], [1.5, 1.6], [0.1, 0.1]) \
        == []
    assert checks.areas_non_increasing([0.3, 0.2], [1.9, 1.5], [0.1, 0.1])


def test_island_structure_and_impacts(islands):
    s = islands
    res = vi.island_area(s["p"], s["seed"], t0=s["t0"], n_periods=20,
                         box=s["box"], nx=9, nv=9, mc_samples=200,
                         mc_forward=10)
    assert checks.island_structure(res) == []
    assert checks.island_structure(dataclasses.replace(res, n_cells=1))
    assert checks.island_structure(dataclasses.replace(res, area=res.area * 2))
    assert checks.impacts_only(s["p"], s["t0"], [s["seed"]], 5) == []
    # a slow state in mid-chamber turns within the first period
    assert checks.impacts_only(s["p"], s["t0"], [(0.0, 0.05)], 5)


@pytest.fixture(scope="module")
def branch3():
    p3 = workloads.fast_params(0.2)
    orbit = vi.symmetric_orbit(p3, 1, m=3)
    res = vi.continue_in_friction(p3, orbit, f_min=0.19, f_max=0.35, k=3,
                                  ds=1e-3)
    return p3, orbit, res


def test_branch_on_closed_form(branch3):
    p3, _, res = branch3
    assert checks.branch_on_closed_form(p3, res.points, 3) == []
    pt = res.points[5]
    shifted = dataclasses.replace(pt, state=(pt.state[0], pt.state[1] + 1e-5))
    assert checks.branch_on_closed_form(p3, [shifted], 3)
    traced = dataclasses.replace(pt, trace=pt.trace + 1e-5)
    assert checks.branch_on_closed_form(p3, [traced], 3)


def test_fold_at(branch3):
    p3, _, res = branch3
    want = 2.0 * p3.F / (3.0 * math.pi)
    assert checks.fold_at(res.fold, want) == []
    assert checks.fold_at(dataclasses.replace(res.fold,
                                              f_crit=want + 2e-4), want)
    assert checks.fold_at(None, want)


def test_periodic_solution(branch3):
    p3, orbit, _ = branch3
    assert checks.periodic_solution(orbit, p3, 3) == []
    assert checks.periodic_solution(dataclasses.replace(orbit, residual=1e-6),
                                    p3, 3)
    assert checks.periodic_solution(
        dataclasses.replace(orbit, orbit_type=vi.OrbitType.SADDLE), p3, 3)


def test_sticking_end_and_nonexistence():
    p = vi.make_params(F=1.0, f=0.55, omega=1.0, l=0.0, r=1.6)
    f_b = math.sqrt(4.0 - 1.6 ** 2) / math.pi

    def ends(f):
        return [vi.BranchPoint(f=f, state=(0.0, 1.0), trace=0.0, det=1.0,
                               orbit_type=vi.OrbitType.SADDLE,
                               signature=("R", "L"))]
    assert checks.sticking_end(p, ends(f_b + 0.03)) == []
    assert checks.sticking_end(p, ends(f_b + 0.07))
    assert checks.sticking_end(p, ends(f_b - 0.01))
    assert checks.nonexistence(workloads.fast_params(0.3), 3) == []
    assert checks.nonexistence(workloads.fast_params(0.2), 3)


@pytest.fixture(scope="module")
def wall_vanishing():
    return workloads.WallVanishing().setup()["p"]


def test_rest_band_stays(wall_vanishing):
    p = wall_vanishing
    rest = [(0.95, 0.1), (-0.97, 0.7)]
    assert checks.rest_band_stays(p, rest, 3) == []
    assert checks.rest_band_stays(p, [(0.5, 0.1)], 3)
    uniform = workloads.fast_params(p.f)
    assert checks.rest_band_stays(uniform, rest, 3)


def test_trajectory_vs_oracle(wall_vanishing):
    p = wall_vanishing
    start = vi.PhaseState(0.0, 0.8, 0.0)
    traj = vi.simulate(p, start, 2 * p.T)
    assert checks.trajectory_vs_oracle(p, traj, 2) == []
    off = vi.simulate(p, vi.PhaseState(0.0, 0.8 + 1e-7, 0.0), 2 * p.T)
    assert checks.trajectory_vs_oracle(
        p, dataclasses.replace(off, initial=start), 2)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "job_s", "cpu_s", "peak_rss_mb"]
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == {k: (u, "higher" if k in HIGHER_IS_BETTER else "lower")
                     for k, u in PER_LAYER_UNITS.items()}


def test_sampler_takes_its_bursts_out_of_the_time():
    sampler = calibrate.Sampler(interval=0.01)
    with sampler:
        c0, t0 = sampler.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        c1, t1 = sampler.clock(), time.perf_counter()
    factor, handler_s = sampler.take()
    assert factor > 0.0 and handler_s > 0.0
    # the sampler's clock stood still for exactly the handlers' time, give
    # or take one burst fired between the last reading and the exit
    assert (t1 - t0) - (c1 - c0) == pytest.approx(handler_s, abs=5e-3)
    assert sampler.take()[1] == 0.0   # take() starts a new stretch
