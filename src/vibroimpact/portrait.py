"""Grid-based global phase portraits: stroboscopic orbit clouds, cellwise
contraction maps (area-preserving vs contracting regions), long-run
attractor verdicts, and invariant-island area estimates.

All grid evaluations iterate the period map with the phase reset to t0
each period (T-periodicity makes this exact), so results are independent
of accumulated absolute time and byte-stable for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .model import Params
from .simulator import SimulationError
from .strobemap import BATCH_CELLS, CLASS_CODE, period_map, period_map_batch
# unused here; a module attribute that perfbench/spans.py wraps by name
from .strobemap import period_map_jacobian  # noqa: F401


class GridError(ValueError):
    pass


class IslandSeedError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    x_range: tuple[float, float]
    v_range: tuple[float, float]
    nx: int
    nv: int
    t0: float = 0.0
    iterations: int = 2000
    transient: int = 0

    def __post_init__(self):
        if self.nx < 2 or self.nv < 2:
            raise GridError("need nx, nv >= 2")
        if not (self.x_range[0] < self.x_range[1]
                and self.v_range[0] < self.v_range[1]):
            raise GridError("ranges must be increasing")

    def validate_against(self, p: Params) -> None:
        if self.x_range[0] < p.l - 1e-12 or self.x_range[1] > p.r + 1e-12:
            raise GridError("x range extends beyond the walls")

    @property
    def dx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.nx

    @property
    def dv(self) -> float:
        return (self.v_range[1] - self.v_range[0]) / self.nv

    def xs(self) -> np.ndarray:
        return self.x_range[0] + self.dx * (np.arange(self.nx) + 0.5)

    def vs(self) -> np.ndarray:
        return self.v_range[0] + self.dv * (np.arange(self.nv) + 0.5)

    def cells(self) -> np.ndarray:
        """(nx*nv, 2) cell centers, v-major row order (x fastest)."""
        xs, vs = self.xs(), self.vs()
        out = np.empty((self.nx * self.nv, 2))
        out[:, 0] = np.tile(xs, self.nv)
        out[:, 1] = np.repeat(vs, self.nx)
        return out


# ---------------------------------------------------------------------------
# stroboscopic clouds
# ---------------------------------------------------------------------------

@dataclass
class CloudResult:
    spec: GridSpec
    seeds: np.ndarray               # (n_seeds, 2)
    points: list[np.ndarray]        # per seed: (n_kept, 2)
    errors: dict[int, str]

    def csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["seed", "iteration", "x", "v"])
        for i, pts in enumerate(self.points):
            for j, (x, v) in enumerate(pts):
                w.writerow([i, j, f"{x:.17g}", f"{v:.17g}"])
        return buf.getvalue()


def iterate_cloud(p: Params, grid: GridSpec, seeds: np.ndarray | None = None,
                  *, event_cap: int = 100_000) -> CloudResult:
    """Per-seed stroboscopic sequences after the transient skip."""
    grid.validate_against(p)
    if seeds is None:
        seeds = grid.cells()
    points: list[np.ndarray] = []
    errors: dict[int, str] = {}
    for i, (x, v) in enumerate(np.asarray(seeds, dtype=float)):
        z = (float(x), float(v))
        kept = np.empty((grid.iterations, 2))
        n_kept = 0
        try:
            for n in range(grid.transient + grid.iterations):
                res = period_map(p, z, grid.t0, event_cap=event_cap)
                z = res.output
                if n >= grid.transient:
                    kept[n_kept] = z
                    n_kept += 1
        except SimulationError as exc:
            errors[i] = str(exc)
        points.append(kept[:n_kept].copy())
    return CloudResult(spec=grid, seeds=np.asarray(seeds, dtype=float),
                       points=points, errors=errors)


# ---------------------------------------------------------------------------
# one-period region classification
# ---------------------------------------------------------------------------

_CODE_NAME = {code: cls.value for cls, code in CLASS_CODE.items()}


@dataclass
class RegionGrid:
    spec: GridSpec
    det: np.ndarray            # (nv, nx)
    classes: np.ndarray        # (nv, nx) uint8, codes per CLASS_CODE
    out_x: np.ndarray
    out_v: np.ndarray

    def dissipative_mask(self) -> np.ndarray:
        return (self.classes == 1) | (self.classes == 2)

    def csv(self) -> str:
        # One join over pieces of three cells.  Pieces this small (under
        # 512 bytes) live in Python's small-object arenas, which are handed
        # back to the system once empty; row-sized pieces or a StringIO
        # buffer would stay behind as malloc heap (+7 to +12 MB resident
        # from the second 400x400 grid on).  Rows are formatted one v-row
        # at a time: a whole-grid tolist() would peak higher still.
        xs = ["%.17g" % x for x in self.spec.xs().tolist()]
        names = [_CODE_NAME[c] for c in range(len(_CODE_NAME))]
        fmt = "%d,%d,%s,%s,%.17g,%.17g,%.17g,%s\n"
        pieces = ["ix,iv,x,v,x_out,v_out,det,classification\n"]
        for iv, v in enumerate(self.spec.vs().tolist()):
            cells = [fmt % row for row in zip(
                range(len(xs)), repeat(iv), xs, repeat("%.17g" % v),
                self.out_x[iv].tolist(), self.out_v[iv].tolist(),
                self.det[iv].tolist(),
                map(names.__getitem__, self.classes[iv].tolist()))]
            pieces += ["".join(cells[i:i + 3]) for i in range(0, len(cells), 3)]
        return "".join(pieces)

    def to_tile_bytes(self) -> bytes:
        """Compact binary tile: magic 'VIPT', version, dims, ranges, then the
        det grid as float64 row-major (v-major) and class codes as uint8."""
        head = struct.pack("<4sIII", b"VIPT", 1, self.spec.nx, self.spec.nv)
        rng = struct.pack("<4d", *self.spec.x_range, *self.spec.v_range)
        return b"".join([head, rng,
                         np.ascontiguousarray(self.det, dtype="<f8"),
                         np.ascontiguousarray(self.classes, dtype=np.uint8)])


def tile_from_bytes(blob: bytes) -> tuple[dict, np.ndarray, np.ndarray]:
    magic, version, nx, nv = struct.unpack_from("<4sIII", blob, 0)
    if magic != b"VIPT" or version != 1:
        raise GridError("not a version-1 portrait tile")
    x0, x1, v0, v1 = struct.unpack_from("<4d", blob, 16)
    off = 16 + 32
    det = np.frombuffer(blob, dtype="<f8", count=nx * nv,
                        offset=off).reshape(nv, nx)
    cls = np.frombuffer(blob, dtype=np.uint8, count=nx * nv,
                        offset=off + 8 * nx * nv).reshape(nv, nx)
    return ({"nx": nx, "nv": nv, "x_range": (x0, x1), "v_range": (v0, v1)},
            det.copy(), cls.copy())


def _region_chunk(args):
    p, t0, cells, event_cap = args
    b = period_map_batch(p, cells[:, 0], cells[:, 1], t0, event_cap=event_cap)
    return b.det, b.code, b.out_x, b.out_v


def _map_cells(p: Params, n: int, cells_at, t0: float, workers: int,
               event_cap: int):
    """det, class code, out_x and out_v of n cells, where ``cells_at(a, b)``
    gives cells a..b-1 as an (m, 2) array.  Cells are made and mapped one
    piece at a time, so no grid-sized temporaries are held."""
    det, out_x, out_v = np.empty(n), np.empty(n), np.empty(n)
    code = np.empty(n, dtype=np.uint8)
    if workers > 1 and n >= 4 * workers:
        edges = np.linspace(0, n, workers * 8 + 1).astype(int).tolist()
        spans = list(zip(edges[:-1], edges[1:]))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_region_chunk,
                                [(p, t0, cells_at(a, b), event_cap)
                                 for a, b in spans]))
    else:
        spans = [(a, min(a + BATCH_CELLS, n)) for a in range(0, n, BATCH_CELLS)]
        parts = (_region_chunk((p, t0, cells_at(a, b), event_cap))
                 for a, b in spans)
    for (a, b), part in zip(spans, parts):
        det[a:b], code[a:b], out_x[a:b], out_v[a:b] = part
    return det, code, out_x, out_v


def classify_regions(p: Params, grid: GridSpec, *, workers: int = 1,
                     event_cap: int = 200_000) -> RegionGrid:
    """Cellwise one-period determinant and contraction class."""
    grid.validate_against(p)
    xs, vs = grid.xs(), grid.vs()

    def cells_at(a, b):   # rows of grid.cells()
        k = np.arange(a, b)
        return np.column_stack([xs[k % grid.nx], vs[k // grid.nx]])

    det, code, out_x, out_v = _map_cells(p, grid.nx * grid.nv, cells_at,
                                         grid.t0, workers, event_cap)
    shape = (grid.nv, grid.nx)
    return RegionGrid(spec=grid, det=det.reshape(shape),
                      classes=code.reshape(shape), out_x=out_x.reshape(shape),
                      out_v=out_v.reshape(shape))


@dataclass(frozen=True)
class InvarianceReport:
    checked: int
    violations: int
    boundary_excluded: int
    undefined_images: int

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.checked if self.checked else 0.0


def invariance_check(p: Params, region: RegionGrid, *, workers: int = 1,
                     event_cap: int = 200_000) -> InvarianceReport:
    """Map every dissipative cell forward one period and re-classify the
    image point; a violation is an image that classifies area-preserving.

    Dissipative cells with a non-dissipative 8-neighbor (or on the grid
    edge) sit within one cell of the region boundary and are excluded;
    images are classified at their exact landing point, so membership does
    not depend on the grid window.
    """
    mask = region.dissipative_mask()
    interior = np.logical_and.reduce(_neighbourhood(mask))
    ivs, ixs = np.nonzero(interior)
    pts = np.column_stack([region.out_x[ivs, ixs], region.out_v[ivs, ixs]])
    if len(pts) == 0:
        return InvarianceReport(0, 0, int(mask.sum()), 0)
    codes = _map_cells(p, len(pts), lambda a, b: pts[a:b], region.spec.t0,
                       workers, event_cap)[1]
    violations = int(np.sum(codes == 0))
    undefined = int(np.sum(codes == 3))
    return InvarianceReport(checked=len(pts), violations=violations,
                            boundary_excluded=int(mask.sum()) - len(pts),
                            undefined_images=undefined)


# ---------------------------------------------------------------------------
# long-run verdicts
# ---------------------------------------------------------------------------

class Verdict(str, Enum):
    ISLAND = "island"
    NO_IMPACT_LINE = "no_impact_line"
    PERIODIC_ORBIT = "periodic_orbit"
    STICKING_TRANSIENT = "sticking_transient"
    ESCAPED = "escaped_budget"


@dataclass(frozen=True)
class CellVerdict:
    kind: Verdict
    periods_used: int
    final_state: tuple[float, float]
    orbit_id: int | None = None     # PERIODIC_ORBIT: registry index
    orbit_period: int | None = None
    det_last: float = math.nan


class AttractorRegistry:
    """Collects converged cycles so distinct cells attracted to the same
    orbit share one id (two cycles match within MATCH_TOL)."""

    def __init__(self):
        self.orbits: list[tuple[int, np.ndarray]] = []

    def identify(self, k: int, cycle: np.ndarray) -> int:
        for i, (kk, states) in enumerate(self.orbits):
            if kk != k:
                continue
            d = min(np.hypot(*(states - cycle[0]).T))
            if d < MATCH_TOL:
                return i
        self.orbits.append((k, cycle.copy()))
        return len(self.orbits) - 1


MATCH_TOL = 1e-5
CONVERGE_TOL = 1e-9
CONVERGE_RUNS = 10
MAX_CYCLE = 16
NO_IMPACT_VTOL = 1e-8
NO_IMPACT_QUIET = 10


def classify_cell(p: Params, x: float, v: float, t0: float = 0.0, *,
                  budget: int = 2000, registry: AttractorRegistry | None = None,
                  event_cap: int = 100_000) -> CellVerdict:
    """Iterate the period map and classify the seed's long-run fate.

    island: no turning/stick/grazing over the whole budget.
    no_impact_line: converged with stroboscopic |v| < 1e-8 and no impacts
        over the last 10 periods (the family of impact-free solutions).
    periodic_orbit: converged to a fixed point or cycle (period <= 16).
    sticking_transient: budget exhausted after stick events.
    escaped_budget: budget exhausted, no convergence (e.g. chaotic sea).
    """
    z = (float(x), float(v))
    hist = np.empty((budget + 1, 2))
    hist[0] = z
    runs = np.zeros(MAX_CYCLE + 1, dtype=int)
    impacts_recent = []
    island_ok = True
    stick_seen = False
    det_last = math.nan
    for n in range(1, budget + 1):
        try:
            res = period_map(p, z, t0, event_cap=event_cap)
        except SimulationError:
            return CellVerdict(Verdict.STICKING_TRANSIENT if stick_seen
                               else Verdict.ESCAPED, n, z, det_last=det_last)
        c = res.event_summary
        det_last = res.det
        dissip = c["turnings"] + c["sticks"] + c["grazings"]
        if dissip:
            island_ok = False
        if c["sticks"]:
            stick_seen = True
        impacts_recent.append(c["impacts_left"] + c["impacts_right"])
        if len(impacts_recent) > NO_IMPACT_QUIET:
            impacts_recent.pop(0)
        z = res.output
        hist[n] = z
        for k in range(1, min(MAX_CYCLE, n) + 1):
            if abs(z[0] - hist[n - k][0]) < CONVERGE_TOL \
                    and abs(z[1] - hist[n - k][1]) < CONVERGE_TOL:
                runs[k] += 1
            else:
                runs[k] = 0
            if runs[k] >= CONVERGE_RUNS:
                if island_ok:
                    return CellVerdict(Verdict.ISLAND, n, z, orbit_period=k,
                                       det_last=det_last)
                if abs(z[1]) < NO_IMPACT_VTOL and sum(impacts_recent) == 0:
                    return CellVerdict(Verdict.NO_IMPACT_LINE, n, z,
                                       det_last=det_last)
                oid = None
                if registry is not None:
                    cycle = hist[n - k + 1:n + 1]
                    oid = registry.identify(k, cycle)
                return CellVerdict(Verdict.PERIODIC_ORBIT, n, z, orbit_id=oid,
                                   orbit_period=k, det_last=det_last)
    if island_ok:
        return CellVerdict(Verdict.ISLAND, budget, z, det_last=det_last)
    if stick_seen:
        return CellVerdict(Verdict.STICKING_TRANSIENT, budget, z,
                           det_last=det_last)
    return CellVerdict(Verdict.ESCAPED, budget, z, det_last=det_last)


def classify_cells(p: Params, grid: GridSpec, *,
                   registry: AttractorRegistry | None = None,
                   event_cap: int = 100_000) -> list[CellVerdict]:
    """Verdicts for every grid cell (v-major order, x fastest)."""
    grid.validate_against(p)
    if registry is None:
        registry = AttractorRegistry()
    return [classify_cell(p, x, v, grid.t0, budget=grid.iterations,
                          registry=registry, event_cap=event_cap)
            for x, v in grid.cells()]


def verdicts_csv(grid: GridSpec, verdicts: list[CellVerdict]) -> str:
    """Verdict table: cell index, coordinates, outcome, diagnostics."""
    cells = grid.cells()
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["cell", "x", "v", "verdict", "orbit_id", "orbit_period",
                "periods_used", "det_last"])
    for i, ((x, v), cv) in enumerate(zip(cells, verdicts)):
        w.writerow([i, f"{x:.17g}", f"{v:.17g}", cv.kind.value,
                    "" if cv.orbit_id is None else cv.orbit_id,
                    "" if cv.orbit_period is None else cv.orbit_period,
                    cv.periods_used, f"{cv.det_last:.17g}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# island area
# ---------------------------------------------------------------------------

def _neighbourhood(mask: np.ndarray) -> list[np.ndarray]:
    """The 3x3 neighbourhood of every cell as nine shifted views of the
    mask, padded with False beyond the grid edges (no wrap-around)."""
    nv, nx = mask.shape
    pad = np.pad(mask, 1, constant_values=False)
    return [pad[1 + dj:1 + dj + nv, 1 + di:1 + di + nx]
            for dj in (-1, 0, 1) for di in (-1, 0, 1)]


def _iterate_batch(p: Params, xs, vs, t0: float, n_periods: int,
                   event_cap: int, stays) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """Iterate the period map on many states at once.  After each period
    ``stays(batch)`` picks the cells that go on; the others drop out.
    Returns the last states and the mask of cells that stayed throughout."""
    x = np.array(xs, dtype=float)
    v = np.array(vs, dtype=float)
    idx = np.arange(len(x))
    for _ in range(n_periods):
        if not idx.size:
            break
        b = period_map_batch(p, x[idx], v[idx], t0, event_cap=event_cap)
        x[idx], v[idx] = b.out_x, b.out_v
        idx = idx[stays(b)]
    alive = np.zeros(len(x), dtype=bool)
    alive[idx] = True
    return x, v, alive


def _island_cells(p: Params, xs, vs, t0: float, n_periods: int,
                  event_cap: int, box: tuple[float, float, float, float]
                  ) -> np.ndarray:
    """Island membership of many states: no turning/stick/grazing over
    n_periods map iterations, and the orbit never leaves the box (bounded
    libration; chaotic-shell points diffuse out instead).  An event-cap
    hit counts as not an island."""
    bx0, bx1, bv0, bv1 = box

    def stays(b):
        return (~b.capped & ~b.dissipative
                & (bx0 <= b.out_x) & (b.out_x <= bx1)
                & (bv0 <= b.out_v) & (b.out_v <= bv1))

    return _iterate_batch(p, xs, vs, t0, n_periods, event_cap, stays)[2]


@dataclass
class IslandAreaResult:
    area: float
    n_cells: int
    cell_area: float
    boundary_cells: int
    mc_area: float
    mc_stderr: float
    forward_retention: float      # fraction of mapped samples still inside
    box: tuple[float, float, float, float]
    mask: np.ndarray
    seed_cell: tuple[int, int]

    @property
    def stderr(self) -> float:
        """Resolution error bar: half the boundary band plus MC noise."""
        return 0.5 * self.boundary_cells * self.cell_area + self.mc_stderr


def island_area(p: Params, seed: tuple[float, float], *, t0: float = 0.0,
                n_periods: int = 100, box: tuple[float, float, float, float]
                | None = None, nx: int = 61, nv: int = 61,
                mc_samples: int = 20000, mc_forward: int = 400,
                forward_periods: int = 5, rng_seed: int = 2024,
                event_cap: int = 100_000) -> IslandAreaResult:
    """Area of the island's connected component around ``seed``.

    Flood fill over a cell grid (membership: no dissipative event over
    n_periods map iterations) gives the component; a Monte-Carlo estimate
    over the bounding box cross-checks it, and mapping the in-island
    samples forward re-tests membership against the one-cell-dilated mask
    (discretization allowance) as an area-preservation consistency check.
    """
    x0, v0 = float(seed[0]), float(seed[1])
    if box is None:
        hw_v = max(1.5, 0.3 * abs(v0))
        box = (p.l, p.r, v0 - hw_v, v0 + hw_v)
    bx0, bx1, bv0, bv1 = box
    dx = (bx1 - bx0) / nx
    dv = (bv1 - bv0) / nv
    xs = bx0 + dx * (np.arange(nx) + 0.5)
    vs = bv0 + dv * (np.arange(nv) + 0.5)

    ic = min(max(int((x0 - bx0) / dx), 0), nx - 1)
    jc = min(max(int((v0 - bv0) / dv), 0), nv - 1)

    # every box cell (v-major, x fastest) and then the seed, in one batch
    tested = _island_cells(p, np.append(np.tile(xs, nv), x0),
                           np.append(np.repeat(vs, nx), v0), t0, n_periods,
                           event_cap, box)
    if not tested[-1]:
        raise IslandSeedError(f"seed ({x0}, {v0}) is not inside an island "
                              f"(dissipative event or box escape within "
                              f"{n_periods} periods)")
    tested = tested[:-1].reshape(nv, nx)

    if not tested[jc, ic]:
        # the seed's own cell center may sit outside; look at the neighbors
        for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            if 0 <= jc + dj < nv and 0 <= ic + di < nx \
                    and tested[jc + dj, ic + di]:
                jc, ic = jc + dj, ic + di
                break
        else:
            raise IslandSeedError("no island cell found at the seed")

    mask = np.zeros((nv, nx), dtype=bool)
    stack = [(jc, ic)]
    mask[jc, ic] = True
    while stack:
        j, i = stack.pop()
        for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            jj, ii = j + dj, i + di
            if 0 <= jj < nv and 0 <= ii < nx and not mask[jj, ii] \
                    and tested[jj, ii]:
                mask[jj, ii] = True
                stack.append((jj, ii))

    cell_area = dx * dv
    n_cells = int(mask.sum())
    near = _neighbourhood(mask)
    interior = np.logical_and.reduce(near)
    boundary = int(mask.sum() - (mask & interior).sum())

    rng = np.random.default_rng(rng_seed)
    pts = np.column_stack([rng.uniform(bx0, bx1, mc_samples),
                           rng.uniform(bv0, bv1, mc_samples)])
    pi = np.clip(((pts[:, 0] - bx0) / dx).astype(int), 0, nx - 1)
    pj = np.clip(((pts[:, 1] - bv0) / dv).astype(int), 0, nv - 1)
    inside = mask[pj, pi]
    frac = inside.mean()
    box_area = (bx1 - bx0) * (bv1 - bv0)
    mc_area = frac * box_area
    mc_stderr = box_area * math.sqrt(max(frac * (1 - frac), 1e-12) / mc_samples)

    dil = np.logical_or.reduce(near)
    sub = pts[inside][:mc_forward]
    zx, zv, mapped = _iterate_batch(p, sub[:, 0], sub[:, 1], t0,
                                    forward_periods, event_cap,
                                    lambda b: ~b.capped)
    # int() truncation, as for the cell index of a single point
    i = ((zx[mapped] - bx0) / dx).astype(np.int64)
    j = ((zv[mapped] - bv0) / dv).astype(np.int64)
    on_grid = (0 <= i) & (i < nx) & (0 <= j) & (j < nv)
    kept = int(dil[j[on_grid], i[on_grid]].sum())
    retention = kept / len(sub) if len(sub) else 1.0
    return IslandAreaResult(area=n_cells * cell_area, n_cells=n_cells,
                            cell_area=cell_area, boundary_cells=boundary,
                            mc_area=mc_area, mc_stderr=mc_stderr,
                            forward_retention=retention, box=box, mask=mask,
                            seed_cell=(jc, ic))
