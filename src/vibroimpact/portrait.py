"""Grid-based global phase portraits: stroboscopic orbit clouds, cellwise
contraction maps (area-preserving vs contracting regions), long-run
attractor verdicts, and invariant-island area estimates.

All grid evaluations iterate the period map with the phase reset to t0
each period (T-periodicity makes this exact), so results are independent
of accumulated absolute time and byte-stable for a fixed seed.

Clouds, verdicts and island fills iterate in one batched loop,
``_iterate_batch``, from which each cell drops out once its question is
settled; the verdict rules run on arrays.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .model import ContractViolation, Params, csv_text
from .simulator import EVENT_CAP, _cap_error
from .strobemap import BATCH_CELLS, CLASS_CODE, period_map_batch
# unused here; module attributes that perfbench/spans.py wraps by name
from .strobemap import period_map, period_map_jacobian  # noqa: F401


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
        if self.iterations < 1 or self.transient < 0:
            raise GridError("need iterations >= 1 and transient >= 0")

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
        return self._rows(0, self.nx * self.nv)

    def _rows(self, a: int, b: int) -> np.ndarray:
        """Rows a..b-1 of ``cells()``."""
        k = np.arange(a, b)
        return np.column_stack([self.xs()[k % self.nx], self.vs()[k // self.nx]])


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
        return csv_text(("seed", "iteration", "x", "v"),
                        ((i, j, x, v) for i, pts in enumerate(self.points)
                         for j, (x, v) in enumerate(pts.tolist())))


def iterate_cloud(p: Params, grid: GridSpec,
                  seeds: np.ndarray | None = None) -> CloudResult:
    """Per-seed stroboscopic sequences after the transient skip.  A seed
    whose map hits EVENT_CAP keeps the points mapped before it."""
    grid.validate_against(p)
    if seeds is None:
        seeds = grid.cells()
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    kept = np.empty((len(seeds), grid.iterations, 2))
    n_kept = np.zeros(len(seeds), dtype=np.int64)

    def stays(n, idx, b):
        ok = ~b.capped
        if n > grid.transient:
            kept[idx[ok], n - grid.transient - 1] = np.column_stack(
                [b.out_x[ok], b.out_v[ok]])
            n_kept[idx[ok]] += 1
        return ok

    mapped = _iterate_batch(p, seeds[:, 0], seeds[:, 1], grid.t0,
                            grid.transient + grid.iterations, stays)[2]
    message = str(_cap_error(EVENT_CAP))
    return CloudResult(spec=grid, seeds=seeds,
                       points=[kept[i, :m].copy()
                               for i, m in enumerate(n_kept.tolist())],
                       errors={i: message
                               for i in np.flatnonzero(~mapped).tolist()})


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
    if len(blob) < 48:
        raise GridError(f"a portrait tile has a 48-byte header; got "
                        f"{len(blob)} bytes")
    magic, version, nx, nv = struct.unpack_from("<4sIII", blob, 0)
    if magic != b"VIPT" or version != 1:
        raise GridError("not a version-1 portrait tile")
    if len(blob) != 48 + 9 * nx * nv:
        raise GridError(f"a {nx}x{nv} portrait tile has {48 + 9 * nx * nv} "
                        f"bytes; got {len(blob)}")
    x0, x1, v0, v1 = struct.unpack_from("<4d", blob, 16)
    off = 16 + 32
    det = np.frombuffer(blob, dtype="<f8", count=nx * nv,
                        offset=off).reshape(nv, nx)
    cls = np.frombuffer(blob, dtype=np.uint8, count=nx * nv,
                        offset=off + 8 * nx * nv).reshape(nv, nx)
    return ({"nx": nx, "nv": nv, "x_range": (x0, x1), "v_range": (v0, v1)},
            det.copy(), cls.copy())


def _region_chunk(p: Params, t0: float, cells):
    b = period_map_batch(p, cells[:, 0], cells[:, 1], t0, event_cap=EVENT_CAP)
    return b.det, b.code, b.out_x, b.out_v


def _map_cells(p: Params, n: int, cells_at, t0: float, workers: int):
    """det, class code, out_x and out_v of n cells, where ``cells_at(a, b)``
    gives cells a..b-1 as an (m, 2) array.  Cells are made and mapped one
    piece at a time, so no grid-sized temporaries are held."""
    det, out_x, out_v = np.empty(n), np.empty(n), np.empty(n)
    code = np.empty(n, dtype=np.uint8)
    if workers > 1 and n >= 4 * workers:
        edges = np.linspace(0, n, workers * 8 + 1).astype(int).tolist()
        spans = list(zip(edges[:-1], edges[1:]))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_region_chunk, repeat(p), repeat(t0),
                                [cells_at(a, b) for a, b in spans]))
    else:
        spans = [(a, min(a + BATCH_CELLS, n)) for a in range(0, n, BATCH_CELLS)]
        parts = (_region_chunk(p, t0, cells_at(a, b)) for a, b in spans)
    for (a, b), part in zip(spans, parts):
        det[a:b], code[a:b], out_x[a:b], out_v[a:b] = part
    return det, code, out_x, out_v


def classify_regions(p: Params, grid: GridSpec, *,
                     workers: int = 1) -> RegionGrid:
    """Cellwise one-period determinant and contraction class."""
    grid.validate_against(p)
    det, code, out_x, out_v = _map_cells(p, grid.nx * grid.nv, grid._rows,
                                         grid.t0, workers)
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


def invariance_check(p: Params, region: RegionGrid, *,
                     workers: int = 1) -> InvarianceReport:
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
                       workers)[1]
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
    orbit share one id (two cycles match within MATCH_TOL).  Ids number the
    distinct cycles in the order they are first identified."""

    def __init__(self):
        # per cycle period k: the ids and the (m, k, 2) states of its orbits
        self.orbits: dict[int, tuple[list[int], np.ndarray]] = {}

    def identify(self, k: int, cycle: np.ndarray) -> int:
        ids, states = self.orbits.get(k, ([], np.empty((0, k, 2))))
        # distance of cycle[0] to each stored orbit: the nearest of its states
        near = np.hypot(*(states - cycle[0]).T).min(axis=0) < MATCH_TOL
        if near.any():
            return ids[int(near.argmax())]
        oid = sum(len(i) for i, _ in self.orbits.values())
        self.orbits[k] = (ids + [oid], np.concatenate([states, cycle[None]]))
        return oid


MATCH_TOL = 1e-5
CONVERGE_TOL = 1e-9
CONVERGE_RUNS = 10
MAX_CYCLE = 16
NO_IMPACT_VTOL = 1e-8
NO_IMPACT_QUIET = 10


def classify_cell(p: Params, x: float, v: float, t0: float = 0.0, *,
                  budget: int = 2000,
                  registry: AttractorRegistry | None = None) -> CellVerdict:
    """Iterate the period map and classify the seed's long-run fate.

    island: no turning/stick/grazing over the whole budget.
    no_impact_line: converged with stroboscopic |v| < 1e-8 and no impacts
        over the last 10 periods (the family of impact-free solutions).
    periodic_orbit: converged to a fixed point or cycle (period <= 16).
    sticking_transient: budget exhausted after stick events.
    escaped_budget: budget exhausted, no convergence (e.g. chaotic sea).
    """
    if budget < 1:
        raise ContractViolation("budget must be >= 1")
    return _verdicts(p, [x], [v], t0, budget, registry)[0]


def classify_cells(p: Params, grid: GridSpec, *,
                   registry: AttractorRegistry | None = None) -> list[CellVerdict]:
    """Verdicts for every grid cell (v-major order, x fastest)."""
    grid.validate_against(p)
    if registry is None:
        registry = AttractorRegistry()
    cells = grid.cells()
    return _verdicts(p, cells[:, 0], cells[:, 1], grid.t0, grid.iterations,
                     registry)


def _verdicts(p: Params, xs, vs, t0: float, budget: int,
              registry: AttractorRegistry | None) -> list[CellVerdict]:
    """``classify_cell`` of many seeds in one batch.  A cell drops out when
    it converges or hits the event cap, so its last states, flags and det
    stay as they were then; verdicts and registry ids are given after the
    loop, in cell order."""
    n_cells, slots = len(xs), MAX_CYCLE + 1
    ring = np.empty((n_cells, slots, 2))       # state n sits at n % slots
    ring[:, 0] = np.column_stack([xs, vs])
    runs = np.zeros((n_cells, MAX_CYCLE), dtype=np.int64)   # k = 1..MAX_CYCLE
    quiet = np.full(n_cells, NO_IMPACT_QUIET)  # periods since the last impact
    island_ok = np.ones(n_cells, dtype=bool)
    stick_seen = np.zeros(n_cells, dtype=bool)
    det_last = np.full(n_cells, math.nan)
    ends = [(budget, None)] * n_cells          # periods used, cycle period

    def stays(n, idx, b):
        for c in idx[b.capped].tolist():
            ends[c] = (n, None)
        ok = ~b.capped
        i, z = idx[ok], np.column_stack([b.out_x[ok], b.out_v[ok]])
        det_last[i] = b.det[ok]
        island_ok[i] &= ~b.dissipative[ok]
        stick_seen[i] |= b.counts[ok, 2] > 0
        quiet[i] = np.where(b.counts[ok, 0] > 0, 0, quiet[i] + 1)
        m = min(MAX_CYCLE, n)
        past = ring[i[:, None], (n - 1 - np.arange(m)) % slots]  # k = 1..m
        close = (np.abs(z[:, None] - past) < CONVERGE_TOL).all(axis=2)
        runs[i, :m] = np.where(close, runs[i, :m] + 1, 0)
        ring[i, n % slots] = z
        hit = runs[i, :m] >= CONVERGE_RUNS
        conv = hit.any(axis=1)
        for c, k in zip(i[conv].tolist(),
                        (hit[conv].argmax(axis=1) + 1).tolist()):
            ends[c] = (n, k)                   # the smallest converged k
        ok[ok] = ~conv
        return ok

    x, v, alive = _iterate_batch(p, xs, vs, t0, budget, stays)
    out = []
    for c, (n, k) in enumerate(ends):
        oid = None
        if k is None:                          # budget out or event cap hit
            kind = (Verdict.ISLAND if alive[c] and island_ok[c]
                    else Verdict.STICKING_TRANSIENT if stick_seen[c]
                    else Verdict.ESCAPED)
        elif island_ok[c]:
            kind = Verdict.ISLAND
        elif abs(v[c]) < NO_IMPACT_VTOL and quiet[c] >= NO_IMPACT_QUIET:
            kind, k = Verdict.NO_IMPACT_LINE, None
        else:
            kind = Verdict.PERIODIC_ORBIT
            if registry is not None:
                cycle = ring[c, np.arange(n - k + 1, n + 1) % slots]
                oid = registry.identify(k, cycle)
        out.append(CellVerdict(kind, n, (float(x[c]), float(v[c])), oid, k,
                               float(det_last[c])))
    return out


def verdicts_csv(grid: GridSpec, verdicts: list[CellVerdict]) -> str:
    """Verdict table: cell index, coordinates, outcome, diagnostics."""
    return csv_text(("cell", "x", "v", "verdict", "orbit_id", "orbit_period",
                     "periods_used", "det_last"),
                    ((i, x, v, cv.kind.value, cv.orbit_id, cv.orbit_period,
                      cv.periods_used, cv.det_last) for i, ((x, v), cv)
                     in enumerate(zip(grid.cells().tolist(), verdicts))))


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
                   stays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate the period map on many states at once.  After period n
    (from 1) ``stays(n, idx, b)`` gets the map b of the live cells idx and
    picks the cells that go on; the others drop out.  A hit of EVENT_CAP
    keeps the state from before that map.  Returns the last states and the
    mask of cells that stayed throughout."""
    x = np.array(xs, dtype=float)
    v = np.array(vs, dtype=float)
    idx = np.arange(len(x))
    for n in range(1, n_periods + 1):
        if not idx.size:
            break
        b = period_map_batch(p, x[idx], v[idx], t0, event_cap=EVENT_CAP)
        ok = ~b.capped
        x[idx[ok]], v[idx[ok]] = b.out_x[ok], b.out_v[ok]
        idx = idx[stays(n, idx, b)]
    alive = np.zeros(len(x), dtype=bool)
    alive[idx] = True
    return x, v, alive


def _island_cells(p: Params, xs, vs, t0: float, n_periods: int,
                  box: tuple[float, float, float, float]) -> np.ndarray:
    """Island membership of many states: no turning/stick/grazing over
    n_periods map iterations, and the orbit never leaves the box (bounded
    libration; chaotic-shell points diffuse out instead).  An event-cap
    hit counts as not an island."""
    bx0, bx1, bv0, bv1 = box

    def stays(n, idx, b):
        return (~b.capped & ~b.dissipative
                & (bx0 <= b.out_x) & (b.out_x <= bx1)
                & (bv0 <= b.out_v) & (b.out_v <= bv1))

    return _iterate_batch(p, xs, vs, t0, n_periods, stays)[2]


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
                forward_periods: int = 5, rng_seed: int = 2024) -> IslandAreaResult:
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
    grid = GridSpec(box[:2], box[2:], nx, nv, t0)
    grid.validate_against(p)

    ic = min(max(int((x0 - bx0) / grid.dx), 0), nx - 1)
    jc = min(max(int((v0 - bv0) / grid.dv), 0), nv - 1)

    # every box cell (v-major, x fastest) and then the seed, in one batch
    cells = np.append(grid.cells(), [[x0, v0]], axis=0)
    tested = _island_cells(p, cells[:, 0], cells[:, 1], t0, n_periods, box)
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

    cell_area = grid.dx * grid.dv
    n_cells = int(mask.sum())
    near = _neighbourhood(mask)
    interior = np.logical_and.reduce(near)
    boundary = int(mask.sum() - (mask & interior).sum())

    rng = np.random.default_rng(rng_seed)
    pts = np.column_stack([rng.uniform(bx0, bx1, mc_samples),
                           rng.uniform(bv0, bv1, mc_samples)])
    pi = np.clip(((pts[:, 0] - bx0) / grid.dx).astype(int), 0, nx - 1)
    pj = np.clip(((pts[:, 1] - bv0) / grid.dv).astype(int), 0, nv - 1)
    inside = mask[pj, pi]
    frac = inside.mean()
    box_area = (bx1 - bx0) * (bv1 - bv0)
    mc_area = frac * box_area
    mc_stderr = box_area * math.sqrt(max(frac * (1 - frac), 1e-12) / mc_samples)

    dil = np.logical_or.reduce(near)
    sub = pts[inside][:mc_forward]
    zx, zv, mapped = _iterate_batch(p, sub[:, 0], sub[:, 1], t0, forward_periods,
                                    lambda n, idx, b: ~b.capped)
    # int() truncation, as for the cell index of a single point
    i = ((zx[mapped] - bx0) / grid.dx).astype(np.int64)
    j = ((zv[mapped] - bv0) / grid.dv).astype(np.int64)
    on_grid = (0 <= i) & (i < nx) & (0 <= j) & (j < nv)
    kept = int(dil[j[on_grid], i[on_grid]].sum())
    retention = kept / len(sub) if len(sub) else 1.0
    return IslandAreaResult(area=n_cells * cell_area, n_cells=n_cells,
                            cell_area=cell_area, boundary_cells=boundary,
                            mc_area=mc_area, mc_stderr=mc_stderr,
                            forward_retention=retention, box=box, mask=mask,
                            seed_cell=(jc, ic))
