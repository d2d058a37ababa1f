"""The stroboscopic period map, its Jacobian as a saltation-matrix product,
and the per-point contraction classification.

The Jacobian of the time-T map is assembled from four factor types:

    free flight [t1, t2]   [[1, t2-t1], [0, 1]]           det 1
    sticking episode       [[1, 0], [0, 0]]               det 0
    wall reflection at t*  [[-1, 0], [2 g*/v-, -1]]       det 1
    turning point at t~    [[1, 0], [0, (|g|-f)/(|g|+f)]] det in [0, 1)

with g the local applied force at the event and v- the pre-impact
velocity.  Factors compose chronologically, latest leftmost.  The
reflection entry with the pre-impact velocity is exact for state-
independent forces (differentiating the closed-form flow through the
impact-time condition reproduces it term by term); for the wall-vanishing
law the flight factors come from the integrated variational system and the
event entries use the local force value.

The reported determinant is structural: the product of the factor
determinants, so impacts-only maps give exactly 1 and any sticking gives
exactly 0; turning points contribute their contraction ratio.

Under the uniform law the map's derivative in the friction f (``df``)
rides along as a third column, the parameter form of the same product:

    free flight [t1, t2], direction s   adds (-s dt^2/2, -s dt), dt = t2-t1
    reflection, turning, sticking       pass it through their 2x2 factor

(guards and resets do not depend on f, and the acceleration is 0 at a
stick release, so the release-time shift adds nothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ContractViolation, ForceLaw, Params, PhaseState
from .simulator import EVENT_CAP, SimulationError, _advance, _advance_batch


class MapClass(str, Enum):
    AREA_PRESERVING = "area_preserving"
    CONTRACTING = "contracting"
    SINGULAR = "singular"
    UNDEFINED = "undefined"


DET_TOL = 1e-9

# Integer codes of the map classes in region grids and batch results.
CLASS_CODE = {MapClass.AREA_PRESERVING: 0, MapClass.CONTRACTING: 1,
              MapClass.SINGULAR: 2, MapClass.UNDEFINED: 3}

# Cells per lockstep batch: bounds the kernel's working arrays (peak memory)
# independently of the grid size.
BATCH_CELLS = 4096

# Under the uniform law, sets smaller than this are mapped one state at a
# time: there a lockstep pass costs more than it saves (measured crossover).
SCALAR_CELLS = 96


@dataclass(frozen=True)
class SaltationFactor:
    kind: str          # flight | stick | reflection | turning
    matrix: np.ndarray

    @property
    def det(self) -> float:
        if self.kind in ("flight", "reflection"):
            return 1.0
        if self.kind == "stick":
            return 0.0
        return float(self.matrix[1, 1])


@dataclass(frozen=True)
class MapResult:
    input: tuple[float, float]
    output: tuple[float, float]
    t0: float
    k: int
    event_summary: dict
    signature: tuple[str, ...]
    det: float
    undefined: bool
    jacobian: np.ndarray | None = None
    factors: tuple[SaltationFactor, ...] | None = None
    df: np.ndarray | None = None     # d output / d f; uniform law only
    segments: list | None = None     # FlightSegment/StickInterval; jac only

    @property
    def classification(self) -> MapClass:
        if self.undefined:
            return MapClass.UNDEFINED
        if abs(self.det - 1.0) <= DET_TOL:
            return MapClass.AREA_PRESERVING
        if abs(self.det) <= DET_TOL:
            return MapClass.SINGULAR
        return MapClass.CONTRACTING

    @property
    def trace(self) -> float:
        if self.jacobian is None:
            raise ContractViolation("map evaluated without a Jacobian")
        return float(self.jacobian[0, 0] + self.jacobian[1, 1])

    def multipliers(self) -> tuple[complex, complex]:
        return multipliers(self.trace, self.det)


def multipliers(tr: float, det: float) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 map with trace tr and determinant det."""
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        return (0.5 * (tr - s), 0.5 * (tr + s))
    s = math.sqrt(-disc)
    return (complex(0.5 * tr, -0.5 * s), complex(0.5 * tr, 0.5 * s))


def _xv(state) -> tuple[float, float]:
    """(x, v) of a PhaseState or of an (x, v) pair, as floats."""
    if isinstance(state, PhaseState):
        return state.x, state.v
    return float(state[0]), float(state[1])


def _map(p: Params, state, t0: float, k: int, event_cap: int,
         jac: bool) -> MapResult:
    if k < 1:
        raise ContractViolation("k must be >= 1")
    x, v = _xv(state)
    res = _advance(p, x, v, t0, t0 + k * p.T, jac=jac, event_cap=event_cap)
    product = factors = df = None
    if jac and not res.undefined:
        product, df = np.eye(2), np.zeros(2)
        fs = []
        for kind, mat, col in res.factors:
            product = mat @ product
            df = None if df is None or col is None else mat @ df + col
            fs.append(SaltationFactor(kind, mat))
        factors = tuple(fs)
    return MapResult(input=(x, v), output=(res.x, res.v), t0=t0, k=k,
                     event_summary=dict(res.counts), signature=res.signature,
                     det=res.det, undefined=res.undefined,
                     jacobian=product, factors=factors, df=df,
                     segments=res.segments)


def period_map(p: Params, state: tuple[float, float] | PhaseState,
               t0: float = 0.0, k: int = 1, *,
               event_cap: int = EVENT_CAP) -> MapResult:
    """Advance (x, v) at phase time t0 by k forcing periods."""
    return _map(p, state, t0, k, event_cap, jac=False)


@dataclass(frozen=True)
class MapBatch:
    """One-period images of many cells (see ``period_map_batch``)."""

    out_x: np.ndarray
    out_v: np.ndarray
    det: np.ndarray
    code: np.ndarray       # CLASS_CODE of each cell's MapClass (uint8)
    counts: np.ndarray     # (n, 4): impacts, turnings, sticks, grazings
    capped: np.ndarray     # event cap exceeded: code 3, nan det and state

    @property
    def dissipative(self) -> np.ndarray:
        """Cells with a turning, stick or grazing event."""
        return self.counts[:, 1:].any(axis=1)


def period_map_batch(p: Params, xs, vs, t0: float = 0.0, *,
                     event_cap: int = EVENT_CAP) -> MapBatch:
    """``period_map`` of many states (xs[i], vs[i]) at phase time t0.

    Under the uniform law, fewer than SCALAR_CELLS states are mapped one at
    a time.  Other sets advance in lockstep (``_advance_batch``, in chunks
    of BATCH_CELLS) with the scalar engine's rules and floating-point
    order, and the states the kernel hands back are mapped one at a time.
    So each state's image, det, class and counts equal ``period_map``'s;
    past the event cap it gets nan image and det, zero counts, class 3 and
    ``capped``.  No Jacobian is formed.
    """
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(vs).all()
            and math.isfinite(t0)):
        raise ContractViolation("non-finite state or t0 in a batch map")
    n = len(xs)
    out_x, out_v, det = np.empty(n), np.empty(n), np.empty(n)
    counts = np.zeros((n, 4), dtype=np.int64)
    undefined = np.zeros(n, dtype=bool)
    capped = np.zeros(n, dtype=bool)
    t_end = t0 + p.T
    if p.force_law is ForceLaw.UNIFORM and n < SCALAR_CELLS:
        rows = range(n)                        # states mapped one at a time
    else:
        rows = []
        for lo in range(0, n, BATCH_CELLS):
            sl = slice(lo, lo + BATCH_CELLS)
            run = _advance_batch(p, xs[sl], vs[sl], t0, t_end, event_cap)
            out_x[sl], out_v[sl], det[sl] = run.x, run.v, run.det
            counts[sl, 0], counts[sl, 1], counts[sl, 2] = (
                run.impacts, run.turnings, run.sticks)
            rows += (lo + np.flatnonzero(run.fallback)).tolist()
    for i in rows:
        try:
            res = _advance(p, float(xs[i]), float(vs[i]), t0, t_end,
                           event_cap=event_cap)
        except SimulationError:
            out_x[i] = out_v[i] = det[i] = math.nan
            counts[i] = 0
            undefined[i] = capped[i] = True
            continue
        c = res.counts
        out_x[i], out_v[i], det[i], undefined[i] = (res.x, res.v, res.det,
                                                    res.undefined)
        counts[i] = (c["impacts_left"] + c["impacts_right"], c["turnings"],
                     c["sticks"], c["grazings"])
    code = np.full(n, CLASS_CODE[MapClass.CONTRACTING], dtype=np.uint8)
    code[np.abs(det) <= DET_TOL] = CLASS_CODE[MapClass.SINGULAR]
    code[np.abs(det - 1.0) <= DET_TOL] = CLASS_CODE[MapClass.AREA_PRESERVING]
    code[undefined] = CLASS_CODE[MapClass.UNDEFINED]
    return MapBatch(out_x, out_v, det, code, counts, capped)


def period_map_jacobian(p: Params, state, t0: float = 0.0, k: int = 1, *,
                        event_cap: int = EVENT_CAP) -> MapResult:
    """Period map with the saltation-product Jacobian attached, and under
    the uniform law its derivative in f (``df``), and the mapped flights
    and rests (``segments``), so the orbit need not be run again.

    Grazing or wall-pressed episodes leave the derivative undefined; the
    result carries jacobian=None and df=None and classifies as UNDEFINED.
    """
    return _map(p, state, t0, k, event_cap, jac=True)


def finite_difference_jacobian(p: Params, state, t0: float = 0.0, k: int = 1,
                               h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of the period map.

    Refuses when the four probe points do not share one event signature
    (the map is only piecewise smooth); use it away from event-topology
    boundaries.
    """
    x, v = _xv(state)
    if h is None:
        h = 1e-7 * max(1.0, abs(x), abs(v))
    probes = [(x + h, v), (x - h, v), (x, v + h), (x, v - h)]
    outs = []
    sigs = []
    for px, pv in probes:
        px = min(max(px, p.l), p.r)
        r = period_map(p, (px, pv), t0, k)
        outs.append(r.output)
        sigs.append(r.signature)
    if len(set(sigs)) != 1:
        raise ContractViolation(
            "probe points straddle an event-topology boundary; "
            f"signatures {sorted(set(sigs))}")
    (xp, vp), (xm, vm), (xq, vq), (xr, vr) = outs
    return np.array([[(xp - xm) / (2 * h), (xq - xr) / (2 * h)],
                     [(vp - vm) / (2 * h), (vq - vr) / (2 * h)]])
