"""Periodic orbits: the closed-form symmetric two-impact family, general
orbit location by Newton on the period map, pseudo-arclength continuation
in the friction parameter with fold detection, and the tent-map lift
conjugacy check.

Symmetric two-impact orbits bounce wall to wall in exactly half an orbit
period.  For an odd multiple m of the forcing period, departing the left
wall at phase psi with speed v0 and requiring (i) equal departure and
arrival speeds and (ii) travel distance R gives

    sin(psi) = -m pi f / (2 F),
    v0 = (omega / (m pi)) (R - (2 F / omega^2) cos(psi)),

with the two sign choices of cos(psi) forming the saddle-center pair that
collides when m pi f = 2 F.  For m = 1 these reduce to the classic
(psi, tau, C, D) coefficient form, exposed as SymmetricOrbitFormula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (ContractViolation, ForceLaw, Params, PhaseState, TWO_PI,
                    applied_force, csv_text)
from .flight import SinusoidArc
from .simulator import EVENT_CAP, SimulationError, simulate
# period_map (unused here) and _pmj, Newton's map, stay module attributes:
# perfbench/spans.py wraps them to count each kind of map.
from .strobemap import MapResult, multipliers, period_map  # noqa: F401
from .strobemap import period_map_jacobian, period_map_jacobian as _pmj


class OrbitError(RuntimeError):
    pass


class Nonexistence(OrbitError):
    """Requested closed-form orbit does not exist; .reason explains why."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class OrbitType(str, Enum):
    CENTER = "center"
    SADDLE = "saddle"
    ATTRACTING = "attracting"      # node or focus, |multipliers| < 1
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class OrbitRecord:
    fixed_state: tuple[float, float]
    t0: float
    k: int
    multipliers: tuple[complex, complex]
    trace: float
    det: float
    orbit_type: OrbitType
    signature: tuple[str, ...]
    residual: float
    params: Params


@dataclass(frozen=True)
class SymmetricOrbitFormula:
    """Coefficient set of the closed-form symmetric orbit (m = 1 prints the
    classic psi/tau/C/D values; general odd m keeps the same anchors)."""

    branch: int                 # 1 (cos psi < 0) or 2 (cos psi > 0)
    m: int                      # odd period multiple
    psi: float                  # left-wall departure phase
    tau: float                  # right-wall impact phase in [0, 2 pi)
    C: float                    # linear flight coefficient, = v0 - (F/w) sin psi
    D: float                    # constant flight coefficient, = l + (F/w^2) cos psi
    v0: float                   # departure speed off the left wall
    min_flight_velocity: float  # minimum of v over the wall-to-wall flight


# |det - 1| (|det|) up to which a monodromy is area preserving (singular).
MULTIPLIER_DET_TOL = 1e-6


def classify_multipliers(trace: float, det: float) -> OrbitType:
    if abs(det - 1.0) <= MULTIPLIER_DET_TOL:
        if abs(abs(trace) - 2.0) <= 1e-9:
            return OrbitType.DEGENERATE
        return OrbitType.CENTER if abs(trace) < 2.0 else OrbitType.SADDLE
    if abs(det) <= MULTIPLIER_DET_TOL and abs(trace) < 1.0:
        return OrbitType.DEGENERATE
    if max(abs(lam) for lam in multipliers(trace, det)) < 1.0:
        return OrbitType.ATTRACTING
    return OrbitType.DEGENERATE


# ---------------------------------------------------------------------------
# closed-form symmetric orbits
# ---------------------------------------------------------------------------

def symmetric_orbit_formula(p: Params, branch: int, m: int = 1) -> SymmetricOrbitFormula:
    """Coefficients of the symmetric two-impact orbit, or Nonexistence."""
    if p.force_law is not ForceLaw.UNIFORM:
        raise ContractViolation("symmetric orbits are defined for the uniform law")
    if branch not in (1, 2):
        raise ContractViolation("branch must be 1 or 2")
    if m < 1 or m % 2 == 0:
        raise ContractViolation("period multiple m must be odd")
    if p.F <= 0.0:
        raise Nonexistence("fold passed", "zero forcing amplitude")
    arg = m * math.pi * p.f / (2.0 * p.F)
    if arg > 1.0:
        raise Nonexistence("fold passed",
                           f"m pi f / (2F) = {arg:.6g} > 1")
    sigma = math.asin(arg)
    psi = math.pi + sigma if branch == 1 else -sigma
    w = p.omega
    cos_psi = math.cos(psi)
    v0 = (w / (m * math.pi)) * (p.R - (2.0 * p.F / (w * w)) * cos_psi)
    # the minimum of v over the rightward flight, phases psi to psi + m pi:
    # in the phase th = omega t, v has acceleration (F cos th - f) / omega
    vmin = SinusoidArc(t0=psi, x0=p.l, v0=v0, sign=1, a_cos=p.F / w,
                       a_k=-p.f / w, omega=1.0).min_speed(psi, psi + m * math.pi)
    # a flight velocity within roundoff of its terms is a tangency to rest
    size = (w / (m * math.pi)) * (p.R + (2.0 * p.F / (w * w)) * abs(cos_psi))
    if min(v0, vmin) <= 16.0 * math.ulp(size + 2.0 * p.F / w):
        raise Nonexistence("sticking",
                           f"minimum flight velocity {min(v0, vmin):.6g} <= 0")
    C = v0 - (p.F / w) * math.sin(psi)
    D = p.l + (p.F / (w * w)) * cos_psi
    tau = math.fmod(psi + m * math.pi, TWO_PI)
    if tau < 0.0:
        tau += TWO_PI
    return SymmetricOrbitFormula(branch=branch, m=m, psi=psi, tau=tau, C=C,
                                 D=D, v0=v0, min_flight_velocity=vmin)


def symmetric_orbit_state(p: Params, formula: SymmetricOrbitFormula,
                          t: float) -> PhaseState:
    """Evaluate the closed-form orbit at absolute time t.

    The rightward flight anchored at (l, v0) covers phase offsets
    [0, m pi) from psi; the leftward half follows by the antisymmetry
    x(t + m pi / w) = -x(t) + r + l.  An impact (u = 0 or m pi) within
    roundoff after t counts as passed, so t gets the post-impact state, and
    x is kept inside the walls."""
    w = p.omega
    half = formula.m * math.pi
    u = math.fmod(w * t - formula.psi, 2.0 * half)
    if u < 0.0:
        u += 2.0 * half
    tol = 1e-12 * max(1.0, abs(w * t))
    if u > 2.0 * half - tol:
        u = 0.0
    elif half - tol < u < half:
        u = half
    mirror = u >= half
    if mirror:
        u -= half
    te = t - (half / w if mirror else 0.0)  # time on the rightward pass
    arc = SinusoidArc(t0=te - u / w, x0=p.l, v0=formula.v0, sign=1,
                      a_cos=p.F, a_k=-p.f, omega=w)
    x, v = arc.x(te), arc.v(te)
    if mirror:
        x, v = p.r + p.l - x, -v
    return PhaseState(min(max(x, p.l), p.r), v, t)


def symmetric_orbit(p: Params, branch: int, m: int = 1) -> OrbitRecord:
    """Closed-form symmetric orbit as an OrbitRecord at t = 0, with
    multipliers from the saltation-product Jacobian."""
    formula = symmetric_orbit_formula(p, branch, m)
    st = symmetric_orbit_state(p, formula, 0.0)
    res = period_map_jacobian(p, (st.x, st.v), 0.0, m)
    return _orbit_record(p, res, math.hypot(res.output[0] - st.x,
                                            res.output[1] - st.v))


def _orbit_record(p: Params, res: MapResult, residual: float) -> OrbitRecord:
    """The orbit through the input of the Jacobian map ``res``."""
    tr = res.trace
    return OrbitRecord(fixed_state=res.input, t0=res.t0, k=res.k,
                       multipliers=res.multipliers(), trace=tr, det=res.det,
                       orbit_type=classify_multipliers(tr, res.det),
                       signature=res.signature, residual=residual, params=p)


def symmetric_fold_friction(p: Params, m: int = 1) -> float:
    """Friction value where the two symmetric branches collide."""
    return 2.0 * p.F / (m * math.pi)


# ---------------------------------------------------------------------------
# Newton solver on the period map
# ---------------------------------------------------------------------------

# Residual |P(z) - z| at which Newton stops, and the iterations it may take.
NEWTON_TOL = 1e-10
NEWTON_ITERATIONS = 40


def find_periodic(p: Params, guess: tuple[float, float], k: int = 1,
                  t0: float = 0.0, *, event_cap: int = EVENT_CAP) -> OrbitRecord:
    """Damped Newton solve of period_map^k(z) = z.

    A step is accepted only if it lowers the residual |P(z) - z|, else it
    is halved; after 24 halvings the solve fails.  So a step across an
    event boundary cannot carry the iterate off to costly far states.
    """
    z = np.array([min(max(guess[0], p.l), p.r), guess[1]], dtype=float)
    res = _pmj(p, (z[0], z[1]), t0, k, event_cap=event_cap)
    rvec = np.array(res.output) - z
    rnorm = float(np.hypot(*rvec))
    for _ in range(NEWTON_ITERATIONS):
        if rnorm <= NEWTON_TOL:
            break
        if res.jacobian is None:
            raise OrbitError("map derivative undefined along the iteration "
                             "(grazing trajectory)")
        A = res.jacobian - np.eye(2)
        try:
            step = np.linalg.solve(A, -rvec)
        except np.linalg.LinAlgError:
            raise OrbitError("singular Newton system (fold or stick)")
        lam = 1.0
        while True:
            z_try = z + lam * step
            z_try[0] = min(max(z_try[0], p.l), p.r)
            try:
                res_try = _pmj(p, (z_try[0], z_try[1]), t0, k,
                               event_cap=event_cap)
            except (SimulationError, ContractViolation):
                res_try = None
            if res_try is not None:
                r_try = np.array(res_try.output) - z_try
                r_norm = float(np.hypot(*r_try))
                if r_norm < rnorm:
                    z, res, rvec, rnorm = z_try, res_try, r_try, r_norm
                    break
            lam *= 0.5
            if lam < 2.0 ** -24:
                raise OrbitError("no periodic orbit found: step damping "
                                 "exhausted (no step lowers the residual)")
    else:
        raise OrbitError(f"no periodic orbit found: residual {rnorm:.3g} "
                         f"after {NEWTON_ITERATIONS} iterations")
    if res.jacobian is None:
        raise OrbitError("converged point has undefined derivative")
    return _orbit_record(p, res, rnorm)


# ---------------------------------------------------------------------------
# pseudo-arclength continuation in f
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchPoint:
    f: float
    state: tuple[float, float]
    trace: float
    det: float
    orbit_type: OrbitType
    signature: tuple[str, ...]


@dataclass(frozen=True)
class FoldReport:
    f_crit: float
    state: tuple[float, float]


# Newton updates one corrector call may take before it gives up, and the
# residual at which it stops.
CORRECTOR_ITERATIONS = 25
CORRECTOR_TOL = 1e-10
# Arclength step bounds: halving below DS_MIN gives the branch up.
DS_MIN = 1e-7
DS_MAX = 2e-2


@dataclass
class ContinuationResult:
    points: list[BranchPoint]
    fold: FoldReport | None
    termination: str     # "range end" | "fold refined" | "sticking boundary" | ...
    iterations: list[int]  # corrector updates of each point after the first
    cap_hits: int          # corrector calls that ran out of iterations

    def csv(self) -> str:
        return csv_text(("f", "x0", "v0", "tr", "det", "type"),
                        ((pt.f, *pt.state, pt.trace, pt.det,
                          pt.orbit_type.value) for pt in self.points))


def continue_in_friction(p: Params, orbit: OrbitRecord, *,
                         f_min: float = 0.0, f_max: float | None = None,
                         k: int | None = None, direction: int = +1,
                         ds: float = 1e-3,
                         max_points: int = 5000) -> ContinuationResult:
    """Pseudo-arclength continuation of a fixed point of the k-period map
    in the friction parameter f.

    Detects folds by a sign reversal of the f-component of the branch
    tangent (refined by shrinking steps across the reversal); terminates
    with "sticking boundary" when the orbit's event signature acquires a
    stick (a grazing map has no Jacobian, so the corrector never converges
    on one) or its minimum flight speed falls below 1e-3, and
    at the range ends otherwise.  Each point costs only its corrector maps:
    the speed is read off the converged map's ``segments``.  The friction
    column of the extended system is the map's closed-form ``df``, so the
    continuation is defined for the uniform law only.
    """
    if p.force_law is not ForceLaw.UNIFORM:
        raise ContractViolation("continuation in f needs the uniform law")
    if k is None:
        k = orbit.k
    if f_max is None:
        f_max = symmetric_fold_friction(p) * 1.05
    if not ds > 0.0:
        raise ContractViolation(f"need a positive step, got ds = {ds}")
    if f_min > f_max:
        raise ContractViolation(f"empty friction range: f_min = {f_min} "
                                f"> f_max = {f_max}")
    t0 = orbit.t0
    y = np.array([orbit.fixed_state[0], orbit.fixed_state[1], p.f])
    base_sig = orbit.signature
    iterations: list[int] = []
    cap_hits = 0

    def eval_at(y):
        pp = p.replace_friction(max(y[2], 0.0))
        return period_map_jacobian(pp, (y[0], y[1]), t0, k)

    def extended(res, last_row):
        A = np.zeros((3, 3))
        A[:2, :2] = res.jacobian - np.eye(2)
        A[:2, 2] = res.df
        A[2, :] = last_row
        return A

    def corrector(y_pred, tangent):
        """Newton on (P(y) - z, tangent . (y - y_pred)) = 0: (y, map, updates)."""
        nonlocal cap_hits
        y_c = y_pred.copy()
        y_c[2] = max(y_c[2], 0.0)
        for n in range(CORRECTOR_ITERATIONS):
            if not (p.l - 1e-9 <= y_c[0] <= p.r + 1e-9):
                return None, None, n
            y_c[0] = min(max(y_c[0], p.l), p.r)
            try:
                res = eval_at(y_c)
            except (SimulationError, ContractViolation):
                return None, None, n
            if res.jacobian is None:
                return None, None, n
            rhs = -np.append(np.array(res.output) - y_c[:2],
                             tangent @ (y_c - y_pred))
            if np.abs(rhs).max() < CORRECTOR_TOL:
                return y_c, res, n
            try:
                dy = np.linalg.solve(extended(res, tangent), rhs)
            except np.linalg.LinAlgError:
                return None, None, n
            y_c = y_c + dy
            if y_c[2] < -1e-12:
                return None, None, n
            y_c[2] = max(y_c[2], 0.0)
        cap_hits += 1
        return None, None, CORRECTOR_ITERATIONS

    def tangent_at(res, prev_tangent):
        try:
            tau = np.linalg.solve(extended(res, prev_tangent),
                                  np.array([0.0, 0.0, 1.0]))
        except np.linalg.LinAlgError:
            return prev_tangent
        n = np.linalg.norm(tau)
        if n == 0.0:
            return prev_tangent
        return -tau / n if float(tau @ prev_tangent) < 0.0 else tau / n

    res = eval_at(y)
    if res.jacobian is None:
        raise OrbitError("starting orbit has undefined derivative")
    points = [_branch_point(y, res)]
    tau = tangent_at(res, np.array([0.0, 0.0, float(direction)]))

    fold: FoldReport | None = None
    termination = "max points"
    step = ds
    n_ok = 0
    while len(points) < max_points:
        advanced = False
        while step >= DS_MIN:
            y_pred = y + step * tau
            y_new, res_new, n_iter = corrector(y_pred, tau)
            if y_new is not None and res_new.signature == base_sig:
                advanced = True
                break
            if y_new is not None and "S" in res_new.signature:
                termination = "sticking boundary"
                return ContinuationResult(points, fold, termination,
                                          iterations, cap_hits)
            step *= 0.5
        if not advanced:
            termination = "step collapse"
            last = points[-1]
            if (_impacts_only(last.signature) and _min_speed(res)
                    < 0.05 * max(1.0, abs(last.state[1]))):
                termination = "sticking boundary"
            break
        tau_new = tangent_at(res_new, tau)
        if fold is None and tau[2] > 0.0 and tau_new[2] < 0.0:
            fold = _refine_fold(y, tau, y_new, corrector, tangent_at)
        y, res, tau = y_new, res_new, tau_new
        points.append(_branch_point(y, res))
        iterations.append(n_iter)
        if _impacts_only(res.signature) and _min_speed(res) < 1e-3:
            termination = "sticking boundary"
            break
        n_ok += 1
        if n_ok >= 3:
            step = min(step * 1.4, DS_MAX)
            n_ok = 0
        if y[2] > f_max and tau[2] > 0.0:
            termination = "range end (f_max)"
            break
        if y[2] < f_min + 1e-12 and tau[2] < 0.0:
            termination = "range end (f_min)"
            break
    if fold is not None and termination.startswith("range end (f_min)"):
        termination = "fold refined"
    return ContinuationResult(points, fold, termination, iterations, cap_hits)


def _branch_point(y, res: MapResult) -> BranchPoint:
    return BranchPoint(f=float(y[2]), state=(float(y[0]), float(y[1])),
                       trace=res.trace, det=res.det,
                       orbit_type=classify_multipliers(res.trace, res.det),
                       signature=res.signature)


def _impacts_only(signature) -> bool:
    return bool(signature) and all(c in "RL" for c in signature)


def _min_speed(res: MapResult) -> float:
    """Exact minimum flight speed of an impacts-only Jacobian map, read off
    its segments (all flights): the orbit is not run again."""
    return min(s.arc.min_speed(s.t0, s.t1) for s in res.segments)


def _refine_fold(y_a, tau_a, y_b, corrector, tangent_at) -> FoldReport:
    """Bisect the arclength across a tangent reversal; near the fold the
    branch is quadratic in arclength so the parameter error shrinks like
    the square of the bracket."""
    a, b = y_a.copy(), y_b.copy()
    tau = tau_a.copy()
    best = max(a[2], b[2])
    best_state = (a[0], a[1]) if a[2] >= b[2] else (b[0], b[1])
    for _ in range(60):
        mid_pred = 0.5 * (a + b)
        y_m, res_m, _ = corrector(mid_pred, tau)
        if y_m is None:
            break
        if y_m[2] > best:
            best = y_m[2]
            best_state = (y_m[0], y_m[1])
        tau_m = tangent_at(res_m, tau)
        if tau_m[2] > 0.0:
            a = y_m
        else:
            b = y_m
        if np.linalg.norm(a - b) < 1e-9:
            break
    return FoldReport(f_crit=float(best), state=(float(best_state[0]),
                                                 float(best_state[1])))


# ---------------------------------------------------------------------------
# tent-map lift conjugacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyReport:
    applicable: bool
    reason: str
    max_defect: float | None
    n_samples: int


def tent_value(q: float) -> float:
    """2-periodic tent map: q on [0,1), 2-q on [1,2)."""
    u = math.fmod(q, 2.0)
    if u < 0.0:
        u += 2.0
    return u if u < 1.0 else 2.0 - u


def lift_conjugacy_check(p: Params, initial: PhaseState, duration: float,
                         n_samples: int = 1000) -> ConjugacyReport:
    """Verify x(t) = R * W(q(t)) + l against the unfolded oscillator.

    The unfolded coordinate q obeys q'' = W'(q) F cos(omega t) / R
    - sgn(q') f / R between corners of the tent map W; on trajectories
    whose velocity never vanishes, sgn(q') is constant and the friction
    term is a constant tilt, which is what makes the unfolded system
    conservative.  Any velocity zero under f > 0 (sticking or turning)
    breaks the correspondence and is reported as not applicable.
    """
    if p.force_law is not ForceLaw.UNIFORM:
        raise ContractViolation("the tent-map lift is defined for the uniform law")
    if n_samples < 2:
        raise ContractViolation(f"need n_samples >= 2, got {n_samples}")
    traj = simulate(p, initial, duration)
    sig = traj.event_signature()
    if "S" in sig or "G" in sig:
        return ConjugacyReport(False, "trajectory sticks", None, 0)
    if p.f > 0.0 and ("T" in sig or initial.v == 0.0):
        return ConjugacyReport(False, "velocity vanishes (friction direction flips)",
                               None, 0)
    if initial.v == 0.0 and p.f == 0.0:
        g0 = applied_force(p, initial.x, initial.t)
        if g0 == 0.0:
            return ConjugacyReport(False, "degenerate rest start", None, 0)

    # pull the initial state back to the monotone branch of the tent map
    if initial.v > 0.0 or (initial.v == 0.0 and
                           applied_force(p, initial.x, initial.t) > 0.0):
        q = (initial.x - p.l) / p.R
        qdot = initial.v / p.R
    else:
        q = 2.0 - (initial.x - p.l) / p.R
        qdot = -initial.v / p.R

    t = initial.t
    t_end = initial.t + duration
    ts = np.linspace(initial.t, t_end, n_samples)
    qs = np.empty(n_samples)
    filled = 0

    while t < t_end - 1e-14:
        cell = math.floor(q + 1e-13) if qdot >= 0.0 else math.ceil(q - 1e-13) - 1
        wprime = 1.0 if (cell % 2 == 0) else -1.0
        if qdot != 0.0:
            direction = 1 if qdot > 0.0 else -1
        else:
            acc0 = wprime * (p.F / p.R) * math.cos(p.omega * t)
            if acc0 == 0.0:
                return ConjugacyReport(False, "degenerate tangency", None, 0)
            direction = 1 if acc0 > 0.0 else -1
        sgn = float(direction) if p.f > 0.0 else 0.0
        arc = SinusoidArc(t0=t, x0=q, v0=qdot, sign=direction,
                          a_cos=wprime * p.F / p.R,
                          a_k=-sgn * p.f / p.R, omega=p.omega)
        t_v = arc.first_velocity_zero(t_end)
        t_stop = t_end if t_v is None else min(t_v, t_end)
        lo, hi = float(cell), float(cell + 1)
        target = hi if direction > 0 else lo
        t_x = arc.wall_crossing(target, t, t_stop)
        te = min(x for x in (t_x, t_v, t_end) if x is not None)
        while filled < n_samples and ts[filled] <= te + 1e-14:
            qs[filled] = arc.x(min(ts[filled], te))
            filled += 1
        if te >= t_end - 1e-14:
            t = t_end
            break
        if t_x is not None and te == t_x:
            q, qdot, t = target, arc.v(te), te   # corner: W' flips, state continuous
        else:
            # velocity zero in the lift
            if p.f > 0.0:
                return ConjugacyReport(False,
                                       "velocity vanishes (friction direction flips)",
                                       None, 0)
            q, qdot, t = arc.x(te), 0.0, te
            if arc.accel(te) == 0.0:
                return ConjugacyReport(False, "degenerate tangency", None, 0)

    while filled < n_samples:
        qs[filled] = q
        filled += 1

    defect = 0.0
    for x, qq in zip(traj.sample(ts)[:, 1], qs):
        defect = max(defect, abs(x - (p.R * tent_value(qq) + p.l)))
    return ConjugacyReport(True, "", defect, n_samples)
