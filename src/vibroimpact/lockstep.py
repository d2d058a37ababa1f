"""Scalar numerics run on n problems at once, in lockstep on numpy arrays;
each problem gets the numbers of its own n = 1 run.

``brentq`` is scipy's Brent root finder, bracket by bracket.  The rest is
scipy's DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*, II.5-6), each
problem with its own time and step size: the tableau of
``scipy.integrate._ivp.dop853_coefficients``, the initial step, error
estimate, step-size controller and 7th-order dense output.  A state is a
(d, n) array.  The error norm runs over its first ``N_ERR`` components
only, so the others (a variational block) never change the steps.

``initial_step1``, ``step1``, ``next_size1``, ``dense1`` and
``interpolate1`` are the same DOP853 for one problem on Python floats,
where numpy's dispatch on 1-element arrays would cost more than the
arithmetic.  They do each operation of their array versions in the same
order, so one problem gets the numbers it gets in any bundle, bit for bit.
That rests on three premises: ``math.sin`` and ``math.cos`` equal
``np.sin`` and ``np.cos``; a sum over stages adds the products in order
from the first one, as numpy's reduce over a non-inner axis does; and the
controller's powers are taken by ``np.power``, because Python's ``**``
differs from it in the last bit on some inputs.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _co

N_ERR = 2   # components under step control

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0          # -1 / (error estimator order + 1)
_S = _co.N_STAGES               # 12 stages; stage 13 is f at the new point
_C = _co.C
_A = [_co.A[s, :s, None, None] for s in range(len(_C))]
_B = _co.B[:, None, None]
_E3, _E5 = _co.E3[:, None, None], _co.E5[:, None, None]
_D = _co.D[:, :, None, None]
# the tableau on Python floats, for the one-problem versions
_Cf, _Bf, _E3f, _E5f, _Df = (a.tolist()
                              for a in (_C, _co.B, _co.E3, _co.E5, _co.D))
_Af = [_co.A[s, :s].tolist() for s in range(len(_C))]


def _dot(a, K):
    """sum_j a_j K[j].  numpy reduces a non-inner axis by adding the terms
    in order, whatever the number of problems."""
    return (a * K).sum(axis=0)


def _rms(a):
    """Root mean square over the components of a (d, n) array."""
    return np.sqrt((a * a).sum(axis=0) / len(a))


def initial_step(fun, t, y, f, t_bound, rtol, atol):
    """scipy's ``select_initial_step`` (error order 7) per problem."""
    scale = atol + np.abs(y[:N_ERR]) * rtol
    d0, d1 = _rms(y[:N_ERR] / scale), _rms(f[:N_ERR] / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_bound - t)
        f1 = fun(t + h0, y + h0 * f)
        d2 = _rms((f1[:N_ERR] - f[:N_ERR]) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0))
    return np.minimum(np.minimum(100.0 * h0, h1), t_bound - t)


def step(fun, t, y, f, h, rtol, atol):
    """One trial step of size h from (t, y), where f = fun(t, y): the new
    state, fun there, the stages (a (16, d, n) array whose rows 0-12 are
    set) and the error norm of each problem."""
    K = np.empty((len(_C),) + y.shape)
    K[0] = f
    for s in range(1, _S):
        K[s] = fun(t + _C[s] * h, y + _dot(_A[s], K[:s]) * h)
    y_new = y + h * _dot(_B, K[:_S])
    K[_S] = fun(t + h, y_new)
    Kc = K[:_S + 1, :N_ERR]
    scale = atol + np.maximum(np.abs(y[:N_ERR]), np.abs(y_new[:N_ERR])) * rtol
    e5, e3 = _dot(_E5, Kc) / scale, _dot(_E3, Kc) / scale
    e5, e3 = (e5 * e5).sum(axis=0), (e3 * e3).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * N_ERR)
    return y_new, K[_S], K, np.where((e5 == 0.0) & (e3 == 0.0), 0.0, err)


def next_size(h, err, rejected):
    """scipy's controller: the next trial size after a trial of size h with
    error norm err (accepted when err < 1).  A step accepted after a
    rejection of the same step does not grow."""
    with np.errstate(divide="ignore"):
        fac = _SAFETY * err ** _EXPONENT
    grow = np.where(err == 0.0, _MAX_FACTOR, np.minimum(_MAX_FACTOR, fac))
    grow = np.where(rejected, np.minimum(1.0, grow), grow)
    return np.abs(h) * np.where(err < 1.0, grow, np.maximum(_MIN_FACTOR, fac))


def dense(fun, t, h, y, y_new, K):
    """Coefficients of the 7th-order interpolant of the step [t, t + h]
    from y to y_new with stages K (scipy's ``Dop853DenseOutput``); fills
    rows 13-15 of K."""
    for s in range(_S + 1, len(_C)):
        K[s] = fun(t + _C[s] * h, y + _dot(_A[s], K[:s]) * h)
    dy = y_new - y
    return ([dy, h * K[0] - dy, 2 * dy - h * (K[_S] + K[0])]
            + [h * _dot(d, K) for d in _D])


def interpolate(F, y_old, theta):
    """The interpolant with coefficients F at step fraction theta."""
    y = F[6] * theta
    for k in range(5, -1, -1):
        y = (y + F[k]) * (theta if k % 2 == 0 else 1.0 - theta)
    return y + y_old


def _fdot(a, k):
    """``_dot`` for one component: the products a_j k_j added in order from
    the first one (a start at 0.0 would turn a sum of -0.0 into 0.0)."""
    return reduce(add, map(mul, a, k))


def _fsq(a):
    """sum_i a_i^2, in order."""
    return reduce(add, [c * c for c in a])


def initial_step1(fun, t, y, f, t_bound, rtol, atol):
    """``initial_step`` of one problem; y and f are lists of floats."""
    scale = [atol + abs(c) * rtol for c in y[:N_ERR]]
    d0 = math.sqrt(_fsq([c / s for c, s in zip(y, scale)]) / N_ERR)
    d1 = math.sqrt(_fsq([c / s for c, s in zip(f, scale)]) / N_ERR)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    f1 = fun(t + h0, [c + h0 * g for c, g in zip(y, f)])
    d2 = math.sqrt(_fsq([(a - b) / s for a, b, s in zip(f1, f, scale)])
                   / N_ERR) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = float(np.power(0.01 / max(d1, d2), 1.0 / 8.0))
    return min(min(100.0 * h0, h1), t_bound - t)


def _stage(fun, t, h, y, K, s):
    """Appends stage s, fun at t + c_s h, to the per-component lists K."""
    a = _Af[s]
    k = fun(t + _Cf[s] * h, [c + _fdot(a, kc) * h for c, kc in zip(y, K)])
    for kc, v in zip(K, k):
        kc.append(v)


def step1(fun, t, y, f, h, rtol, atol):
    """``step`` of one problem; y, f and what fun returns are lists of
    floats.  The stages come back as one list of 13 values per component,
    and the error norm as a float."""
    K = [[c] for c in f]
    for s in range(1, _S):
        _stage(fun, t, h, y, K, s)
    y_new = [c + h * _fdot(_Bf, kc) for c, kc in zip(y, K)]
    f_new = fun(t + h, y_new)
    for kc, v in zip(K, f_new):
        kc.append(v)
    scale = [atol + max(abs(a), abs(b)) * rtol
             for a, b in zip(y, y_new[:N_ERR])]
    e5 = _fsq([_fdot(_E5f, kc) / s for kc, s in zip(K, scale)])
    e3 = _fsq([_fdot(_E3f, kc) / s for kc, s in zip(K, scale)])
    if e5 == 0.0 and e3 == 0.0:
        return y_new, f_new, K, 0.0
    return y_new, f_new, K, abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * N_ERR)


def next_size1(h, err, rejected):
    """``next_size`` of one problem, with only the branch taken evaluated:
    err ** _EXPONENT is inf in numpy at err = 0, where Python raises."""
    if err < 1.0:
        grow = (_MAX_FACTOR if err == 0.0
                else min(_MAX_FACTOR, _SAFETY * float(np.power(err, _EXPONENT))))
        return abs(h) * (min(1.0, grow) if rejected else grow)
    return abs(h) * max(_MIN_FACTOR, _SAFETY * float(np.power(err, _EXPONENT)))


def dense1(fun, t, h, y, y_new, K):
    """``dense`` of one problem: the 7 interpolant coefficients of each
    component.  Appends stages 13-15 to K."""
    for s in range(_S + 1, len(_Cf)):
        _stage(fun, t, h, y, K, s)
    out = []
    for c, c_new, kc in zip(y, y_new, K):
        dy = c_new - c
        out.append([dy, h * kc[0] - dy, 2 * dy - h * (kc[_S] + kc[0])]
                   + [h * _fdot(d, kc) for d in _Df])
    return out


def interpolate1(F, y_old, theta):
    """``interpolate`` of one component with coefficients F."""
    u = 1.0 - theta
    return ((((((F[6] * theta + F[5]) * u + F[4]) * theta + F[3]) * u + F[2])
             * theta + F[1]) * u + F[0]) * theta + y_old


def brentq(f, lo: np.ndarray, hi: np.ndarray, xtol: float, rtol: float,
           maxiter: int) -> np.ndarray:
    """scipy's ``brentq`` run on many brackets at once.

    ``f(t, i)`` evaluates the functions of brackets ``i`` at times ``t``.
    Each bracket follows the iteration of scipy's C brentq step for step,
    so every root is the one the scalar call returns, bit for bit.
    """
    out = np.full(len(lo), np.nan)
    sel = np.arange(len(lo))
    xpre, xcur = lo.astype(float), hi.astype(float)
    fpre, fcur = f(xpre, sel), f(xcur, sel)
    out[fpre == 0.0] = xpre[fpre == 0.0]
    at_hi = (fcur == 0.0) & (fpre != 0.0)
    out[at_hi] = xcur[at_hi]
    go = (fpre != 0.0) & (fcur != 0.0)
    if np.any(go & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    sel, xpre, xcur, fpre, fcur = sel[go], xpre[go], xcur[go], fpre[go], fcur[go]
    xblk = np.zeros(len(sel))
    fblk = np.zeros(len(sel))
    spre = np.zeros(len(sel))
    scur = np.zeros(len(sel))
    for _ in range(maxiter):
        if not len(sel):
            break
        new_blk = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(new_blk, xpre, xblk)
        fblk = np.where(new_blk, fpre, fblk)
        spre = np.where(new_blk, xcur - xpre, spre)
        scur = np.where(new_blk, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            out[sel[done]] = xcur[done]
            keep = ~done
            sel, xpre, xcur, xblk = sel[keep], xpre[keep], xcur[keep], xblk[keep]
            fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
            spre, scur, delta, sbis = spre[keep], scur[keep], delta[keep], sbis[keep]
            if not len(sel):
                break
        with np.errstate(divide="ignore", invalid="ignore"):
            s_int = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            s_ext = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, s_int, s_ext)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        dx = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        xcur = xpre + dx
        fcur = f(xcur, sel)
    else:  # pragma: no cover - brentq's own iteration cap
        raise RuntimeError("lockstep Brent iteration did not converge")
    return out
