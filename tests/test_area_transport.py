"""Area transport by the period map, as an exact identity.

For a closed curve C bounding a disk D on which the period map P is smooth
and injective, the area enclosed by P(C) equals the integral of det DP over
D.  Along impact-only trajectories det DP = 1, so P(C) encloses the area of
C: the paper's Hamiltonian claim in its global form.  Where velocities
vanish (turning points) det DP is a product of turning ratios, and the
identity ties the mapped boundary to the structural det inside.

The area of a mapped curve is the shoelace area of n mapped points, equally
spaced in angle, extrapolated in n: a polygon inscribed in a smooth closed
curve so parametrized misses c / n^2 + O(n^-4) of its area.
"""

import math

import numpy as np
import pytest

from vibroimpact import make_params
from vibroimpact.orbits import symmetric_orbit_formula, symmetric_orbit_state
from vibroimpact.strobemap import period_map_batch

N_POINTS = 2000


def _ellipse(cx, cv, a, b, n):
    th = 2.0 * math.pi * np.arange(n) / n
    return cx + a * np.cos(th), cv + b * np.sin(th)


def _shoelace(x, v):
    return 0.5 * float(np.sum(x * np.roll(v, -1) - np.roll(x, -1) * v))


def _mapped_area(p, t0, cx, cv, a, b):
    """Area enclosed by P of the ellipse, and the map of its points."""
    batch = period_map_batch(p, *_ellipse(cx, cv, a, b, N_POINTS), t0)
    fine = _shoelace(batch.out_x, batch.out_v)
    coarse = _shoelace(batch.out_x[::2], batch.out_v[::2])
    return (4.0 * fine - coarse) / 3.0, batch


def _det_integral(p, t0, cx, cv, radius, n_r=8, n_th=32):
    """Gauss-Legendre in r, trapezoid in angle: the integral of det DP over
    the disk, and the map of the quadrature points."""
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * radius * (nodes + 1.0)
    th = 2.0 * math.pi * np.arange(n_th) / n_th
    batch = period_map_batch(p, (cx + np.outer(r, np.cos(th))).ravel(),
                             (cv + np.outer(r, np.sin(th))).ravel(), t0)
    det = batch.det.reshape(n_r, n_th)
    w_r = 0.5 * radius * weights * r
    return float(w_r @ det.sum(axis=1)) * 2.0 * math.pi / n_th, batch


@pytest.mark.parametrize("f", [0.005, 0.05, 0.2])
def test_impact_only_ellipse_keeps_its_area(f):
    """Ellipses around the island centre at the mid-flight phase T/4."""
    p = make_params(F=1.0, f=f, omega=2 * math.pi, l=-1.0, r=1.0)
    t0 = 0.25 * p.T
    centre = symmetric_orbit_state(p, symmetric_orbit_formula(p, 1), t0)
    area, batch = _mapped_area(p, t0, centre.x, centre.v, 0.3, 0.5)
    assert (batch.code == 0).all() and not batch.dissipative.any()
    exact = math.pi * 0.3 * 0.5
    assert abs(area - exact) <= 1e-10 * exact


def test_wall_vanishing_circle_keeps_its_area(wall_vanishing):
    area, batch = _mapped_area(wall_vanishing, 0.0, 0.0, 1.3, 0.05, 0.05)
    assert (batch.code == 0).all() and not batch.dissipative.any()
    exact = math.pi * 0.05 ** 2
    assert abs(area - exact) <= 1e-10 * exact


CONTRACTING_DISKS = [
    ("uniform", (0.55, -0.1)), ("uniform", (0.27, 0.14)),
    ("uniform", (-0.71, 0.1)), ("uniform", (-0.93, -0.1)),
    ("uniform", (-0.09, 0.06)), ("uniform", (-0.25, -0.06)),
    ("wall_vanishing", (0.675, -0.025)), ("wall_vanishing", (-0.725, 0.075)),
    ("wall_vanishing", (-0.175, -0.075)),
]


@pytest.mark.parametrize("law,centre", CONTRACTING_DISKS)
def test_contracting_disk_maps_onto_the_integral_of_det(law, centre, fast,
                                                        wall_vanishing):
    """Disks of radius 0.02 in the contracting region at t0 = 0, each inside
    one piece of the map: every point has the same event counts."""
    p = fast if law == "uniform" else wall_vanishing
    radius = 0.02
    area, edge = _mapped_area(p, 0.0, *centre, radius, radius)
    integral, inner = _det_integral(p, 0.0, *centre, radius)
    counts = np.concatenate([edge.counts, inner.counts])
    assert (counts == counts[0]).all() and counts[0, 1] > 0
    assert (edge.code == 1).all() and (inner.code == 1).all()
    assert integral < 0.9 * math.pi * radius ** 2
    assert abs(area - integral) <= 1e-9 * integral
