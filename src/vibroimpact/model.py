"""Domain types, parameter validation and the force-law abstraction.

Everything downstream (flight arcs, the event-driven simulator, the
stroboscopic map, orbit solvers) works on the immutable ``Params`` object,
which validates itself when it is built (``Params(...)``,
:func:`make_params` or :func:`params_from_dict`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain


TWO_PI = 2.0 * math.pi


class ForceLaw(str, Enum):
    """Spatial shape of the periodic driving force."""

    UNIFORM = "uniform"                  # F cos(omega t), independent of x
    WALL_VANISHING = "wall_vanishing"    # F cos(pi x / 2) cos(omega t), walls at +-1


class ParameterError(ValueError):
    """Raised for physically inadmissible oscillator parameters."""


class ContractViolation(RuntimeError):
    """Raised when an operation is called outside its stated preconditions."""


@dataclass(frozen=True)
class Params:
    """Oscillator parameters, validated when built (ParameterError).

    F      : forcing amplitude (force per unit mass), >= 0
    f      : kinetic friction magnitude (same units), >= 0
    omega  : forcing angular frequency, > 0
    l, r   : left / right wall positions, r > l
    force_law : spatial force law selector (a ForceLaw or its value)

    Derived: ``R = r - l``, ``T = 2 pi / omega`` and ``globally_sticking``,
    set where friction can hold the particle at rest everywhere for all
    phases (uniform law with f >= F); such runs are legal but every
    velocity-zero event is a permanent stop.
    """

    F: float
    f: float
    omega: float
    l: float
    r: float
    force_law: ForceLaw = ForceLaw.UNIFORM
    R: float = field(init=False)
    T: float = field(init=False)
    globally_sticking: bool = field(init=False)

    def __post_init__(self):
        vals = (self.F, self.f, self.omega, self.l, self.r)
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError("parameters must be finite")
        if self.r <= self.l:
            raise ParameterError(f"need r > l, got l={self.l}, r={self.r}")
        if self.omega <= 0.0:
            raise ParameterError(f"need omega > 0, got {self.omega}")
        if self.F < 0.0 or self.f < 0.0:
            raise ParameterError("F and f must be non-negative")
        law = ForceLaw(self.force_law)
        if law is ForceLaw.WALL_VANISHING and not (self.l == -1.0 and self.r == 1.0):
            raise ParameterError("wall-vanishing law requires walls at l=-1, r=1")
        # frozen: the normalised and derived fields are set through object
        for name, value in zip(("F", "f", "omega", "l", "r"), vals):
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "force_law", law)
        object.__setattr__(self, "R", self.r - self.l)
        object.__setattr__(self, "T", TWO_PI / self.omega)
        object.__setattr__(self, "globally_sticking", self.f >= self.F)

    def replace_friction(self, f: float) -> "Params":
        return Params(self.F, f, self.omega, self.l, self.r, self.force_law)


@dataclass(frozen=True)
class PhaseState:
    """A point of the extended phase space: position, velocity, absolute time."""

    x: float
    v: float
    t: float = 0.0


@dataclass(frozen=True)
class StickingBand:
    """Equilibrium set of the wall-vanishing law.

    ``eta`` is the inner edge of the band: states with v = 0 and |x| >= eta
    stay at rest forever because the force envelope F cos(pi x / 2) never
    exceeds friction there.  ``intervals`` lists the closed x-intervals.
    """

    eta: float
    intervals: tuple[tuple[float, float], ...]

    def contains(self, x: float) -> bool:
        return any(a <= x <= b for a, b in self.intervals)


def make_params(F: float, f: float, omega: float, l: float, r: float,
                force_law: ForceLaw | str = ForceLaw.UNIFORM) -> Params:
    """Build a validated :class:`Params` (the same as calling it)."""
    return Params(F, f, omega, l, r, force_law)


def spatial_envelope(p: Params, x: float) -> float:
    """Force amplitude at position x (the factor multiplying cos(omega t))."""
    if p.force_law is ForceLaw.UNIFORM:
        return p.F
    return p.F * math.cos(0.5 * math.pi * x)


def applied_force(p: Params, x: float, t: float) -> float:
    """External force at (x, t) under the selected law."""
    return spatial_envelope(p, x) * math.cos(p.omega * t)


def sticking_band(p: Params) -> StickingBand:
    """Rest band of the wall-vanishing law.

    The inner edge eta solves F cos(pi eta / 2) = f, i.e.
    eta = (2/pi) arccos(f/F); friction dominates the force envelope on
    [-1, -eta] and [eta, 1].  With f >= F the whole interval is at rest
    (eta = 0); the band is undefined for the uniform law.
    """
    if p.force_law is not ForceLaw.WALL_VANISHING:
        raise ParameterError("sticking band is defined for the wall-vanishing law only")
    if p.f >= p.F:
        return StickingBand(eta=0.0, intervals=((-1.0, 1.0),))
    eta = (2.0 / math.pi) * math.acos(p.f / p.F)
    return StickingBand(eta=eta, intervals=((-1.0, -eta), (eta, 1.0)))


# ---------------------------------------------------------------------------
# serialization: the ``params`` mapping of configs and logs; CSV tables
# ---------------------------------------------------------------------------

def csv_text(header, rows) -> str:
    """A CSV table: one comma-separated, "\\n"-ended line for the header and
    each row; a float (numpy's too) as %.17g, None empty, anything else str."""
    return "".join(",".join("%.17g" % c if isinstance(c, float) else
                            "" if c is None else str(c) for c in row) + "\n"
                   for row in chain([header], rows))


def params_to_dict(p: Params) -> dict:
    return {"F": p.F, "f": p.f, "omega": p.omega, "l": p.l, "r": p.r,
            "force_law": p.force_law.value}


def params_from_dict(d: dict) -> Params:
    missing = [k for k in ("F", "f", "omega", "l", "r") if k not in d]
    if missing:
        raise ParameterError(f"missing parameter keys: {missing}")
    law = d.get("force_law", ForceLaw.UNIFORM.value)
    try:
        vals = [float(d[k]) for k in ("F", "f", "omega", "l", "r")]
        law = ForceLaw(str(law))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"malformed parameters: {exc}") from exc
    return Params(*vals, law)
