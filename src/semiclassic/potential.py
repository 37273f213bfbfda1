"""Analytic 1-D potential models, turning-point location, local wavenumbers.

All models evaluate V(x), dV/dx and d2V/dx2 for scalar or array ``x``.  The
scattering problem bundles a potential with a physical context (mass, hbar),
an energy and a working domain; everything downstream consumes that bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize_scalar

from .errors import DomainError, MultiWellError

__all__ = [
    "PhysicalContext",
    "PotentialModel",
    "SquareBarrier",
    "GaussianBump",
    "EckartBarrier",
    "HarmonicWell",
    "LinearRamp",
    "ParabolicBarrier",
    "TabulatedPotential",
    "ScatteringProblem",
    "TurningPoints",
    "evaluate",
    "derivative",
    "second_derivative",
    "find_turning_points",
    "local_wavenumber",
    "exclusion_radius",
]

#: Panels of the scan for the extrema of V (2049 samples over the domain).
_SCAN_PANELS = 2048


@dataclass(frozen=True)
class PhysicalContext:
    """Unit system: particle mass and hbar. Defaults to m = hbar = 1."""

    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise DomainError(f"hbar must be positive and finite, got {self.hbar}")


def _elementwise(body, x):
    """``body`` applied to x as a float array: an array back, or a float for scalar x."""
    xa = np.asarray(x, dtype=float)
    out = body(xa)
    return out if xa.ndim else float(out)


class PotentialModel:
    """Base class: analytic V(x) with first and second derivatives.

    Models implement ``_value``, ``_derivative`` and ``_second_derivative`` on
    float arrays; the public methods take a scalar or an array and return the
    same kind.  A model must not change after construction (the built-in
    ones are frozen dataclasses): the extrema of V found on a domain are kept
    on the instance.
    """

    def _value(self, x: np.ndarray):
        raise NotImplementedError

    def _derivative(self, x: np.ndarray):
        raise NotImplementedError

    def _second_derivative(self, x: np.ndarray):
        raise NotImplementedError

    def value(self, x):
        return _elementwise(self._value, x)

    def derivative(self, x):
        return _elementwise(self._derivative, x)

    def second_derivative(self, x):
        return _elementwise(self._second_derivative, x)

    def __call__(self, x):
        return self.value(x)


def _require_positive(name: str, v: float) -> None:
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"{name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class SquareBarrier(PotentialModel):
    """Rectangular barrier of the given height and width.

    The value exactly at either edge is the midpoint height/2, so grids whose
    nodes land on the edges average the jump instead of biasing it one way.
    """

    height: float
    width: float
    center: float = 0.0

    def __post_init__(self) -> None:
        _require_positive("width", self.width)

    def _value(self, x):
        dx = np.abs(x - self.center)
        half = 0.5 * self.width
        out = np.where(dx < half, self.height, 0.0)
        return np.where(dx == half, 0.5 * self.height, out)

    def _derivative(self, x):
        # Zero almost everywhere; the edge delta spikes are not representable.
        return np.zeros_like(x)

    def _second_derivative(self, x):
        return np.zeros_like(x)


@dataclass(frozen=True)
class GaussianBump(PotentialModel):
    """V(x) = A exp(-((x - c)/d)^2)."""

    amplitude: float
    width: float
    center: float = 0.0

    def __post_init__(self) -> None:
        _require_positive("width", self.width)

    def _value(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * np.exp(-u * u)

    def _derivative(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * np.exp(-u * u) * (-2.0 * u / self.width)

    def _second_derivative(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * np.exp(-u * u) * (4.0 * u * u - 2.0) / self.width**2


@dataclass(frozen=True)
class EckartBarrier(PotentialModel):
    """V(x) = V0 sech^2((x - c)/d)."""

    height: float
    width: float
    center: float = 0.0

    def __post_init__(self) -> None:
        _require_positive("width", self.width)

    def _value(self, x):
        u = (x - self.center) / self.width
        return self.height / np.cosh(u) ** 2

    def _derivative(self, x):
        u = (x - self.center) / self.width
        s = 1.0 / np.cosh(u)
        return -2.0 * self.height * s * s * np.tanh(u) / self.width

    def _second_derivative(self, x):
        u = (x - self.center) / self.width
        s2 = 1.0 / np.cosh(u) ** 2
        return (self.height / self.width**2) * (4.0 * s2 - 6.0 * s2 * s2)


@dataclass(frozen=True)
class HarmonicWell(PotentialModel):
    """V(x) = stiffness x^2 / 2."""

    stiffness: float

    def __post_init__(self) -> None:
        _require_positive("stiffness", self.stiffness)

    def _value(self, x):
        return 0.5 * self.stiffness * x * x

    def _derivative(self, x):
        return self.stiffness * x

    def _second_derivative(self, x):
        return np.full_like(x, self.stiffness)


@dataclass(frozen=True)
class LinearRamp(PotentialModel):
    """V(x) = offset + slope * x."""

    offset: float
    slope: float

    def _value(self, x):
        return self.offset + self.slope * x

    def _derivative(self, x):
        return np.full_like(x, self.slope)

    def _second_derivative(self, x):
        return np.zeros_like(x)


@dataclass(frozen=True)
class ParabolicBarrier(PotentialModel):
    """Inverted parabola V(x) = V0 - curvature (x - c)^2 / 2.

    The canonical smooth barrier: its opacity integral has the closed form
    pi (V0 - E) sqrt(m / curvature) / hbar, which makes it the standard
    cross-check for barrier quadrature.
    """

    height: float
    curvature: float
    center: float = 0.0

    def __post_init__(self) -> None:
        _require_positive("curvature", self.curvature)

    def _value(self, x):
        dx = x - self.center
        return self.height - 0.5 * self.curvature * dx * dx

    def _derivative(self, x):
        return -self.curvature * (x - self.center)

    def _second_derivative(self, x):
        return np.full_like(x, -self.curvature)


@dataclass(frozen=True)
class TabulatedPotential(PotentialModel):
    """Cubic interpolation through (x, V) samples on a strictly increasing grid.

    Cubic (not-a-knot) interpolation keeps V'' continuous, which the
    effective-perturbation machinery needs.  dV/dx follows the stated
    contract: a central finite difference of the interpolant with step
    1e-6 max(1, |x|), shrunk near the grid edges to stay in range.
    """

    xs: tuple
    vs: tuple
    _spline: CubicSpline = field(init=False, repr=False, compare=False)

    def __init__(self, xs, vs):
        xs = tuple(float(v) for v in xs)
        vs = tuple(float(v) for v in vs)
        if len(xs) < 4:
            raise DomainError(f"tabulated grid needs >= 4 points, got {len(xs)}")
        if len(xs) != len(vs):
            raise DomainError("tabulated grid: x and V lengths differ")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("tabulated grid must be strictly increasing in x")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "_spline", CubicSpline(xs, vs, bc_type="not-a-knot"))

    def _check_range(self, x) -> None:
        if np.any(x < self.xs[0]) or np.any(x > self.xs[-1]):
            raise DomainError(
                f"x outside tabulated range [{self.xs[0]}, {self.xs[-1]}]"
            )

    def _value(self, x):
        self._check_range(x)
        return self._spline(x)

    def _derivative(self, x):
        self._check_range(x)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        h = np.minimum(h, np.minimum(x - self.xs[0], self.xs[-1] - x))
        h = np.maximum(h, 1e-12)
        return (self._spline(x + h) - self._spline(x - h)) / (2.0 * h)

    def _second_derivative(self, x):
        self._check_range(x)
        return self._spline(x, 2)


@dataclass(frozen=True)
class ScatteringProblem:
    """A potential, an energy and a domain in a fixed unit system."""

    potential: PotentialModel
    energy: float
    domain: tuple = (-10.0, 10.0)
    context: PhysicalContext = PhysicalContext()

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"domain must satisfy x_min < x_max, got {self.domain}")
        if not math.isfinite(self.energy):
            raise DomainError(f"energy must be finite, got {self.energy}")
        object.__setattr__(self, "domain", (float(lo), float(hi)))

    # Short-hand evaluators -------------------------------------------------

    def v(self, x):
        return self.potential.value(x)

    def dv(self, x):
        return self.potential.derivative(x)

    def d2v(self, x):
        return self.potential.second_derivative(x)

    def momentum(self, x):
        """p(x) = sqrt(2m(E - V)); nan where classically forbidden."""
        with np.errstate(invalid="ignore"):
            return _elementwise(
                lambda xa: np.sqrt(2.0 * self.context.mass * (self.energy - self.v(xa))), x
            )

    def beta(self, x):
        """Decay rate sqrt(2m(V - E))/hbar; nan where classically allowed."""
        with np.errstate(invalid="ignore"):
            return _elementwise(
                lambda xa: np.sqrt(2.0 * self.context.mass * (self.v(xa) - self.energy))
                / self.context.hbar,
                x,
            )


@dataclass(frozen=True)
class TurningPoints:
    """Classical turning points: count in {0, 1, 2}; a < b when both exist."""

    a: float | None
    b: float | None
    count: int


def evaluate(potential: PotentialModel, x):
    """V(x)."""
    if np.any(~np.isfinite(np.asarray(x, dtype=float))):
        raise DomainError("x must be finite")
    return potential.value(x)


def derivative(potential: PotentialModel, x):
    """dV/dx."""
    if np.any(~np.isfinite(np.asarray(x, dtype=float))):
        raise DomainError("x must be finite")
    return potential.derivative(x)


def second_derivative(potential: PotentialModel, x):
    """d2V/dx2."""
    if np.any(~np.isfinite(np.asarray(x, dtype=float))):
        raise DomainError("x must be finite")
    return potential.second_derivative(x)


def _knots(problem: ScatteringProblem) -> tuple:
    """Domain edges and refined interior extrema of V, as increasing (x, V) pairs.

    One vectorised pass over ``_SCAN_PANELS + 1`` samples finds where the
    slope of V changes sign (a flat run counts once); each extremum is then
    refined by bounded Brent minimisation between the samples around it.  V
    is monotone between neighbouring knots, up to features narrower than a
    panel.  The knots depend on the potential and the domain only, so they
    are found once per domain and kept on the (frozen) potential instance,
    outside its fields: equality, hash and repr do not see them.
    """
    stored = vars(problem.potential).setdefault("_knots_by_domain", {})
    if problem.domain in stored:
        return stored[problem.domain]
    lo, hi = problem.domain
    xs = np.linspace(lo, hi, _SCAN_PANELS + 1)
    vs = problem.v(xs)
    slope = np.sign(np.diff(vs))
    steps = np.flatnonzero(slope)
    turns = np.flatnonzero(slope[steps[:-1]] != slope[steps[1:]])
    knots = [(lo, float(vs[0]))]
    for i, j in zip(steps[turns], steps[turns + 1]):
        sign = slope[i]  # +1 at a maximum, -1 at a minimum
        res = minimize_scalar(
            lambda x: -sign * problem.v(x),
            bounds=(xs[i], xs[j + 1]),
            method="bounded",
            options={"xatol": 1e-6 * (xs[1] - xs[0])},
        )
        x, v = float(res.x), float(problem.v(res.x))
        if sign * v < sign * vs[i + 1]:  # keep the best sample if Brent did worse
            x, v = float(xs[i + 1]), float(vs[i + 1])
        knots.append((x, v))
    knots.append((hi, float(vs[-1])))
    stored[problem.domain] = tuple(knots)
    return stored[problem.domain]


def find_turning_points(problem: ScatteringProblem) -> TurningPoints:
    """Locate the roots of V(x) - E inside the problem domain.

    Each monotone piece between the extrema of V (:func:`_knots`, found once
    per potential and domain) holds at most one root, bracketed by its ends
    and found by brentq, so two roots closer than a scan panel are both
    found.  More than two roots means a multi-well landscape, which is
    rejected rather than silently truncated.
    """
    knots = _knots(problem)
    e = problem.energy
    roots: list[float] = []
    for (x0, v0), (x1, v1) in zip(knots, knots[1:]):
        if v0 == e:
            roots.append(x0)
        elif (v0 - e) * (v1 - e) < 0.0:
            xtol = 4e-16 * max(1.0, abs(x0), abs(x1))
            roots.append(brentq(lambda x: problem.v(x) - e, x0, x1, xtol=xtol))
    if knots[-1][1] == e:
        roots.append(knots[-1][0])

    if len(roots) > 2:
        raise MultiWellError(
            f"found {len(roots)} turning points; only single-barrier/single-well "
            "potentials (at most 2) are supported"
        )
    if not roots:
        return TurningPoints(a=None, b=None, count=0)
    if len(roots) == 1:
        return TurningPoints(a=roots[0], b=None, count=1)
    return TurningPoints(a=roots[0], b=roots[1], count=2)


def local_wavenumber(problem: ScatteringProblem, x: float) -> complex:
    """k(x) = sqrt(2m(E - V))/hbar, continued to i beta(x) where E < V."""
    m, hbar = problem.context.mass, problem.context.hbar
    diff = problem.energy - problem.v(x)
    if diff >= 0.0:
        return complex(math.sqrt(2.0 * m * diff) / hbar, 0.0)
    return complex(0.0, math.sqrt(-2.0 * m * diff) / hbar)


def exclusion_radius(problem: ScatteringProblem, x_c: float) -> float:
    """Airy length (hbar^2 / (2m |V'(x_c)|))^(1/3) around a turning point.

    The slope is the larger of the analytic derivative and a finite
    difference across the point, so potential jumps (where the analytic
    slope reads 0 but the physical one is effectively infinite) shrink the
    zone instead of inflating it.  A genuinely flat turning point, e.g. a
    smooth barrier top at E = V_max, has no WKB region at all: inf.
    """
    m, hbar = problem.context.mass, problem.context.hbar
    slope = abs(problem.dv(x_c))
    delta = 1e-6 * max(1.0, abs(x_c))
    lo, hi = problem.domain
    lo_pt, hi_pt = max(x_c - delta, lo), min(x_c + delta, hi)
    if hi_pt > lo_pt:
        slope = max(
            slope, abs(problem.v(hi_pt) - problem.v(lo_pt)) / (hi_pt - lo_pt)
        )
    if slope == 0.0:
        return math.inf
    return (hbar * hbar / (2.0 * m * slope)) ** (1.0 / 3.0)
