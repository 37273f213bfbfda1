"""Analytic 1-D potential models, turning-point location, exclusion radii.

All models evaluate V(x), dV/dx and d2V/dx2 for scalar or array ``x``.  The
scattering problem bundles a potential with a physical context (mass, hbar),
an energy and a working domain; everything downstream consumes that bundle.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._lazy import lazy
from .errors import DomainError, MultiWellError, NumericalError, SpectrumError

interpolate = lazy("scipy.interpolate")

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
    "exclusion_radius",
]

#: Panels of the scan for the extrema of V (2049 samples over the domain).
_SCAN_PANELS = 2048
#: Relative tolerance of :func:`_bracketed_roots`: 4 ulp, as scipy's brentq.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
#: Steps after which :func:`_bracketed_roots` gives up (bisection alone
#: narrows a bracket by 2^-200).
_ROOT_MAX_STEPS = 200
#: Brackets up to which :func:`_bracketed_roots` steps in Python floats, and
#: energies up to which :func:`_turning_points` places closed-form roots in
#: floats: on so few entries numpy's per-call cost outweighs the arithmetic
#: (a root step on arrays makes ~55 numpy calls; Eckart roots from scan
#: panels, on 2 cores: 0.36 of the time at 1 bracket, 0.38 at 3, 0.45 at 6).
_FEW_ROOTS = 3


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
    on the instance.  Every field of a dataclass model must be finite, and
    those named in ``_positive`` must also be > 0.

    A model with its one extremum at ``center`` and V invertible in closed
    form states ``_reach(e)``, on arrays: the distance from ``center`` to the
    root of V = e on either side (to the jump, for a step), so its turning
    points need no scan and no root solve; ``_reach = None`` has them scanned.
    """

    _positive = ()
    _reach = None

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name in self._positive and not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{f.name} must be strictly positive, got {v}")
            if not math.isfinite(v):
                raise DomainError(f"{f.name} must be finite, got {v}")

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

    @property
    def jumps(self) -> tuple:
        """The points where V jumps, which V' and V'' do not see: none."""
        return ()


@dataclass(frozen=True)
class SquareBarrier(PotentialModel):
    """Rectangular barrier of the given height and width.

    The value exactly at either edge is the midpoint height/2, so grids whose
    nodes land on the edges average the jump instead of biasing it one way.
    """

    height: float
    width: float
    center: float = 0.0

    _positive = ("width",)

    def _value(self, x):
        dx = np.abs(x - self.center)
        half = 0.5 * self.width
        out = np.where(dx < half, self.height, 0.0)
        return np.where(dx == half, 0.5 * self.height, out)

    @property
    def jumps(self) -> tuple:
        half = 0.5 * self.width
        return (self.center - half, self.center + half) if self.height else ()

    def _derivative(self, x):
        # Zero almost everywhere; the edge delta spikes are not representable.
        return np.zeros_like(x)

    def _second_derivative(self, x):
        return np.zeros_like(x)

    def _reach(self, e):
        return np.full_like(e, 0.5 * self.width)


def _of_ratio(top: float, e: np.ndarray, body, tail) -> np.ndarray:
    """body((top - e)/e), but tail(its log) where a subnormal e overflows the ratio
    (there top - e rounds to top), with no warning."""
    with np.errstate(over="ignore"):
        ratio = (top - e) / e
    out, over = body(ratio), np.isinf(ratio)
    out[over] = tail(math.log(abs(top)) - np.log(np.abs(e[over])))
    return out


@dataclass(frozen=True)
class GaussianBump(PotentialModel):
    """V(x) = A exp(-((x - c)/d)^2)."""

    amplitude: float
    width: float
    center: float = 0.0

    _positive = ("width",)

    def _value(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * np.exp(-u * u)

    def _derivative(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * np.exp(-u * u) * (-2.0 * u / self.width)

    def _second_derivative(self, x):
        u = (x - self.center) / self.width
        return self.amplitude * np.exp(-u * u) * (4.0 * u * u - 2.0) / self.width**2

    def _reach(self, e):
        return self.width * np.sqrt(_of_ratio(self.amplitude, e, np.log1p, lambda log: log))


@dataclass(frozen=True)
class EckartBarrier(PotentialModel):
    """V(x) = V0 sech^2((x - c)/d)."""

    height: float
    width: float
    center: float = 0.0

    _positive = ("width",)

    # cosh(u) and its square overflow to inf far out (|u| > ~355), where
    # 1/inf = 0 is the exact limit: the overflow is not worth a warning.

    def _value(self, x):
        u = (x - self.center) / self.width
        with np.errstate(over="ignore"):
            return self.height / np.cosh(u) ** 2

    def _derivative(self, x):
        u = (x - self.center) / self.width
        with np.errstate(over="ignore"):
            s = 1.0 / np.cosh(u)
        return -2.0 * self.height * s * s * np.tanh(u) / self.width

    def _second_derivative(self, x):
        u = (x - self.center) / self.width
        with np.errstate(over="ignore"):
            s2 = 1.0 / np.cosh(u) ** 2
        return (self.height / self.width**2) * (4.0 * s2 - 6.0 * s2 * s2)

    def _reach(self, e):
        # arcsinh(y) = log 2y once y^2 overflows.
        return self.width * _of_ratio(self.height, e, lambda r: np.arcsinh(np.sqrt(r)),
                                      lambda log: math.log(2.0) + 0.5 * log)


@dataclass(frozen=True)
class HarmonicWell(PotentialModel):
    """V(x) = stiffness x^2 / 2."""

    stiffness: float

    _positive = ("stiffness",)
    center = 0.0

    def _value(self, x):
        return 0.5 * self.stiffness * x * x

    def _derivative(self, x):
        return self.stiffness * x

    def _second_derivative(self, x):
        return np.full_like(x, self.stiffness)

    def _reach(self, e):
        return np.sqrt(2.0 * e / self.stiffness)


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

    _positive = ("curvature",)

    def _value(self, x):
        dx = x - self.center
        return self.height - 0.5 * self.curvature * dx * dx

    def _derivative(self, x):
        return -self.curvature * (x - self.center)

    def _second_derivative(self, x):
        return np.full_like(x, -self.curvature)

    def _reach(self, e):
        return np.sqrt(2.0 * (self.height - e) / self.curvature)


@dataclass(frozen=True)
class TabulatedPotential(PotentialModel):
    """Cubic interpolation through (x, V) samples on a strictly increasing grid.

    Cubic (not-a-knot) interpolation keeps V'' continuous, which the
    effective-perturbation machinery needs.  V' and V'' are the exact
    derivatives of the interpolant.
    """

    xs: tuple
    vs: tuple
    _spline: interpolate.CubicSpline = field(init=False, repr=False, compare=False)

    def __init__(self, xs, vs):
        xs = tuple(float(v) for v in xs)
        vs = tuple(float(v) for v in vs)
        if len(xs) < 4:
            raise DomainError(f"tabulated grid needs >= 4 points, got {len(xs)}")
        if len(xs) != len(vs):
            raise DomainError("tabulated grid: x and V lengths differ")
        if not all(map(math.isfinite, xs + vs)):
            raise DomainError("tabulated grid: x and V must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("tabulated grid must be strictly increasing in x")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        spline = interpolate.CubicSpline(xs, vs, bc_type="not-a-knot")
        object.__setattr__(self, "_spline", spline)

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
        return self._spline(x, 1)

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


def _require_finite(x, what: str = "x") -> np.ndarray:
    """x as a float array; a point that is not finite raises :class:`DomainError`."""
    xa = np.asarray(x, dtype=float)
    # A scalar is checked in Python floats: the ufunc costs ~5x as much.
    if not (math.isfinite(xa) if xa.ndim == 0 else np.isfinite(xa).all()):
        raise DomainError(f"{what} must be finite")
    return xa


def _require_count(n, what: str, least: int = 0) -> int:
    """n as an int; a non-integer or one below ``least`` raises :class:`DomainError`."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}") from None
    if n < least:
        raise DomainError(f"{what} must be >= {least}, got {n}")
    return n


def evaluate(potential: PotentialModel, x):
    """V(x)."""
    _require_finite(x)
    return potential.value(x)


def derivative(potential: PotentialModel, x):
    """dV/dx."""
    _require_finite(x)
    return potential.derivative(x)


def second_derivative(potential: PotentialModel, x):
    """d2V/dx2."""
    _require_finite(x)
    return potential.second_derivative(x)


def _bracketed_roots(f, lo, hi, f_lo, f_hi, xtol) -> np.ndarray:
    """A root of f in each of many brackets, all solved in one loop.

    Chandrupatla's hybrid of inverse quadratic interpolation and bisection
    (T. R. Chandrupatla, Adv. Eng. Softw. 28, 145 (1997)), on arrays.  Entry
    i brackets a root between lo[i] and hi[i], where its values f_lo[i] and
    f_hi[i] differ in sign or vanish; ``f(x, idx)`` evaluates the function of
    entry idx[k] at x[k], one point per live bracket and step.  An entry
    stops at a zero value or once its bracket is narrower than xtol[i] +
    4 eps |x|, at the end with the smaller |f|, and is dropped from the loop,
    so its root depends on its own bracket and values only, not on the other
    entries of the call.  A call of at most :data:`_FEW_ROOTS` brackets takes
    the same steps in Python floats (:func:`_few_roots`), to the same roots.
    """
    lo, hi, f_lo, f_hi = (np.asarray(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    roots = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
    live = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0))
    if not len(live):
        return roots
    a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
    xtol = (np.zeros_like(roots) + xtol)[live]
    if len(live) <= _FEW_ROOTS:
        return _few_roots(f, roots, live, a, b, fa, fb, xtol)
    width = b - a
    t = fa / (fa - fb)  # the first step interpolates linearly
    for _ in range(_ROOT_MAX_STEPS):
        x = a + t * width
        fx = np.asarray(f(x, live), dtype=float)
        # x becomes a.  b becomes the old a where f has lost a's sign at x,
        # else stays, and c is the end dropped; where neither f(x) nor fb
        # has lost it (a nan value), a and b stay and c = b.
        sign = np.sign(fa)
        lost = fx * sign <= 0.0
        stay = ~lost & ~(fb * sign <= 0.0)
        to_b = lost | stay
        c, fc = np.where(to_b, b, a), np.where(to_b, fb, fa)
        b, fb = np.where(lost, a, b), np.where(lost, fa, fb)
        a, fa = np.where(stay, a, x), np.where(stay, fa, fx)
        width = b - a
        tol = xtol + _ROOT_RTOL * np.abs(a)
        done = (np.abs(width) < tol) | (fa == 0.0)
        if np.count_nonzero(done):
            roots[live[done]] = np.where(np.abs(fa) < np.abs(fb), a, b)[done]
            if done.all():
                return roots
            keep = ~done
            live, a, b, c, fa, fb, fc, xtol, tol, width = (
                v[keep] for v in (live, a, b, c, fa, fb, fc, xtol, tol, width)
            )
        # Inverse quadratic interpolation through a, b and c where the paper's
        # test (xi, phi) keeps it inside the bracket, else bisection; never
        # closer than tol / 2 to either end.
        d_ab, d_cb = fb - fa, fb - fc
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = width / (b - c), d_ab / d_cb
            t = fa / d_cb * (fc / d_ab - (c - a) * fb / (width * (fc - fa)))
        iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
        tl = tol / np.abs(width + width)
        t = np.minimum(np.maximum(np.where(iqi, t, 0.5), tl), 1.0 - tl)
    raise NumericalError(f"root solver did not converge in {_ROOT_MAX_STEPS} steps")


def _quotient(u: float, v: float) -> float:
    """u / v, with numpy's inf or nan where v is 0."""
    if v:
        return u / v
    return math.copysign(math.inf, u) * math.copysign(1.0, v) if u and u == u else math.nan


def _few_roots(f, roots, live, a, b, fa, fb, xtol) -> np.ndarray:
    """The steps of :func:`_bracketed_roots` for a few brackets, each kept in
    Python floats.  f gets the same points in one array per step, and each
    float operation is the one numpy makes on that bracket's entry, so every
    root is the same bit for bit; only numpy's per-call cost is saved."""
    brackets = [
        (a, b - a, fa / (fa - fb), b, fa, fb, xtol, k)
        for a, b, fa, fb, xtol, k in zip(*(v.tolist() for v in (a, b, fa, fb, xtol, live)))
    ]
    for _ in range(_ROOT_MAX_STEPS):
        xs = [a + t * width for a, width, t, *_ in brackets]
        ks = [bracket[-1] for bracket in brackets]
        values = np.asarray(f(np.array(xs), np.array(ks)), dtype=float).tolist()
        still = []
        for (a, _, _, b, fa, fb, xtol, k), x, fx in zip(brackets, xs, values):
            # numpy's sign, nan for a nan fa, so that no value loses it.
            sign = 1.0 if fa > 0.0 else -1.0 if fa < 0.0 else math.nan
            if fx * sign <= 0.0:
                a, b, c, fa, fb, fc = x, a, b, fx, fa, fb
            elif fb * sign <= 0.0:
                a, c, fa, fc = x, a, fx, fa
            else:
                c, fc = b, fb
            width = b - a
            tol = xtol + _ROOT_RTOL * abs(a)
            if abs(width) < tol or fa == 0.0:
                roots[k] = a if abs(fa) < abs(fb) else b
                continue
            # c lies on a's side of the root and b on the other, so b != c and
            # fb != fc but where fa is nan; there numpy's xi or phi is inf or
            # nan and fails the test.  Where the test passes, fc != fa (phi is
            # 1 on a flat stretch), and the last divisor is 0 only by underflow.
            t = 0.5
            d_ab, d_cb = fb - fa, fb - fc
            if b != c and d_cb != 0.0:
                xi, phi = width / (b - c), d_ab / d_cb
                if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                    t = fa / d_cb * (fc / d_ab - _quotient((c - a) * fb, width * (fc - fa)))
            tl = tol / abs(width + width)
            still.append((a, width, min(max(t, tl), 1.0 - tl), b, fa, fb, xtol, k))
        if not still:
            return roots
        brackets = still
    raise NumericalError(f"root solver did not converge in {_ROOT_MAX_STEPS} steps")


def _geometry(problem: ScatteringProblem) -> tuple:
    """``(kx, kv, scan)``: the knots of V on the domain, V there, and the scan.

    The knots ``kx`` are the domain edges and the extrema of V between them,
    increasing, and ``kv`` is V there; a run is the monotone stretch of V
    between two neighbouring knots.  With ``_reach``, ``center`` is the one
    extremum where it lies inside the domain and V there differs from V at
    both edges (a flat model, or an edge inside a square barrier's plateau,
    has none), and ``scan`` is None.  Any other model is scanned: one pass
    over ``_SCAN_PANELS + 1`` samples finds where the slope of V changes sign
    (a flat run counts once; V' at each edge is the slope of one more panel
    beyond it, so an extremum inside an edge panel is found too), and one
    :func:`_bracketed_roots` call refines them all, each to the root of V'
    between the samples around it, to 1e-6 of a panel.  The best sample
    stands in where V' does not change sign there (a jump) or its root is
    worse, and none in an edge panel.  ``scan`` is
    ``(xs, vs, (s, up, keys, xtol))``: the samples with the extrema merged
    in, and per run its first index in xs, +1 if V rises on it else -1,
    up * V on it (increasing), and its root tolerance.  It all depends on
    the potential and the domain only, so it is kept on the (frozen)
    potential per domain, outside its fields: equality, hash and repr do
    not see it.
    """
    stored = vars(problem.potential).setdefault("_knots_by_domain", {})
    if problem.domain in stored:
        return stored[problem.domain]
    lo, hi = problem.domain
    if problem.potential._reach is not None:
        kx = np.array([lo, problem.potential.center, hi])
        kv = problem.v(kx)
        if not (lo < kx[1] < hi and kv[0] != kv[1] != kv[2]):
            kx, kv = kx[::2], kv[::2]
        return stored.setdefault(problem.domain, (kx, kv, None))
    xs = np.linspace(lo, hi, _SCAN_PANELS + 1)
    vs = problem.v(xs)
    # slope[k] is that of panel k - 1; V' at the edges stands for panels -1 and 2048.
    slope = np.sign(np.concatenate([problem.dv(xs[:1]), np.diff(vs), problem.dv(xs[-1:])]))
    steps = np.flatnonzero(slope)
    turns = np.flatnonzero(slope[steps[:-1]] != slope[steps[1:]])
    k, m = steps[turns], steps[turns + 1]
    i, j = np.maximum(k - 1, 0), np.minimum(m, _SCAN_PANELS)  # an extremum lies in (xs[i], xs[j])
    sign = slope[k]  # +1 at a maximum, -1 at a minimum
    x_ext, v_ext = xs[k], vs[k]
    if len(k):
        d_lo, d_hi = np.split(problem.dv(xs[np.concatenate([i, j])]), 2)
        r = np.flatnonzero(np.sign(d_lo) * np.sign(d_hi) < 0.0)
        x_ext = x_ext.copy()
        # To 1e-6 of a panel, where V is flat to rounding.
        x_ext[r] = _bracketed_roots(
            lambda x, _: problem.dv(x), xs[i[r]], xs[j[r]], d_lo[r], d_hi[r],
            1e-6 * (xs[1] - xs[0]),
        )
        refined = problem.v(x_ext)
        better = sign * refined >= sign * v_ext
        keep = ((k > 0) & (m <= _SCAN_PANELS)) | (sign * refined > sign * v_ext)
        x_ext, v_ext = np.where(better, x_ext, xs[k])[keep], np.where(better, refined, v_ext)[keep]
    at = np.searchsorted(xs, x_ext)
    cuts = np.concatenate([[0], at + np.arange(len(at)), [len(xs) + len(at) - 1]])
    xs, vs = np.insert(xs, at, x_ext), np.insert(vs, at, v_ext)
    kx, kv = xs[cuts], vs[cuts]
    ups = np.where(kv[1:] > kv[:-1], 1.0, -1.0)
    keys = tuple(up * vs[s : t + 1] for s, t, up in zip(cuts, cuts[1:], ups))
    xtol = 4e-16 * np.maximum(1.0, np.maximum(np.abs(kx[:-1]), np.abs(kx[1:])))
    return stored.setdefault(problem.domain, (kx, kv, (xs, vs, (cuts[:-1], ups, keys, xtol))))


def _turning_points(problem: ScatteringProblem, energies) -> tuple:
    """Arrays ``(a, b, count)`` of the roots of V - E, one entry per energy.

    ``count`` is the number of roots in the domain; a < b are the first two
    (nan where there are fewer).  An energy equal to V at a knot of
    :func:`_geometry` has its root there, and a run at whose ends V - E has
    strictly opposite signs has one inside: with ``_reach``, whichever of
    center -/+ reach lies nearer the run, clipped into it; else bracketed by
    the two samples around it, found by searchsorted in its run (whose ends
    are the refined extrema, so two roots inside one scan panel are both
    found), and solved with all the others in one :func:`_bracketed_roots`
    call, each to 4e-16 max(1, |x|) over its run's ends (about 4 steps where
    V is smooth).  A long scan comes in blocks (see ``wkb_core._in_blocks``).
    """
    kx, kv, scan = _geometry(problem)
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    if scan is None and len(e) <= _FEW_ROOTS:
        return _few_turning_points(problem.potential, e.tolist(), kx.tolist(), kv.tolist())
    # Column k: the root at knot k, or inside run k.
    roots = np.where(e[:, None] == kv, kx, np.nan)
    rows, cols = np.nonzero((kv[:-1] - e[:, None]) * (kv[1:] - e[:, None]) < 0.0)
    if len(rows) and scan is None:
        c, reach = problem.potential.center, problem.potential._reach(e[rows])
        left, right = (np.clip(x, kx[cols], kx[cols + 1]) for x in (c - reach, c + reach))
        nearer = np.abs(left - (c - reach)) <= np.abs(right - (c + reach))
        roots[rows, cols] = np.where(nearer, left, right)
    elif len(rows):
        xs, vs, (starts, ups, keys, tols) = scan
        target = e[rows]
        # Column k: the samples of run k below each energy.
        below = np.column_stack([np.searchsorted(key, up * e) for key, up in zip(keys, ups)])
        j = starts[cols] - 1 + below[rows, cols]
        roots[rows, cols] = _bracketed_roots(
            lambda x, idx: problem.v(x) - target[idx],
            xs[j], xs[j + 1], vs[j] - target, vs[j + 1] - target, tols[cols],
        )
    count = np.sum(~np.isnan(roots), axis=1)
    roots = np.sort(roots, axis=1)  # nan last
    return roots[:, 0], roots[:, 1], count


def _clip(x: float, lo: float, hi: float) -> float:
    """numpy's clip of x into [lo, hi]: nan stays, and a tie (0 against -0) takes the bound."""
    x = x if x > lo or x != x else lo
    return x if x < hi or x != x else hi


def _few_turning_points(potential: PotentialModel, energies, kx, kv) -> tuple:
    """The ``_reach`` branch of :func:`_turning_points` for a few energies in
    Python floats, as :func:`_few_roots`: ``_reach`` gets the same energies in
    one array, and each float operation is the one numpy makes on that entry,
    so a, b and count are the same bits; a row's roots already lie in order."""
    runs = [(i, k) for i, e in enumerate(energies) for k in range(len(kx) - 1)
            if (kv[k] - e) * (kv[k + 1] - e) < 0.0]
    reach = potential._reach(np.array([energies[i] for i, _ in runs])).tolist() if runs else []
    roots = [[x if e == v else math.nan for x, v in zip(kx, kv)] for e in energies]
    c = potential.center
    for (i, k), r in zip(runs, reach):
        left, right = (_clip(x, kx[k], kx[k + 1]) for x in (c - r, c + r))
        roots[i][k] = left if abs(left - (c - r)) <= abs(right - (c + r)) else right
    found = [[x for x in row if x == x] for row in roots]
    a, b = ([row[j] if len(row) > j else math.nan for row in found] for j in (0, 1))
    return np.array(a), np.array(b), np.array([len(row) for row in found])


def _well(problem: ScatteringProblem) -> tuple:
    """``(v_min, rim)`` of the knots' V; no well below the edges: :class:`SpectrumError`."""
    kv = _geometry(problem)[1].tolist()
    v_min, rim = min(kv), min(kv[0], kv[-1])
    if rim <= v_min:
        raise SpectrumError("potential has no well below the domain edges")
    return v_min, rim


def _multi_well(count: int) -> MultiWellError:
    return MultiWellError(
        f"found {count} turning points; only single-barrier/single-well "
        "potentials (at most 2) are supported"
    )


def find_turning_points(problem: ScatteringProblem) -> TurningPoints:
    """Locate the roots of V(x) - E inside the problem domain.

    The batch of one of :func:`_turning_points`: each monotone run between
    the extrema of V (known in closed form or found once per potential and
    domain) holds at most one root, so two roots closer than a scan panel are
    both found.  More than two roots means a multi-well landscape, which
    is rejected rather than silently truncated.  The result is kept on the
    (frozen) problem instance, outside its fields, so the wave, its Airy
    bridges and the integrals of one problem share one solve.
    """
    known = vars(problem).get("_turning_points")
    if known is not None:
        return known
    a, b, count = _turning_points(problem, problem.energy)
    n = int(count[0])
    if n > 2:
        raise _multi_well(n)
    tp = TurningPoints(a=float(a[0]) if n else None, b=float(b[0]) if n == 2 else None, count=n)
    vars(problem)["_turning_points"] = tp
    return tp


def exclusion_radius(problem: ScatteringProblem, x_c: float) -> float:
    """Airy length (hbar^2 / (2m |V'(x_c)|))^(1/3) around a turning point.

    Within 1e-6 max(1, |x_c|) of a jump the model declares (``jumps``), the
    slope is the larger of |V'(x_c)| and the difference of V across that
    window, so a jump (where V' reads 0) shrinks the zone instead of
    inflating it.  A genuinely flat turning point, e.g. a smooth barrier top
    at E = V_max, has no WKB region at all: inf.  An x_c that is not finite
    raises :class:`DomainError`.
    """
    _require_finite(x_c, "x_c")
    m, hbar = problem.context.mass, problem.context.hbar
    slope = abs(problem.dv(x_c))
    delta = 1e-6 * max(1.0, abs(x_c))
    lo, hi = problem.domain
    lo_pt, hi_pt = max(x_c - delta, lo), min(x_c + delta, hi)
    if hi_pt > lo_pt and any(lo_pt <= x <= hi_pt for x in problem.potential.jumps):
        slope = max(
            slope, abs(problem.v(hi_pt) - problem.v(lo_pt)) / (hi_pt - lo_pt)
        )
    if slope == 0.0:
        return math.inf
    return (hbar * hbar / (2.0 * m * slope)) ** (1.0 / 3.0)
