"""Action integrals, WKB expansion terms, leading transmission, quantization.

Quadrature policy: every action and decay integral comes from one
vectorised cumulative Gauss-Legendre accumulator (:func:`_accumulate`).  On a
span that starts at a classical turning point the substitution x = a + s^2
removes the square-root branch point, so the transformed integrand is smooth
and the fixed rule keeps its full order.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate  # noqa: F401 - bench/tracing.py traces quad calls made from here
from scipy.optimize import brentq

from .errors import (
    BracketError,
    DomainError,
    NoBarrierError,
    NumericalError,
    RegionError,
    SpectrumError,
    TurningPointProximityError,
)
from .potential import (
    ScatteringProblem,
    TurningPoints,
    _knots,
    _turning_points,
    exclusion_radius,
    find_turning_points,
)

__all__ = [
    "Method",
    "WkbTerms",
    "TransmissionReport",
    "action_integral",
    "barrier_integral",
    "wkb_terms",
    "wkb_wavefunction",
    "transmission_leading",
    "quantize",
    "quantize_levels",
    "assert_outside_exclusion",
    "effective_perturbation_value",
]

#: E - V may dip this far (times max(1, |E|)) below 0 on an allowed path.
_SINGULAR_EPS = 1e-8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
#: Accumulator panels: one per 1/2048 of the domain along a span (the
#: resolution of the turning-point scan), at least 16, plus 12 graded
#: geometrically toward a turning point a span starts at.
_PANEL_FRACTION = 1.0 / 2048
_MIN_PANELS = 16
_GRADED_PANELS = 12


class Method(enum.Enum):
    """Provenance tag for transmission/reflection numbers."""

    WKB_LEADING = "wkb"
    WKB_CORRECTED = "wkb-corrected"
    CONNECTION_PATCHED = "connection"
    BORN_FIRST_ORDER = "born1"
    EXACT_NUMEROV = "exact"


@dataclass(frozen=True)
class WkbTerms:
    """Leading terms of the phase expansion at one point.

    sigma0 is the accumulated action w(x0, x); sigma1 = -ln sqrt(p);
    sigma2_prime is recovered from the effective perturbation via
    sigma2' = -p Vtilde / 2.
    """

    sigma0: float
    sigma1: float
    sigma2_prime: float
    evaluation_point: float


@dataclass(frozen=True)
class TransmissionReport:
    """Transmission/reflection pair with the opacity integral that made it."""

    transmission: float
    reflection: float
    sigma_star: float | None
    method: Method
    transmission_bare: float | None = None

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.transmission <= 1.0 + 1e-12):
            raise NumericalError(
                f"transmission {self.transmission} outside [0, 1]"
            )


def assert_outside_exclusion(
    problem: ScatteringProblem,
    xs,
    tp: TurningPoints | None = None,
    factor: float = 1.0,
) -> TurningPoints:
    """Raise if any x lies within ``factor`` Airy lengths of a turning point."""
    if tp is None:
        tp = find_turning_points(problem)
    points = [p for p in (tp.a, tp.b) if p is not None]
    xa = np.atleast_1d(np.asarray(xs, dtype=float))
    for x_c in points:
        r = exclusion_radius(problem, x_c)
        bad = np.abs(xa - x_c) < factor * r
        if np.any(bad):
            raise TurningPointProximityError(
                f"x = {float(xa[bad][0]):g} is within {factor:g} Airy lengths "
                f"({factor * r:g}) of the turning point at {x_c:g}"
            )
    return tp


def _accumulate(
    problem: ScatteringProblem, start: float, xs, turning=False, forbidden=False
) -> np.ndarray:
    """Cumulative integral of sqrt(2m|E - V|) from ``start`` to each x in ``xs``.

    ``xs`` runs monotonically away from ``start`` inside one region: allowed
    (the integrand is p) or, with ``forbidden``, forbidden (hbar beta).  Each
    gap between successive xs is cut into equal panels no wider than the
    span's share of the accumulator grid, each with a 10-point Gauss-Legendre
    rule.  When ``start`` is a turning point the variable is
    s = sqrt(|x - start|), and extra panels are graded toward s = 0.
    """
    xs = np.asarray(xs, dtype=float)
    dist = np.abs(xs - start)
    if len(xs) == 0 or dist[-1] == 0.0:
        return np.zeros(len(xs))
    lo, hi = problem.domain
    n = max(_MIN_PANELS, math.ceil(dist[-1] / ((hi - lo) * _PANEL_FRACTION)))
    u = np.sqrt(dist) if turning else dist
    gaps = np.diff(u, prepend=0.0)
    per_gap = np.maximum(np.ceil(gaps * (n / u[-1])), 1).astype(int)
    ends = np.cumsum(per_gap)  # edge index of each x
    # Panel j of the gap that ends at u[g] starts ends[g] - j steps before u[g].
    gap_of = np.repeat(np.arange(len(u)), per_gap)
    step = (gaps / per_gap)[gap_of]
    edges = np.append(u[gap_of] - (ends[gap_of] - np.arange(ends[-1])) * step, u[-1])
    if turning:
        graded = edges[1] * 0.5 ** np.arange(_GRADED_PANELS, 0, -1)
        edges = np.concatenate([[0.0], graded, edges[1:]])
        ends = ends + _GRADED_PANELS
    half = 0.5 * np.diff(edges)
    nodes = np.multiply.outer(half, _GL_NODES)
    nodes += (edges[:-1] + half)[:, None]
    x = start + (1.0 if xs[-1] > start else -1.0) * (nodes * nodes if turning else nodes)
    excess = np.asarray(problem.v(x), dtype=float) - problem.energy
    vals = np.sqrt(np.maximum(excess if forbidden else -excess, 0.0))
    if turning:
        vals *= 2.0 * nodes
    weights = math.sqrt(2.0 * problem.context.mass) * half
    return np.cumsum(weights * (vals @ _GL_WEIGHTS))[ends - 1]


def _between(problem: ScatteringProblem, a: float, b: float, xs=(), forbidden=False):
    """Integrals from turning point a to each sorted x in (a, b), and to b.

    Each half of [a, b] is accumulated from its own turning point.
    """
    xs = np.asarray(xs, dtype=float)
    mid = 0.5 * (a + b)
    near_b = xs > mid
    from_a = _accumulate(
        problem, a, np.append(xs[~near_b], mid), turning=True, forbidden=forbidden
    )
    from_b = _accumulate(
        problem, b, np.append(xs[near_b][::-1], mid), turning=True, forbidden=forbidden
    )
    total = from_a[-1] + from_b[-1]
    return np.concatenate([from_a[:-1], total - from_b[-2::-1]]), total


def action_integral(problem: ScatteringProblem, x0: float, x: float) -> float:
    """w(x0, x) = integral of p(x') dx' through classically allowed territory.

    The signed integral is returned (negative when x < x0).  An interior
    turning point is an error: the path must stay inside one allowed region,
    though either endpoint may sit exactly on a turning point.
    """
    if x == x0:
        return 0.0
    sign = 1.0 if x > x0 else -1.0
    lo, hi = (x0, x) if x > x0 else (x, x0)

    tp = find_turning_points(problem)
    edge = 1e-9 * max(1.0, hi - lo)
    for x_c in (tp.a, tp.b):
        if x_c is not None and lo + edge < x_c < hi - edge:
            raise RegionError(
                f"turning point at {x_c:g} lies strictly inside [{lo:g}, {hi:g}]"
            )

    e = problem.energy
    probe = np.linspace(lo, hi, 33)[1:-1]
    if np.min(e - np.asarray(problem.v(probe), dtype=float)) < -_SINGULAR_EPS * max(
        1.0, abs(e)
    ):
        raise RegionError(
            f"[{lo:g}, {hi:g}] enters the classically forbidden region"
        )

    lo_turning, hi_turning = (
        any(x_c is not None and abs(end - x_c) <= edge for x_c in (tp.a, tp.b))
        for end in (lo, hi)
    )
    if lo_turning and hi_turning:
        val = _between(problem, lo, hi)[1]
    elif hi_turning:
        val = _accumulate(problem, hi, [lo], turning=True)[0]
    else:
        val = _accumulate(problem, lo, [hi], turning=lo_turning)[0]
    return sign * val


def barrier_integral(
    problem: ScatteringProblem, tp: TurningPoints | None = None
) -> float:
    """Opacity sigma* = (1/hbar) integral_a^b sqrt(2m(V - E)) dx.

    Requires a genuine barrier: two turning points with E < V between them.
    """
    if tp is None:
        tp = find_turning_points(problem)
    if tp.count != 2:
        raise NoBarrierError(
            f"barrier integral needs 2 turning points, found {tp.count} "
            "(E >= max V or no barrier in the domain)"
        )
    if problem.v(0.5 * (tp.a + tp.b)) <= problem.energy:
        raise NoBarrierError(
            "interval between turning points is classically allowed; "
            "this is a well, not a barrier"
        )
    return _between(problem, tp.a, tp.b, forbidden=True)[1] / problem.context.hbar


def effective_perturbation_value(problem: ScatteringProblem, x: float) -> float:
    """Vtilde = (3 p'^2 - 2 p p'') / (4 p^4) from analytic V derivatives.

    Valid in the classically allowed region (p > 0).  This is the residual
    coupling left over when the wave equation is rewritten in the phase
    variable; it vanishes identically for a free particle.
    """
    m = problem.context.mass
    e = problem.energy
    v = problem.v(x)
    if e <= v:
        raise DomainError(
            f"effective perturbation needs the allowed region; E - V = {e - v:g} at x = {x:g}"
        )
    p = math.sqrt(2.0 * m * (e - v))
    dv = problem.dv(x)
    d2v = problem.d2v(x)
    p1 = -m * dv / p
    p2 = -m * d2v / p - (m * dv) ** 2 / p**3
    return (3.0 * p1 * p1 - 2.0 * p * p2) / (4.0 * p**4)


def wkb_terms(problem: ScatteringProblem, x0: float, x: float) -> WkbTerms:
    """Accumulated action, amplitude log-term, and the sigma2' residual at x.

    Both x0 and x must lie in the classically allowed region, outside every
    turning-point exclusion zone.
    """
    tp = assert_outside_exclusion(problem, [x0, x])
    sigma0 = action_integral(problem, x0, x)
    m = problem.context.mass
    p = math.sqrt(2.0 * m * (problem.energy - problem.v(x)))
    sigma1 = -math.log(math.sqrt(p))
    v_tilde = effective_perturbation_value(problem, x)
    sigma2_prime = -0.5 * p * v_tilde
    del tp
    return WkbTerms(
        sigma0=sigma0, sigma1=sigma1, sigma2_prime=sigma2_prime, evaluation_point=x
    )


def wkb_wavefunction(problem: ScatteringProblem, amplitudes, x0: float, xs):
    """First-order WKB wave on a set of points sharing one region with x0.

    In the allowed region psi = p^(-1/2) [C+ e^{i w/hbar} + C- e^{-i w/hbar}];
    in the forbidden region the oscillations become real exponentials with
    rate beta.  Crossing a turning point requires the connection machinery
    instead, so mixed-region requests are rejected.
    """
    from .connection import WavefunctionTable, _region_tags

    c_plus = complex(amplitudes.c_plus if hasattr(amplitudes, "c_plus") else amplitudes[0])
    c_minus = complex(amplitudes.c_minus if hasattr(amplitudes, "c_minus") else amplitudes[1])

    xs = np.sort(np.atleast_1d(np.asarray(xs, dtype=float)))
    tp = assert_outside_exclusion(problem, xs)
    assert_outside_exclusion(problem, [x0], tp=tp)

    span_lo = min(float(xs[0]), x0)
    span_hi = max(float(xs[-1]), x0)
    for x_c in (tp.a, tp.b):
        if x_c is not None and span_lo < x_c < span_hi:
            raise RegionError(
                f"points straddle the turning point at {x_c:g}; "
                "use the connection module to cross it"
            )

    e, m, hbar = problem.energy, problem.context.mass, problem.context.hbar
    allowed = e >= problem.v(x0)
    # Signed phase (or decay) integral from x0, accumulated outward both ways.
    before = xs < x0
    w = np.concatenate([
        -_accumulate(problem, x0, xs[before][::-1], forbidden=not allowed)[::-1],
        _accumulate(problem, x0, xs[~before], forbidden=not allowed),
    ]) / hbar
    if allowed:
        p = np.sqrt(2.0 * m * (e - np.asarray(problem.v(xs), dtype=float)))
        psi = (c_plus * np.exp(1j * w) + c_minus * np.exp(-1j * w)) / np.sqrt(p)
    else:
        beta = np.asarray(problem.beta(xs), dtype=float)
        psi = (c_plus * np.exp(-w) + c_minus * np.exp(+w)) / np.sqrt(beta)
    return WavefunctionTable(xs=xs, psi=psi, region_tags=_region_tags(problem, xs, tp))


def transmission_leading(
    problem: ScatteringProblem, corrected: bool = True
) -> TransmissionReport:
    """Tunneling probability from the opacity integral.

    corrected=True reports T = e^{-2 sigma*} / (1 + e^{-2 sigma*}/4)^2, the
    interference-aware value that keeping the growing exponential inside the
    barrier produces; corrected=False reports the bare e^{-2 sigma*}.  The
    bare value is always recorded alongside for comparison.
    """
    sigma_star = barrier_integral(problem)
    bare = math.exp(-2.0 * sigma_star)
    corr = bare / (1.0 + 0.25 * bare) ** 2
    t = corr if corrected else bare
    return TransmissionReport(
        transmission=t,
        reflection=1.0 - t,
        sigma_star=sigma_star,
        method=Method.WKB_CORRECTED if corrected else Method.WKB_LEADING,
        transmission_bare=bare,
    )


def quantize(
    problem: ScatteringProblem, n: int, bracket: tuple[float, float]
) -> float:
    """Level E_n of a single well from the half-integer action condition.

    Solves integral_a^b sqrt(2m(E - V)) dx = (n + 1/2) pi hbar by brentq on
    the energy bracket.  The extrema of V are found once; each trial energy
    only brackets its two turning points between them.
    """
    if n < 0:
        raise DomainError(f"quantum number must be nonnegative, got {n}")
    e_lo, e_hi = bracket
    if not e_lo < e_hi:
        raise BracketError(f"empty bracket {bracket}")
    target = (n + 0.5) * math.pi * problem.context.hbar
    knots = _knots(problem)

    def residual(e: float) -> float:
        prob_e = dataclasses.replace(problem, energy=e)
        tp = _turning_points(prob_e, knots)
        if tp.count != 2:
            raise BracketError(
                f"E = {e:g} has {tp.count} turning points; the bracket must "
                "keep the well topology (exactly 2)"
            )
        if prob_e.v(0.5 * (tp.a + tp.b)) >= e:
            raise BracketError(f"E = {e:g}: interval between roots is not a well")
        return _between(prob_e, tp.a, tp.b)[1] - target

    try:
        return brentq(residual, e_lo, e_hi, xtol=1e-12 * max(1.0, abs(e_lo), abs(e_hi)))
    except ValueError as exc:
        raise BracketError(
            f"quantization residual does not change sign on [{e_lo:g}, {e_hi:g}] "
            f"for n = {n}"
        ) from exc


def quantize_levels(
    problem: ScatteringProblem, n_max: int, scan_points: int = 64
) -> list[float]:
    """E_0..E_n_max of a single well, with brackets found automatically.

    The well action grows monotonically with E, so a coarse scan between the
    well bottom and the lowest domain-edge rim brackets every level; each
    bracket then goes through :func:`quantize`.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    knots = _knots(problem)
    v_min = min(v for _, v in knots)
    rim = min(knots[0][1], knots[-1][1])
    if rim <= v_min:
        raise SpectrumError("potential has no well below the domain edges")
    span = rim - v_min
    energies = np.linspace(v_min + 1e-6 * span, rim - 1e-9 * span, scan_points)
    hbar = problem.context.hbar

    def well_action(e: float) -> float:
        prob_e = dataclasses.replace(problem, energy=e)
        tp = _turning_points(prob_e, knots)
        if tp.count != 2:
            raise SpectrumError(
                f"E = {e:g} does not see a simple well (found {tp.count} "
                "turning points)"
            )
        return _between(prob_e, tp.a, tp.b)[1]

    actions = np.array([well_action(float(e)) for e in energies])
    levels = []
    for n in range(n_max + 1):
        target = (n + 0.5) * math.pi * hbar
        if actions[-1] <= target:
            raise SpectrumError(
                f"the well holds fewer than {n_max + 1} levels below its rim"
            )
        j = int(np.searchsorted(actions, target))
        bracket_lo = energies[j - 1] if j > 0 else v_min + 1e-9 * span
        levels.append(quantize(problem, n, (float(bracket_lo), float(energies[j]))))
    return levels
