"""Action integrals, leading transmission, quantization.

Quadrature policy: every action and decay integral is a 10-point
Gauss-Legendre sum: cumulative along one span on panels sized by the domain
(:func:`_accumulate`), or between two turning points one row per energy of a
2-D sum on a fixed count of panels (:func:`_between`).  From a turning point
x = a + s^2 removes the square-root branch point; between two, the integrand
in s is analytic and does not wind, so the count need not follow the span.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

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
    _SCAN_PANELS,
    _bracketed_roots,
    _knots,
    _multi_well,
    _require_count,
    _require_finite,
    _turning_points,
    exclusion_radius,
    find_turning_points,
)

__all__ = [
    "Method",
    "TransmissionReport",
    "action_integral",
    "barrier_integral",
    "opacities",
    "transmission_leading",
    "quantize",
    "quantize_levels",
    "assert_outside_exclusion",
    "effective_perturbation",
]

#: E - V may dip this far (times max(1, |E|)) below 0 on an allowed path.
_SINGULAR_EPS = 1e-8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _panel_nodes(edges: np.ndarray):
    """10-point Gauss-Legendre nodes on each panel between ``edges`` (along the
    last axis; one more axis for the nodes), and the panel half-widths that
    scale :data:`_GL_WEIGHTS`."""
    half = 0.5 * np.diff(edges)
    nodes = np.multiply.outer(half, _GL_NODES)
    nodes += (edges[..., :-1] + half)[..., None]
    return nodes, half


#: :func:`_accumulate`'s panels: one per 1/2048 of the domain along a span
#: (the resolution of the turning-point scan), at least 16; from a turning
#: point both it and :func:`_between` add 12 graded geometrically toward s = 0.
_PANEL_FRACTION = 1.0 / _SCAN_PANELS
_MIN_PANELS = 16
_GRADED_PANELS = 12
#: :func:`_between`'s even panels in s per half-span (8 reach rounding on the
#: smooth barriers; a tabulated V's third derivative jumps at every knot).
_BETWEEN_PANELS = 64
#: Nodes and half-widths of :func:`_between`'s panels on s in [0, 1], the
#: graded ones halving down to 2^-12 of the first even edge.
_BETWEEN_NODES, _BETWEEN_HALF = _panel_nodes(np.concatenate([
    [0.0], 0.5 ** np.arange(_GRADED_PANELS, 0, -1), np.arange(1, _BETWEEN_PANELS + 1)
]) / _BETWEEN_PANELS)
#: Nodes in one block of the 2-D sum of :func:`_between`: rows are cut into
#: blocks of ``_BLOCK_ROWS``, so that a long scan never holds more at once.
_BLOCK_NODES = 1 << 17
_BLOCK_ROWS = _BLOCK_NODES // _BETWEEN_NODES.size


class Method(enum.Enum):
    """Provenance tag for transmission/reflection numbers."""

    WKB_LEADING = "wkb"
    WKB_CORRECTED = "wkb-corrected"
    CONNECTION_PATCHED = "connection"
    EXACT_NUMEROV = "exact"


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


def assert_outside_exclusion(problem: ScatteringProblem, xs) -> None:
    """Raise if any x lies within one Airy length of a turning point."""
    tp = find_turning_points(problem)
    points = [p for p in (tp.a, tp.b) if p is not None]
    xa = np.atleast_1d(np.asarray(xs, dtype=float))
    for x_c in points:
        r = exclusion_radius(problem, x_c)
        bad = np.abs(xa - x_c) < r
        if np.any(bad):
            raise TurningPointProximityError(
                f"x = {float(xa[bad][0]):g} is within one Airy length "
                f"({r:g}) of the turning point at {x_c:g}"
            )


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
    nodes, half = _panel_nodes(edges)
    x = start + (1.0 if xs[-1] > start else -1.0) * (nodes * nodes if turning else nodes)
    excess = problem.v(x) - problem.energy
    vals = np.sqrt(np.maximum(excess if forbidden else -excess, 0.0))
    if turning:
        vals *= 2.0 * nodes
    weights = math.sqrt(2.0 * problem.context.mass) * half
    return np.cumsum(weights * (vals @ _GL_WEIGHTS))[ends - 1]


def _between(problem: ScatteringProblem, energies, a, b, forbidden=False) -> np.ndarray:
    """Integral of sqrt(2m|E - V|) from turning point a to turning point b, per energy.

    Each half of [a, b] is summed from its own turning point in
    s = sqrt(|x - a|), on 12 panels graded toward s = 0, then
    ``_BETWEEN_PANELS`` even ones whatever the half's length, all halves of
    all energies in one 2-D Gauss-Legendre sum cut into blocks of
    ``_BLOCK_ROWS`` rows.  Each row is summed on its own, so its value does
    not depend on the other rows of the call.
    """
    e, a, b = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (energies, a, b))
    start, energy = np.concatenate([a, b]), np.tile(e, 2)
    u = np.sqrt(np.abs(np.tile(0.5 * (a + b), 2) - start))
    sign = np.repeat([1.0, -1.0], len(e))[:, None, None]  # from a rightward, from b leftward
    out = np.empty(len(start))
    for r in range(0, len(start), _BLOCK_ROWS):
        blk = slice(r, r + _BLOCK_ROWS)
        nodes = u[blk, None, None] * _BETWEEN_NODES
        excess = problem.v(start[blk, None, None] + sign[blk] * (nodes * nodes))
        excess -= energy[blk, None, None]
        vals = np.sqrt(np.maximum(excess if forbidden else -excess, 0.0)) * (2.0 * nodes)
        # einsum sums each panel's 10 nodes on its own (a BLAS matmul would
        # round a panel differently by its place in the block).
        panels = np.einsum("rpk,k->rp", vals, _GL_WEIGHTS)
        out[blk] = u[blk] * np.sum(_BETWEEN_HALF * panels, axis=1)
    return math.sqrt(2.0 * problem.context.mass) * (out[: len(e)] + out[len(e) :])


def action_integral(problem: ScatteringProblem, x0: float, x: float) -> float:
    """w(x0, x) = integral of p(x') dx' through classically allowed territory.

    The signed integral is returned (negative when x < x0).  An interior
    turning point is an error: the path must stay inside one allowed region,
    though either endpoint may sit exactly on a turning point.
    """
    _require_finite([x0, x], "x0 and x")
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

    # No turning point inside: V - E has one sign on the span, so its
    # midpoint decides.
    e = problem.energy
    if e - problem.v(0.5 * (lo + hi)) < -_SINGULAR_EPS * max(1.0, abs(e)):
        raise RegionError(
            f"[{lo:g}, {hi:g}] enters the classically forbidden region"
        )

    lo_turning, hi_turning = (
        any(x_c is not None and abs(end - x_c) <= edge for x_c in (tp.a, tp.b))
        for end in (lo, hi)
    )
    if lo_turning and hi_turning:
        val = _between(problem, e, lo, hi)[0]
    elif hi_turning:
        val = _accumulate(problem, hi, [lo], turning=True)[0]
    else:
        val = _accumulate(problem, lo, [hi], turning=lo_turning)[0]
    return sign * val


def barrier_integral(problem: ScatteringProblem) -> float:
    """Opacity sigma* = (1/hbar) integral_a^b sqrt(2m(V - E)) dx.

    Requires a genuine barrier: two turning points with E < V between them.
    The batch of one of :func:`opacities`: the same checks and sum.
    """
    tp = find_turning_points(problem)
    return float(_opacities(problem, problem.energy, tp.a, tp.b, tp.count)[0])


def opacities(problem: ScatteringProblem, energies) -> np.ndarray:
    """sigma* at each energy of a scan, from one turning-point solve and one sum.

    An energy without a barrier raises as :func:`barrier_integral` would; the
    first such energy in the given order is the one reported.  An energy that
    is not finite raises :class:`DomainError` first.
    """
    e = np.atleast_1d(_require_finite(energies, "energies"))
    return _opacities(problem, e, *_turning_points(problem, e))


def _opacities(problem: ScatteringProblem, energies, a, b, count) -> np.ndarray:
    """sigma* at each energy from its turning points a < b and their count."""
    e, a, b = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (energies, a, b))
    count = np.atleast_1d(count)
    barrier = count == 2
    barrier[barrier] = problem.v(0.5 * (a[barrier] + b[barrier])) > e[barrier]
    if not barrier.all():
        i = int(np.flatnonzero(~barrier)[0])
        if count[i] > 2:
            raise _multi_well(int(count[i]))
        if count[i] != 2:
            raise NoBarrierError(
                f"barrier integral needs 2 turning points, found {count[i]} "
                "(E >= max V or no barrier in the domain)"
            )
        raise NoBarrierError(
            "interval between turning points is classically allowed; "
            "this is a well, not a barrier"
        )
    return _between(problem, e, a, b, forbidden=True) / problem.context.hbar


def effective_perturbation(problem: ScatteringProblem, x):
    """Vtilde = (3 p'^2 - 2 p p'') / (4 p^4) from analytic V derivatives.

    Valid in the classically allowed region (p > 0), at a scalar x or an
    array of them.  This is the residual coupling left over when the wave
    equation is rewritten in the phase variable; it vanishes identically for
    a free particle.  An x that is not finite raises :class:`DomainError`.
    """
    xa = _require_finite(x, "x")
    out = _vtilde(
        problem.context.mass, problem.energy, xa, problem.v(xa), problem.dv(xa), problem.d2v(xa)
    )
    return out if xa.ndim else float(out)


def _vtilde(m: float, e: float, x, v, dv, d2v):
    """Vtilde at the points x from V, V' and V'' there, for mass m at energy e."""
    gap = e - v
    bad = np.flatnonzero(gap <= 0.0)
    if bad.size:
        i = bad[0]
        raise DomainError(
            "effective perturbation needs the allowed region; "
            f"E - V = {np.ravel(gap)[i]:g} at x = {x.flat[i]:g}"
        )
    p = np.sqrt(2.0 * m * gap)
    p1 = -m * dv / p
    p2 = -m * d2v / p - (m * dv) ** 2 / p**3
    return (3.0 * p1 * p1 - 2.0 * p * p2) / (4.0 * p**4)


def transmission_leading(
    problem: ScatteringProblem, corrected: bool = True
) -> TransmissionReport:
    """Tunneling probability from the opacity integral.

    corrected=True reports T = e^{-2 sigma*} / (1 + e^{-2 sigma*}/4)^2, the
    interference-aware value that keeping the growing exponential inside the
    barrier produces; corrected=False reports the bare e^{-2 sigma*}.  The
    bare value is always recorded alongside for comparison.  The batch of one
    of :func:`_opacity_report`.
    """
    method = Method.WKB_CORRECTED if corrected else Method.WKB_LEADING
    return _opacity_report(barrier_integral(problem), method)


def _opacity_report(sigma_star: float, method: Method) -> TransmissionReport:
    """The report of ``wkb``, ``wkb-corrected`` or ``connection`` from sigma*.

    With b = e^{-2 sigma*}: ``wkb`` reports T = b and ``wkb-corrected``
    T = b/(1 + b/4)^2, each with R = 1 - T.  ``connection`` reports the
    corrected T and R = ((1 - b/4)/(1 + b/4))^2, the currents j_trans/j_inc
    and j_ref/j_inc of the patched wave divided by their common factor
    4|B|^2 (hbar/m) e^{2 sigma*}, so that no sigma* overflows them.
    """
    bare = math.exp(-2.0 * sigma_star)
    quarter = 0.25 * bare
    t = bare if method is Method.WKB_LEADING else bare / (1.0 + quarter) ** 2
    r = (
        ((1.0 - quarter) / (1.0 + quarter)) ** 2
        if method is Method.CONNECTION_PATCHED else 1.0 - t
    )
    return TransmissionReport(
        transmission=t, reflection=r, sigma_star=sigma_star, method=method,
        transmission_bare=bare,
    )


def _well_actions(problem: ScatteringProblem, energies) -> np.ndarray:
    """integral_a^b sqrt(2m(E - V)) dx across the well at each energy.

    The first energy (in order) that does not see exactly two turning points
    around a well raises :class:`BracketError`.
    """
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    a, b, count = _turning_points(problem, e)
    well = count == 2
    well[well] = problem.v(0.5 * (a[well] + b[well])) < e[well]
    if not well.all():
        i = int(np.flatnonzero(~well)[0])
        if count[i] > 2:
            raise _multi_well(int(count[i]))
        if count[i] != 2:
            raise BracketError(
                f"E = {e[i]:g} has {count[i]} turning points; the bracket must "
                "keep the well topology (exactly 2)"
            )
        raise BracketError(f"E = {e[i]:g}: interval between roots is not a well")
    return _between(problem, e, a, b)


def _levels(problem: ScatteringProblem, ns, bracket, actions) -> np.ndarray:
    """Level E_n for each n in ns, all from one :func:`_bracketed_roots` call.

    ``actions`` are the well actions at the two ends of the energy bracket.
    Each residual evaluation is one batched turning-point solve and one
    batched action sum over the levels still converging.
    """
    ns = np.asarray(ns)
    e_lo, e_hi = bracket
    targets = (ns + 0.5) * math.pi * problem.context.hbar
    f_lo, f_hi = actions[0] - targets, actions[1] - targets
    bad = np.flatnonzero(np.sign(f_lo) * np.sign(f_hi) > 0.0)
    if bad.size:
        raise BracketError(
            f"quantization residual does not change sign on [{e_lo:g}, {e_hi:g}] "
            f"for n = {ns[bad[0]]}"
        )
    return _bracketed_roots(
        lambda e, idx: _well_actions(problem, e[:, 0]) - targets[idx],
        np.full(len(ns), float(e_lo)), np.full(len(ns), float(e_hi)), f_lo, f_hi,
        4e-16 * (e_hi - e_lo),
    )


def quantize(
    problem: ScatteringProblem, n: int, bracket: tuple[float, float]
) -> float:
    """Level E_n of a single well from the half-integer action condition.

    Solves integral_a^b sqrt(2m(E - V)) dx = (n + 1/2) pi hbar on the energy
    bracket with the shared root solver (Chandrupatla's method), to
    4e-16 of the bracket plus 4 ulp of E.  The extrema of V are found once per
    potential and domain; each trial energy only brackets its two turning
    points between them.  A bracket that is not two finite energies raises
    :class:`DomainError`.
    """
    n = _require_count(n, "n")
    ends = _require_finite(bracket, "bracket")
    if ends.shape != (2,):
        raise DomainError(f"bracket must be a pair of energies, got {bracket!r}")
    e_lo, e_hi = ends.tolist()
    if not e_lo < e_hi:
        raise BracketError(f"empty bracket {bracket}")
    return float(_levels(problem, [n], (e_lo, e_hi), _well_actions(problem, ends))[0])


def quantize_levels(problem: ScatteringProblem, n_max: int) -> list[float]:
    """E_0..E_n_max of a single well, all solved together.

    The well action grows monotonically with E, so one check just below the
    lowest domain-edge rim (two turning points, and an action above the
    highest level's target) shows that every level lies between the well
    bottom and the rim; that whole range is each level's bracket, and one
    root-solver call converges all the levels at once, as :func:`quantize`
    converges one.
    """
    n_max = _require_count(n_max, "n_max")
    vs = [v for _, v in _knots(problem)]
    v_min = min(vs)
    rim = min(vs[0], vs[-1])
    if rim <= v_min:
        raise SpectrumError("potential has no well below the domain edges")
    span = rim - v_min
    top = dataclasses.replace(problem, energy=rim - 1e-9 * span)
    tp = find_turning_points(top)
    if tp.count != 2:
        raise SpectrumError(
            f"E = {top.energy:g} does not see a simple well (found {tp.count} "
            "turning points)"
        )
    action = _between(problem, top.energy, tp.a, tp.b)[0]
    if action <= (n_max + 0.5) * math.pi * problem.context.hbar:
        raise SpectrumError(f"the well holds fewer than {n_max + 1} levels below its rim")
    # The action vanishes at the bottom of the well; trial energies lie strictly inside.
    return _levels(problem, range(n_max + 1), (v_min, top.energy), (0.0, action)).tolist()
