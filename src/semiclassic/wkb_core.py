"""Action integrals, leading transmission, quantization.

Every opacity and well action between two turning points, the rim's action
of :func:`quantize_levels` included, is checked by :func:`_across`.

Quadrature policy: every action and decay integral is a 10-point
Gauss-Legendre sum: cumulative along one span on panels sized by the domain
(:func:`_accumulate`), or between two turning points one row per energy of a
2-D sum on a fixed count of panels (:func:`_between`).  From a turning point
x = a + s^2 removes the square-root branch point; between two, the integrand
in s is analytic and does not wind, so the count need not follow the span.
"""

from __future__ import annotations

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
)
from .potential import (
    ScatteringProblem,
    _SCAN_PANELS,
    _bracketed_roots,
    _multi_well,
    _require_count,
    _require_finite,
    _turning_points,
    _well,
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
#: Energies per block of :func:`_in_blocks`: their :func:`_between` sum (two
#: half-spans each) holds at most 2^17 nodes, so a long scan never holds more.
_BLOCK_ENERGIES = (1 << 17) // (2 * _BETWEEN_NODES.size)
#: Directions of :func:`_between`'s rows: its half-spans from a rightward, then from b leftward.
_FROM_A_AND_B = np.array([1.0, -1.0])


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


def _accumulate(
    problem: ScatteringProblem, start: float, xs, turning=False, forbidden=False
) -> np.ndarray:
    """Cumulative integral of sqrt(2m|E - V|) from ``start`` to each x in ``xs``.

    The xs lie in any order on one side of ``start``, inside one region:
    allowed (the integrand is p) or, with ``forbidden``, forbidden (hbar
    beta).  They are taken in order of distance from ``start`` (a stable
    sort, so the panels do not depend on the given order), and each gap
    between successive ones is cut into equal panels no wider than the span's
    share of the accumulator grid, each with a 10-point Gauss-Legendre rule.
    When ``start`` is a turning point the variable is s = sqrt(|x - start|),
    and extra panels are graded toward s = 0.  The integrals come back in
    the order of ``xs``.
    """
    xs = np.asarray(xs, dtype=float)
    dist = np.abs(xs - start)
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
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
    x = start + (1.0 if xs[order[-1]] > start else -1.0) * (nodes * nodes if turning else nodes)
    excess = problem.v(x) - problem.energy
    vals = np.sqrt(np.maximum(excess if forbidden else -excess, 0.0))
    if turning:
        vals *= 2.0 * nodes
    weights = math.sqrt(2.0 * problem.context.mass) * half
    sums = np.cumsum(weights * (vals @ _GL_WEIGHTS))[ends - 1]
    if not gaps.all():
        # A point no farther out than the one before it takes that one's sum
        # (0 at start): its gap's empty panel ends on the rounded first edge
        # of the next gap, not on the point.
        grew = np.maximum.accumulate(np.where(gaps > 0.0, np.arange(1, len(u) + 1), 0))
        sums = np.concatenate([[0.0], sums])[grew]
    out = np.empty(len(xs))
    out[order] = sums
    return out


def _between(problem: ScatteringProblem, energies, a, b, forbidden=False) -> np.ndarray:
    """Integral of sqrt(2m|E - V|) from turning point a to turning point b, per energy.

    Each half of [a, b] is summed from its own turning point in
    s = sqrt(|x - a|), on 12 panels graded toward s = 0, then
    ``_BETWEEN_PANELS`` even ones whatever the half's length, all halves of
    all energies in one 2-D Gauss-Legendre sum.  Each row is summed on its
    own, so its value does not depend on the other rows of the call.
    """
    e, a, b = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (energies, a, b))
    mid = 0.5 * (a + b)
    start, energy = np.concatenate([a, b]), np.concatenate([e, e])
    u = np.sqrt(np.abs(np.concatenate([mid, mid]) - start))
    sign = np.repeat(_FROM_A_AND_B, len(e))[:, None, None]
    nodes = u[:, None, None] * _BETWEEN_NODES
    excess = problem.v(start[:, None, None] + sign * (nodes * nodes))
    excess -= energy[:, None, None]
    vals = np.sqrt(np.maximum(excess if forbidden else -excess, 0.0)) * (2.0 * nodes)
    # einsum sums each panel's 10 nodes on its own (a BLAS matmul would
    # round a panel differently by its place in the call).
    panels = np.einsum("rpk,k->rp", vals, _GL_WEIGHTS)
    out = u * np.sum(_BETWEEN_HALF * panels, axis=1)
    return math.sqrt(2.0 * problem.context.mass) * (out[: len(e)] + out[len(e) :])


def action_integral(problem: ScatteringProblem, x0: float, x: float) -> float:
    """w(x0, x) = integral of p(x') dx' through classically allowed territory.

    The signed integral is returned (negative when x < x0).  An interior
    turning point is an error: the path must stay inside one allowed region,
    though either endpoint may sit exactly on a turning point.  A point
    outside the domain, where no turning point is sought, raises
    :class:`DomainError`.
    """
    _require_finite([x0, x], "x0 and x")
    x_min, x_max = problem.domain
    outside = [float(p) for p in (x0, x) if not x_min <= p <= x_max]
    if outside:
        raise DomainError(f"points {outside} lie outside the domain [{x_min:g}, {x_max:g}]")
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
    sigma = _across(problem, problem.energy, tp.a, tp.b, tp.count, barrier=True)
    return float(sigma[0] / problem.context.hbar)


def opacities(problem: ScatteringProblem, energies) -> np.ndarray:
    """sigma* at each energy of a scan, from :func:`_in_blocks`.

    An energy without a barrier raises as :func:`barrier_integral` would; the
    first such energy in the given order is the one reported.  An energy that
    is not finite raises :class:`DomainError` first.
    """
    e = np.atleast_1d(_require_finite(energies, "energies"))
    return _in_blocks(problem, e, barrier=True) / problem.context.hbar


def _in_blocks(problem: ScatteringProblem, e: np.ndarray, barrier) -> np.ndarray:
    """:func:`_across` at the energies ``e``, one turning-point solve and sum per
    ``_BLOCK_ENERGIES`` (one empty block for none); a row depends on its energy alone."""
    blocks = (e[r : r + _BLOCK_ENERGIES] for r in range(0, len(e) or 1, _BLOCK_ENERGIES))
    return np.concatenate([_across(problem, blk, *_turning_points(problem, blk), barrier)
                           for blk in blocks])


def _across(problem: ScatteringProblem, energies, a, b, count, barrier) -> np.ndarray:
    """:func:`_between` at energies whose turning points a < b enclose a barrier
    (``barrier``) or a well, by V at their midpoint.  The first energy that does
    not raises :class:`MultiWellError` for more than two turning points, else
    :class:`NoBarrierError` (barrier) or :class:`BracketError` (well)."""
    e, a, b = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (energies, a, b))
    count = np.atleast_1d(count)
    ok = count == 2
    mid = problem.v(0.5 * (a[ok] + b[ok]))
    ok[ok] = mid > e[ok] if barrier else mid < e[ok]
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        n = int(count[i])
        if n > 2:
            raise _multi_well(n)
        if barrier:
            raise NoBarrierError(
                ("interval between turning points is classically allowed; "
                 "this is a well, not a barrier") if n == 2 else
                (f"barrier integral needs 2 turning points, found {n} "
                 "(E >= max V or no barrier in the domain)")
            )
        raise BracketError(
            f"E = {e[i]:g}: interval between roots is not a well" if n == 2 else
            (f"E = {e[i]:g} has {n} turning points; the bracket must keep the well "
             "topology (exactly 2)")
        )
    return _between(problem, e, a, b, forbidden=barrier)


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
    """integral_a^b sqrt(2m(E - V)) dx across the well at each energy, checked
    by :func:`_across`."""
    return _in_blocks(problem, np.atleast_1d(np.asarray(energies, dtype=float)), barrier=False)


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
        lambda e, idx: _well_actions(problem, e) - targets[idx],
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
    lowest domain-edge rim (an action above the highest level's target)
    shows that every level lies between the well bottom and the rim; that
    whole range is each level's bracket, and one root-solver call converges
    all the levels at once, as :func:`quantize` converges one.
    """
    n_max = _require_count(n_max, "n_max")
    v_min, rim = _well(problem)
    top = rim - 1e-9 * (rim - v_min)
    action = _well_actions(problem, top)[0]
    if action <= (n_max + 0.5) * math.pi * problem.context.hbar:
        raise SpectrumError(f"the well holds fewer than {n_max + 1} levels below its rim")
    # The action vanishes at the bottom of the well; trial energies lie strictly inside.
    return _levels(problem, range(n_max + 1), (v_min, top), (0.0, action)).tolist()
