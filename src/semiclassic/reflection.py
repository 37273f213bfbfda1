"""Multiple-reflection machinery in the over-barrier (weak-reflection) regime.

Everything here assumes E > max V so the momentum p(x) stays real on the
whole line; below-barrier transmission belongs to the connection module.
The local coupling between the two WKB components is the differential
reflection coefficient r(x) = p'(x)/(2 p(x)); its once-integrated effect is
the first term of the multiple-reflection series, and Picard iteration of
the coupled amplitude equations resums the rest.

Quadrature policy: everything is computed on arrays.  Each reflection sum
(the once-reflected amplitude, the matrix element of Vtilde, each half-step of
Picard iteration) is one complex composite 10-point Gauss-Legendre sum, 256
equal panels over the domain, with the integrand evaluated on all nodes at
once.  Above the barrier p(x) is smooth on the whole domain, so every running
integral at the nodes, the phase w(x0, x) among them, comes from the integrand
at the same nodes: the running sum of the whole-panel sums, plus, inside each
panel, one product with the spectral integration matrix S_ij = int_{-1}^{t_i}
l_j(t) dt of the Lagrange basis on the nodes (L. Greengard, SIAM J. Numer.
Anal. 28, 1071 (1991)); w(x0) is one row of S, at x0's place in its panel.
The nodes and V, V', V'' on them depend on the domain and x0 only, so a scan
lays them out once per call and each energy is one sum on them, in the same
operations as one energy alone; the single-energy functions are batches of
one.  Every sum, g e^{i dk w/hbar} with g = r (once-reflected) or Vtilde p
(the matrix element), is made and checked by :func:`_sum`, which refuses one
that is not finite, that does not clear its rounding floor, that the 10-point
rule may miss by more than 1 %, or that would gain more than 1 % past the
domain edges, which stand in for +/- infinity.  The sums read V' and V''
only, so a potential that jumps inside the domain is refused.

Sign convention: with the stated integral equations, one Picard step gives
C_minus(left edge) exactly equal to the once-reflected amplitude
-int r e^{2iw/hbar} dx.  Only |R|^2 is observable; phases depend on the
(arbitrary) reference point x0, and reported probabilities do not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legint, legval, legvander

from .errors import DomainError, NumericalError, RegimeError
from .potential import ScatteringProblem, _knots, _require_count, _require_finite
from .wkb_core import (
    _GL_NODES,
    _GL_WEIGHTS,
    _accumulate,
    _panel_nodes,
    _vtilde,
    effective_perturbation,
)

__all__ = [
    "EffectivePerturbation",
    "PicardAmplitudes",
    "picard_amplitudes",
    "once_reflected_coefficient",
    "once_reflected_coefficients",
    "effective_perturbation",
    "effective_perturbation_profile",
    "matrix_element",
    "born_first_order",
    "born_amplitudes",
]

#: Panels of the reflection sums over the domain.  On the weak bumps of the
#: property tests 256 and 1024 panels agree with adaptive quadrature to the
#: phase's rounding floor; 64 panels do not.
_PANELS_PER_DOMAIN = 256
#: The 10-point Gauss-Legendre remainder: the rule misses at most this times
#: max |f^(20)| of int_{-1}^{1} f dt (2^21 (10!)^4 / (21 (20!)^3)).  Where the
#: phase of f winds phi across the panel, f^(20) is about |f| (phi / 2)^20.
_GL_REMAINDER = 2.0**21 * math.factorial(10) ** 4 / (21.0 * math.factorial(20) ** 3)
#: Largest share of |R| that the remainder, summed over the panels, or the sum
#: past the domain edges may reach.  Sized on Eckart barriers against 2048
#: panels: rows under it agree to 2.5e-4 or better, rows over it are off by
#: 1.3e-4 to 1e11.
_MAX_REMAINDER = 1e-2
#: Integrals from -1 of the Lagrange basis l_j on the Gauss-Legendre nodes, as
#: Legendre series: l_j = sum_k w_j P_k(t_j) (2k + 1)/2 P_k, which the rule
#: integrates exactly.  legval at t gives int_{-1}^{t} l_j dt for every j.
_LAGRANGE_INTEGRALS = legint(
    legvander(_GL_NODES, 9).T * _GL_WEIGHTS * (np.arange(10) + 0.5)[:, None], lbnd=-1
)
#: The spectral integration matrix, transposed: (p @ _SPECTRAL)[i] is the
#: integral of p's interpolant from -1 to node t_i.
_SPECTRAL = legval(_GL_NODES, _LAGRANGE_INTEGRALS)


@dataclass(frozen=True)
class EffectivePerturbation:
    """Samples (w, Vtilde(w)) of the phase-variable residual potential."""

    ws: np.ndarray
    values: np.ndarray

    @property
    def samples(self):
        return list(zip(self.ws.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class PicardAmplitudes:
    """Iterated amplitudes at the reflection sums' nodes ``grid`` (ascending),
    and C_minus at the left edge: the resummed reflection amplitude."""

    grid: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    reflection_amplitude: complex
    iterations_used: int
    converged: bool


def _v_max(problem: ScatteringProblem) -> float:
    """max V on the domain, from its edges and refined extrema."""
    return max(v for _, v in _knots(problem))


def _require_over_barrier(problem: ScatteringProblem, energy: float) -> None:
    """Refuse an energy that does not exceed max V on the domain."""
    vmax = _v_max(problem)
    if energy <= vmax:
        raise RegimeError(
            f"E = {energy:g} does not exceed max V = {vmax:g} on the "
            "domain; below-barrier problems belong to the connection module"
        )


def _require_smooth(problem: ScatteringProblem) -> None:
    """Refuse a potential that jumps inside the domain: its analytic V' and V''
    miss the jump, so r(x) and Vtilde would vanish there and R read 0."""
    lo, hi = problem.domain
    jumps = [x for x in problem.potential.jumps if lo <= x <= hi]
    if jumps:
        where = " and ".join(f"x = {x:g}" for x in jumps)
        raise RegimeError(
            f"V jumps at {where}; the reflection sums need a smooth potential "
            "(use the exact method)"
        )


def _phase(problem: ScatteringProblem, xs, x0: float | None = None) -> np.ndarray:
    """w(x0, x) at ascending xs: the phase accumulator run from the left edge.

    The left edge may be a turning point (E = V there), which the
    accumulator's turning-point substitution handles; x0 defaults to it.
    """
    x0 = _reference_point(problem, x0)
    lo = problem.domain[0]
    pts = np.append(xs, x0)
    order = np.argsort(pts, kind="stable")
    inside = pts[order] > lo
    w = np.zeros(len(pts))
    turning = problem.v(lo) == problem.energy
    w[order[inside]] = _accumulate(problem, lo, pts[order][inside], turning)
    return w[:-1] - w[-1]


def _reference_point(problem: ScatteringProblem, x0: float | None) -> float:
    """x0 as a float, the left edge by default; outside the domain it raises."""
    lo, hi = problem.domain
    x0 = lo if x0 is None else float(x0)
    if not lo <= x0 <= hi:
        raise DomainError(f"reference point x0 = {x0:g} lies outside the domain [{lo:g}, {hi:g}]")
    return x0


class _Nodes:
    """The energy-independent work of the reflection sums over the domain.

    The composite 10-point Gauss-Legendre nodes of :data:`_PANELS_PER_DOMAIN`
    equal panels, shaped (panel, node), the panel half-widths, and V, V' and
    (on first use) V'' at the nodes.  Above the barrier p(x) is
    smooth on the whole domain, so a running integral needs no other points:
    :meth:`cumulative` integrates the interpolant of the integrand on each
    panel with the spectral integration matrix, and takes its value at x0
    from the row of that matrix at x0's place in its panel, laid out here.
    """

    def __init__(self, problem, x0):
        x0 = _reference_point(problem, x0)
        edges = np.linspace(*problem.domain, _PANELS_PER_DOMAIN + 1)
        self.problem = problem
        self.x, self.half = _panel_nodes(edges)
        self.v, self.dv = problem.v(self.x), problem.dv(self.x)
        # The integral to x0: the interpolant on x0's panel k0, up to x0.
        k = min(int(np.searchsorted(edges, x0, side="right")) - 1, _PANELS_PER_DOMAIN - 1)
        local = (x0 - edges[k]) / self.half[k] - 1.0
        self.k0, self.row0 = k, self.half[k] * legval(local, _LAGRANGE_INTEGRALS)

    @functools.cached_property
    def d2v(self):
        """V'' at the nodes, which only the matrix element reads."""
        return self.problem.d2v(self.x)

    def cumulative(self, f, from_x0=False):
        """int f dx from the left edge (from x0 with ``from_x0``) to each node,
        over the whole domain, and over each panel, from f at the nodes."""
        sums = self.half * (f @ _GL_WEIGHTS)
        ends = np.cumsum(sums)
        starts = np.concatenate(([0.0], ends[:-1]))
        if from_x0:
            starts -= starts[self.k0] + self.row0 @ f[self.k0]
        out = self.half[:, None] * (f @ _SPECTRAL)
        out += starts[:, None]
        return out, ends[-1], sums

    def integral(self, values):
        """The sum of ``values`` at the nodes against their weights."""
        return np.sum(self.half * (values @ _GL_WEIGHTS))


def _sum(nodes: _Nodes, energy: float, dk: float, integrand):
    """g e^{i dk w/hbar} at the nodes, g = integrand(E, E - V, p) there, and its sum.

    Every check of the reflection sums is made here.  An E not above max V
    raises :class:`RegimeError`.  A sum that is not finite, below its rounding
    floor eps (|dk| W / hbar) int |g| dx, W being the phase across the domain,
    or that the 10-point rule may miss by more than :data:`_MAX_REMAINDER` of
    it raises :class:`NumericalError`; the rule's remainder on a panel grows as
    the 20th power of the phase wound across it, weighted by the panel's share
    of int |g| dx.  The domain edges stand in for +/- infinity: past each one
    the sum goes on, to leading order, as |g| hbar / (|dk| p) at the outermost
    node, or, where it does not wind (dk = 0), as |g| / kappa, kappa being the
    rate at which |g| decays between the two outermost nodes; where the two
    edges' sum exceeds that share of |R|, :class:`DomainError` is raised.
    """
    _require_over_barrier(nodes.problem, energy)
    if not math.isfinite(energy):
        raise NumericalError(f"E = {energy:g}: the oscillatory sum is not finite")
    hbar = nodes.problem.context.hbar
    gap = energy - nodes.v
    p = np.sqrt(2.0 * nodes.problem.context.mass * gap)
    # The phase w(x0, x) at the nodes, across the domain and across each panel.
    w, span, action = nodes.cumulative(p, from_x0=True)
    g = integrand(energy, gap, p)
    terms = g * np.exp(1j * dk * w / hbar)
    total = nodes.integral(terms)
    size = abs(total)
    if not math.isfinite(size):
        raise NumericalError(f"E = {energy:g}: the oscillatory sum is not finite")
    g_abs = np.abs(g)
    mass = nodes.half * (g_abs @ _GL_WEIGHTS)
    floor = float(np.finfo(float).eps) * (abs(dk) * span / hbar * np.sum(mass))
    if size < floor:
        raise NumericalError(
            f"E = {energy:g}: |R| is {size / floor:.2g} of the rounding floor of "
            "its oscillatory sum (eps x phase span / hbar x the sum of |integrand|); "
            "double precision cannot resolve it"
        )
    winding = abs(dk) / hbar * action
    missed = 0.5 * _GL_REMAINDER * (mass @ (0.5 * winding) ** 20)
    if missed > _MAX_REMAINDER * size:
        raise NumericalError(
            f"E = {energy:g}: the phase of the oscillatory sum winds up to {winding.max():.3g} "
            f"rad across one panel, where the 10-point rule may miss {missed / size:.2g}"
            f" of |R|, more than {_MAX_REMAINDER:.0%}; it cannot resolve it"
        )
    tail = 0.0
    for edge, next_in in (((0, 0), (0, 1)), ((-1, -1), (-1, -2))):  # outermost node, next one in
        if g_abs[edge] > 0.0:
            decay = g_abs[next_in] / g_abs[edge]
            kappa = math.log(decay) / abs(nodes.x[next_in] - nodes.x[edge]) if decay > 0.0 else 0.0
            rate = abs(dk) / hbar * p[edge] if dk else kappa
            tail += g_abs[edge] / rate if rate > 0.0 else math.inf
    if tail > _MAX_REMAINDER * size:
        raise DomainError(
            f"E = {energy:g}: the integrand has not decayed at the domain edges, where the sum "
            f"beyond them may reach {tail / size:.2g} of |R|, more than {_MAX_REMAINDER:.0%}; "
            "widen the domain"
        )
    return terms, total


def picard_amplitudes(
    problem: ScatteringProblem, iterations: int, tol: float = 1e-10
) -> PicardAmplitudes:
    """Iterate the coupled amplitude integral equations from C+ = 1, C- = 0.

        C+(x) = 1 + int_{-inf}^{x} r C- e^{-2iw/hbar} dx'
        C-(x) =   - int_{x}^{+inf} r C+ e^{+2iw/hbar} dx'

    The domain edges stand in for +/- infinity, and the phase w is measured
    from the left edge.  The integrals are running sums on the once-reflected
    sum's nodes; its first half-step is that sum at the default reference
    point, so whatever the sum refuses is refused, a domain that cuts r among
    them.
    Iteration stops at ``iterations`` or when the largest relative change
    drops below ``tol``.
    """
    iterations = _require_count(iterations, "iterations", 1)
    _require_smooth(problem)
    nodes = _Nodes(problem, None)
    coupling, _ = _once_reflected(nodes, problem.energy)
    c_plus = np.ones(nodes.x.shape, dtype=complex)
    c_minus = np.zeros(nodes.x.shape, dtype=complex)
    for used in range(1, iterations + 1):
        new_plus = 1.0 + nodes.cumulative(np.conj(coupling) * c_minus)[0]
        back, total, _ = nodes.cumulative(coupling * new_plus)
        new_minus = back - total
        delta = max(np.max(np.abs(new_plus - c_plus)), np.max(np.abs(new_minus - c_minus)))
        converged = delta / max(1.0, float(np.max(np.abs(new_plus)))) < tol
        c_plus, c_minus = new_plus, new_minus
        if converged:
            break
    return PicardAmplitudes(
        grid=nodes.x.ravel(),
        c_plus=c_plus.ravel(),
        c_minus=c_minus.ravel(),
        reflection_amplitude=complex(-nodes.integral(coupling * c_plus)),
        iterations_used=used,
        converged=converged,
    )


def _once_reflected(nodes: _Nodes, energy: float):
    """r e^{2iw/hbar} at the nodes, r = -V' / (4 (E - V)), and its sum, -R."""
    return _sum(nodes, energy, 2.0, lambda _, gap, p: nodes.dv / (-4.0 * gap))


def once_reflected_coefficient(
    problem: ScatteringProblem, x0: float | None = None
) -> complex:
    """Single-reflection amplitude R = -int r(x) e^{2 i w(x0, x)/hbar} dx.

    One composite Gauss-Legendre sum over the domain, with the phase w
    integrated spectrally from p at the same nodes.  |R|^2 estimates the
    reflection probability; it is independent of the reference point x0,
    which only rotates the phase.  The batch of one of
    :func:`once_reflected_coefficients`.
    """
    return complex(once_reflected_coefficients(problem, problem.energy, x0)[0])


def once_reflected_coefficients(
    problem: ScatteringProblem, energies, x0: float | None = None
) -> np.ndarray:
    """The once-reflected amplitude at each energy of a scan, on one node layout.

    The nodes and V, V' there are laid out once per call; each energy is then
    one sum, the one :func:`once_reflected_coefficient` makes.  A potential
    with a jump raises, and each energy raises as :func:`_sum` says; the first
    failing energy in the given order is reported.
    """
    _require_smooth(problem)
    nodes = _Nodes(problem, x0)
    energies = np.atleast_1d(np.asarray(energies, dtype=float)).tolist()
    return np.array([-_once_reflected(nodes, e)[1] for e in energies], dtype=complex)


def effective_perturbation_profile(
    problem: ScatteringProblem, xs, x0: float | None = None
) -> EffectivePerturbation:
    """Vtilde sampled against the phase variable w measured from x0.

    In the phase variable the wave equation reads
    d^2 phi/dw^2 + [1/hbar^2 + Vtilde(w)] phi = 0 after the amplitude
    rescaling phi = sqrt(p/hbar) psi.
    """
    xs = np.sort(np.atleast_1d(_require_finite(xs, "the points")))
    if np.any(problem.energy <= problem.v(xs)) or problem.energy < _v_max(problem):
        raise RegimeError(
            "all sample points, and the domain the phase is accumulated "
            "over, must be classically allowed"
        )
    return EffectivePerturbation(
        ws=_phase(problem, xs, x0), values=effective_perturbation(problem, xs)
    )


def matrix_element(
    problem: ScatteringProblem, k_i: float, k_f: float, x0: float | None = None
) -> complex:
    """Perturbation matrix element over the phase variable.

        v(k_i, k_f) = int e^{i (k_f - k_i) w(x)/hbar} Vtilde(w(x)) dw

    k_i, k_f are dimensionless direction labels whose on-shell values are
    +1/-1 (the free propagator's poles sit at hbar k = +/-1).  The integral is
    one composite Gauss-Legendre sum in x over the domain, with dw = p dx, checked
    as :func:`_sum` says.
    The batch of one of :func:`_matrix_elements`.
    """
    return complex(_matrix_elements(problem, problem.energy, k_i, k_f, x0)[0])


def _matrix_elements(
    problem: ScatteringProblem, energies, k_i: float, k_f: float, x0: float | None = None
) -> np.ndarray:
    """v(k_i, k_f) at each energy, on one node layout.

    V, V' and V'' are taken once on the nodes; each energy is one sum on
    them, :func:`_sum` of Vtilde p, and raises as :func:`matrix_element`
    would, in order.  A k_i or k_f that is not finite raises
    :class:`DomainError` first.
    """
    _require_finite([k_i, k_f], "k_i and k_f")
    _require_smooth(problem)
    m, dk = problem.context.mass, k_f - k_i
    nodes = _Nodes(problem, x0)

    def vtilde_p(energy, gap, p):
        return _vtilde(m, energy, nodes.x, nodes.v, nodes.dv, nodes.d2v) * p

    energies = np.atleast_1d(np.asarray(energies, dtype=float)).tolist()
    return np.array([_sum(nodes, e, dk, vtilde_p)[1] for e in energies], dtype=complex)


def born_first_order(problem: ScatteringProblem) -> complex:
    """First-order reflection amplitude of the phase-variable wave equation.

    Treating Vtilde as the perturbation of d^2 phi/dw^2 + phi/hbar^2 = 0 and
    solving to first order with the outgoing Green function gives the
    on-shell backscattering amplitude

        R1 = (i hbar / 2) v(+1, -1)

    the i hbar/2 factor being the on-shell weight of the free propagator.
    |R1|^2 tracks the once-reflected probability as the perturbation
    amplitude goes to zero.  The batch of one of :func:`born_amplitudes`.
    """
    return complex(born_amplitudes(problem, problem.energy)[0])


def born_amplitudes(problem: ScatteringProblem, energies) -> np.ndarray:
    """R1 = (i hbar / 2) v(+1, -1) at each energy of a scan (see
    :func:`born_first_order`), from one call of the matrix-element sums, which
    refuse a v as :func:`_sum` says."""
    return 0.5j * problem.context.hbar * _matrix_elements(problem, energies, 1.0, -1.0)

