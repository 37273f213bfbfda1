"""Multiple-reflection machinery in the over-barrier (weak-reflection) regime.

Everything here assumes E > max V so the momentum p(x) stays real on the
whole line; below-barrier transmission belongs to the connection module.
The local coupling between the two WKB components is the differential
reflection coefficient r(x) = p'(x)/(2 p(x)); its once-integrated effect is
the first term of the multiple-reflection series, and Picard iteration of
the coupled amplitude equations resums the rest.

Sign convention: with the stated integral equations, one Picard step gives
C_minus(left edge) exactly equal to the once-reflected amplitude
-int r e^{2iw/hbar} dx.  Only |R|^2 is observable; phases depend on the
(arbitrary) reference point x0, and reported probabilities do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import DomainError, PoleError, RegimeError
from .potential import PhysicalContext, ScatteringProblem, _knots, find_turning_points
from .wkb_core import _accumulate, assert_outside_exclusion, effective_perturbation_value

__all__ = [
    "PhaseGrid",
    "EffectivePerturbation",
    "PicardAmplitudes",
    "differential_reflection",
    "phase_transform",
    "picard_amplitudes",
    "once_reflected_coefficient",
    "effective_perturbation",
    "effective_perturbation_forms",
    "effective_perturbation_profile",
    "matrix_element",
    "born_first_order",
    "momentum_propagator",
]

@dataclass(frozen=True)
class PhaseGrid:
    """Positions, accumulated action w(x0, x), and momenta on a grid."""

    xs: np.ndarray
    ws: np.ndarray
    ps: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ws = np.asarray(self.ws, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        if not (len(xs) == len(ws) == len(ps)):
            raise DomainError("phase grid columns must have equal length")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ws", ws)
        object.__setattr__(self, "ps", ps)


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
    """Iterated amplitude functions sampled on a phase grid."""

    grid: PhaseGrid
    c_plus: np.ndarray
    c_minus: np.ndarray
    iterations_used: int
    converged: bool

    @property
    def reflection_amplitude(self) -> complex:
        """C_minus at the far left: the resummed reflection amplitude."""
        return complex(self.c_minus[0])


def _v_max(problem: ScatteringProblem) -> float:
    """max V on the domain, from its edges and refined extrema."""
    return max(v for _, v in _knots(problem))


def _require_over_barrier(problem: ScatteringProblem) -> None:
    vmax = _v_max(problem)
    if problem.energy <= vmax:
        raise RegimeError(
            f"E = {problem.energy:g} does not exceed max V = {vmax:g} on the "
            "domain; below-barrier problems belong to the connection module"
        )


def differential_reflection(problem: ScatteringProblem, x: float) -> float:
    """r(x) = p'(x) / (2 p(x)) = -m V'(x) / (2 p(x)^2).

    The local rate at which forward and backward WKB amplitudes couple.
    Requires a classically allowed point outside any turning-point
    exclusion zone.
    """
    e, m = problem.energy, problem.context.mass
    v = problem.v(x)
    if e <= v:
        raise DomainError(
            f"differential reflection needs the allowed region; E <= V at x = {x:g}"
        )
    tp = find_turning_points(problem)
    if tp.count:
        assert_outside_exclusion(problem, [x], tp=tp)
    p2 = 2.0 * m * (e - v)
    return -m * problem.dv(x) / (2.0 * p2)


def _action_spline(problem: ScatteringProblem, n_panels: int = 8192):
    """Cubic interpolant of W(x) = int_{x_min}^x p, from the phase accumulator."""
    lo, hi = problem.domain
    xs = np.linspace(lo, hi, n_panels + 1)
    return CubicSpline(xs, _accumulate(problem, lo, xs))


def phase_transform(
    problem: ScatteringProblem, n_points: int = 4097, x0: float | None = None
) -> PhaseGrid:
    """Grid of (x, w, p) with w the action measured from x0 (default: left edge).

    In the phase variable the wave equation reads
    d^2 phi/dw^2 + [1/hbar^2 + Vtilde(w)] phi = 0 after the amplitude
    rescaling phi = sqrt(p/hbar) psi; Vtilde is exposed by
    :func:`effective_perturbation`.
    """
    _require_over_barrier(problem)
    lo, hi = problem.domain
    if x0 is None:
        x0 = lo
    xs = np.linspace(lo, hi, n_points)
    spline = _action_spline(problem)
    ws = spline(xs) - spline(x0)
    m, e = problem.context.mass, problem.energy
    ps = np.sqrt(2.0 * m * (e - np.asarray(problem.v(xs), dtype=float)))
    return PhaseGrid(xs=xs, ws=ws, ps=ps)


def picard_amplitudes(
    problem: ScatteringProblem,
    iterations: int,
    n_points: int = 4097,
    tol: float = 1e-10,
    x0: float | None = None,
) -> PicardAmplitudes:
    """Iterate the coupled amplitude integral equations from C+ = 1, C- = 0.

        C+(x) = 1 + int_{-inf}^{x} r C- e^{-2iw/hbar} dx'
        C-(x) =   - int_{x}^{+inf} r C+ e^{+2iw/hbar} dx'

    The domain edges stand in for +/- infinity, so the domain must contain
    the support of r.  Trapezoid quadrature on the grid; iteration stops at
    ``iterations`` or when the largest relative change drops below ``tol``.
    """
    if iterations < 1:
        raise DomainError(f"iterations must be >= 1, got {iterations}")
    grid = phase_transform(problem, n_points=n_points, x0=x0)
    hbar = problem.context.hbar
    xs = grid.xs
    r = -problem.context.mass * np.asarray(problem.dv(xs), dtype=float) / (
        2.0 * grid.ps**2
    )
    phase_plus = np.exp(+2.0j * grid.ws / hbar)
    phase_minus = np.exp(-2.0j * grid.ws / hbar)

    def cumtrapz(vals):
        seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(xs)
        out = np.empty(len(xs), dtype=complex)
        out[0] = 0.0
        np.cumsum(seg, out=out[1:])
        return out

    c_plus = np.ones(len(xs), dtype=complex)
    c_minus = np.zeros(len(xs), dtype=complex)
    used = 0
    converged = False
    for _ in range(iterations):
        used += 1
        forward = cumtrapz(r * c_minus * phase_minus)
        new_plus = 1.0 + forward
        back = cumtrapz(r * new_plus * phase_plus)
        new_minus = -(back[-1] - back)
        delta = max(
            float(np.max(np.abs(new_plus - c_plus))),
            float(np.max(np.abs(new_minus - c_minus))),
        )
        norm = max(1.0, float(np.max(np.abs(new_plus))))
        c_plus, c_minus = new_plus, new_minus
        if delta / norm < tol:
            converged = True
            break
    return PicardAmplitudes(
        grid=grid,
        c_plus=c_plus,
        c_minus=c_minus,
        iterations_used=used,
        converged=converged,
    )


def once_reflected_coefficient(
    problem: ScatteringProblem, x0: float | None = None, n_panels: int = 8192
) -> complex:
    """Single-reflection amplitude R = -int r(x) e^{2 i w(x0, x)/hbar} dx.

    The oscillatory integral is evaluated by adaptive quadrature with the
    phase w tracked through a high-order interpolant of the accumulated
    action.  |R|^2 estimates the reflection probability; it is independent
    of the reference point x0, which only rotates the phase.
    """
    _require_over_barrier(problem)
    lo, hi = problem.domain
    if x0 is None:
        x0 = lo
    spline = _action_spline(problem, n_panels=n_panels)
    w_ref = float(spline(x0))
    m, e, hbar = problem.context.mass, problem.energy, problem.context.hbar

    def integrand(x: float) -> complex:
        v = problem.v(x)
        p2 = 2.0 * m * (e - v)
        r = -m * problem.dv(x) / (2.0 * p2)
        return r * np.exp(2.0j * (float(spline(x)) - w_ref) / hbar)

    re, _ = integrate.quad(
        lambda x: integrand(x).real, lo, hi, limit=800, epsabs=1e-13, epsrel=1e-12
    )
    im, _ = integrate.quad(
        lambda x: integrand(x).imag, lo, hi, limit=800, epsabs=1e-13, epsrel=1e-12
    )
    return -(re + 1j * im)


def effective_perturbation(problem: ScatteringProblem, x: float) -> float:
    """Vtilde(x) = (3 p'^2 - 2 p p'') / (4 p^4), the phase-variable residual."""
    return effective_perturbation_value(problem, x)


def effective_perturbation_forms(
    problem: ScatteringProblem, x: float, fd_step: float | None = None
):
    """The three algebraically equivalent forms of the residual potential.

    Returns (direct, sigma1_route, sigma2_route): the momentum-derivative
    form, the form (sigma1'' + sigma1'^2)/sigma0'^2 evaluated by finite
    differences of sigma1 = -ln sqrt(p) (an independent numerical route),
    and -(2/p) sigma2' with sigma2' recovered from the direct value (the
    identity the expansion's second-order term is housed through).
    """
    direct = effective_perturbation_value(problem, x)
    m, e = problem.context.mass, problem.energy

    def sigma1(xv: float) -> float:
        p2 = 2.0 * m * (e - problem.v(xv))
        if p2 <= 0.0:
            raise DomainError(f"sigma1 undefined in forbidden region at x = {xv:g}")
        return -0.25 * math.log(p2)

    h = fd_step if fd_step is not None else 1e-3 * max(1.0, abs(x))
    samples = [sigma1(x + j * h) for j in (-2, -1, 0, 1, 2)]
    s1p = (samples[0] - 8 * samples[1] + 8 * samples[3] - samples[4]) / (12 * h)
    s1pp = (-samples[0] + 16 * samples[1] - 30 * samples[2] + 16 * samples[3]
            - samples[4]) / (12 * h * h)
    p2 = 2.0 * m * (e - problem.v(x))
    sigma1_route = (s1pp + s1p * s1p) / p2

    p = math.sqrt(p2)
    sigma2_prime = -0.5 * p * direct
    sigma2_route = -(2.0 / p) * sigma2_prime
    return direct, sigma1_route, sigma2_route


def effective_perturbation_profile(
    problem: ScatteringProblem, xs, x0: float | None = None
) -> EffectivePerturbation:
    """Vtilde sampled against the phase variable w measured from x0."""
    _require_over_barrier_or_allowed(problem, xs)
    xs = np.sort(np.atleast_1d(np.asarray(xs, dtype=float)))
    spline = _action_spline(problem)
    if x0 is None:
        x0 = problem.domain[0]
    ws = spline(xs) - float(spline(x0))
    values = np.array([effective_perturbation_value(problem, x) for x in xs])
    return EffectivePerturbation(ws=np.asarray(ws, dtype=float), values=values)


def _require_over_barrier_or_allowed(problem: ScatteringProblem, xs) -> None:
    xa = np.atleast_1d(np.asarray(xs, dtype=float))
    v = np.asarray(problem.v(xa), dtype=float)
    if np.any(problem.energy <= v) or problem.energy < _v_max(problem):
        raise RegimeError(
            "all sample points, and the domain the phase is accumulated "
            "over, must be classically allowed"
        )


def matrix_element(
    problem: ScatteringProblem,
    k_i: float,
    k_f: float,
    x0: float | None = None,
    tail_cut: float = 1e-12,
) -> complex:
    """Perturbation matrix element over the phase variable.

        v(k_i, k_f) = int e^{i (k_f - k_i) w(x)/hbar} Vtilde(w(x)) dw

    k_i, k_f are dimensionless direction labels whose on-shell values are
    +1/-1 (the free propagator's poles sit at hbar k = +/-1).  The integral
    runs over the region where |Vtilde| exceeds ``tail_cut`` times its peak;
    a non-decaying Vtilde cannot be truncated and is rejected.
    """
    _require_over_barrier(problem)
    lo, hi = problem.domain
    if x0 is None:
        x0 = lo
    xs = np.linspace(lo, hi, 4097)
    vt = np.array([effective_perturbation_value(problem, x) for x in xs])
    peak = float(np.max(np.abs(vt)))
    if peak == 0.0:
        return 0.0 + 0.0j
    inside = np.abs(vt) >= tail_cut * peak
    if inside[0] or inside[-1]:
        raise DomainError(
            "effective perturbation has not decayed below the truncation "
            "threshold at the domain edges; widen the domain"
        )
    support = xs[inside]
    x_lo, x_hi = float(support[0]), float(support[-1])

    spline = _action_spline(problem)
    w_ref = float(spline(x0))
    m, e, hbar = problem.context.mass, problem.energy, problem.context.hbar
    dk = k_f - k_i

    def integrand(x: float) -> complex:
        w = float(spline(x)) - w_ref
        p = math.sqrt(2.0 * m * (e - problem.v(x)))
        return effective_perturbation_value(problem, x) * np.exp(
            1j * dk * w / hbar
        ) * p

    re, _ = integrate.quad(
        lambda x: integrand(x).real, x_lo, x_hi, limit=800, epsabs=1e-13, epsrel=1e-12
    )
    im, _ = integrate.quad(
        lambda x: integrand(x).imag, x_lo, x_hi, limit=800, epsabs=1e-13, epsrel=1e-12
    )
    return re + 1j * im


def born_first_order(
    problem: ScatteringProblem, k_i: float = 1.0, k_f: float = -1.0
) -> complex:
    """First-order reflection amplitude of the phase-variable wave equation.

    Treating Vtilde as the perturbation of d^2 phi/dw^2 + phi/hbar^2 = 0 and
    solving to first order with the outgoing Green function gives

        R1 = (i hbar / 2) v(k_i, k_f)

    for backscattering (k_f = -k_i on shell); the i hbar/2 factor is the
    on-shell weight of the free propagator.  |R1|^2 tracks the once-reflected
    probability as the perturbation amplitude goes to zero.
    """
    return 0.5j * problem.context.hbar * matrix_element(problem, k_i, k_f)


def momentum_propagator(k: float, context: PhysicalContext = PhysicalContext()) -> float:
    """Free propagator hbar^2 / (2 pi (1 - (hbar k)^2)) in the phase variable.

    Real poles sit at hbar k = +/-1 and no contour prescription is adopted,
    so evaluation within 1e-6 of a pole is refused; no perturbation series
    is built on top of this function.
    """
    hk = context.hbar * k
    if min(abs(hk - 1.0), abs(hk + 1.0)) < 1e-6:
        raise PoleError(f"hbar k = {hk:g} is within 1e-6 of a propagator pole")
    return context.hbar**2 / (2.0 * math.pi * (1.0 - hk * hk))
