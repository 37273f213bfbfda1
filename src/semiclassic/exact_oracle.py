"""Exact numerical solution of the stationary wave equation, for verification.

Fixed-step Numerov integration (O(h^4) global accuracy) of psi'' = -k^2(x) psi.
Scattering waves start at the right edge from a pure outgoing plane wave and
are decomposed at the left edge into incident plus reflected waves; bound
states come from counting the nodes of the real solution shot from the left
edge.  Fixed steps rather than adaptive control keep the emitted numbers
bit-reproducible.

The three-term recurrence a_{i-1} psi_{i-1} - b_i psi_i + a_{i+1} psi_{i+1} = 0,
a_i = 1 + h^2 k_i^2 / 12 and b_i = 12 - 10 a_i, started from two known values
is a lower-triangular banded linear system of bandwidth 2 (the matrix form of
Numerov's method).  LAPACK's ``dtbtrs`` solves it by the same substitution as
the recurrence, in compiled code: one call per energy, the leftward sweep
being the same solve on the reversed grid, with Re and Im of the seed as two
right-hand sides.  a_i <= 0 anywhere (h kappa >= sqrt(12)) breaks the
recurrence down and raises NumericalError.

Behind a barrier the solution grows by up to lambda_i = c + sqrt(c^2 - 1),
c = b_i / 2 a_i, per step, and an opaque barrier would carry |psi| past the
double range.  The grid is therefore cut, in one vectorised pass, wherever
the running sum of ln lambda_i passes a multiple of ln 1e150; each segment is
one banded solve seeded from the previous segment's last two values divided
by a power of two.  The division is exact, so the segmented solve is
bit-for-bit a rescaled single solve, and the carried exponent keeps log|A|
exact.  A problem whose |psi| stays far from overflow is one segment.

Closed-form transmissions for the rectangular and sech^2 barriers are
provided as independent references the oracle is tested against; both are
written with differences of logarithms, so they return 0.0 or 1.0 rather
than overflow where T leaves the double range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .connection import WavefunctionTable, _region_tags
from .errors import (
    ChannelClosedError,
    DomainError,
    MatchingError,
    NumericalError,
    SpectrumError,
)
from .potential import ScatteringProblem, find_turning_points
from .wkb_core import Method, TransmissionReport

__all__ = [
    "OracleConfig",
    "solve_scattering_exact",
    "solve_bound_states_exact",
    "wavefunction_exact",
    "unitarity_defect",
    "analytic_square_barrier_transmission",
    "analytic_eckart_transmission",
]


#: Summed growth ln(lambda) of the solution after which a new segment starts.
_SEGMENT_GROWTH = math.log(1e150)
_LOG10_2 = math.log10(2.0)
_LN2 = math.log(2.0)
_LOG10_MAX = math.log10(sys.float_info.max)


@dataclass(frozen=True)
class OracleConfig:
    """Grid resolution and asymptotic-matching thresholds.

    match_margin is the edge strip over which V must be flat to v_eps
    before plane-wave matching is trusted; None picks 5% of the domain.
    """

    grid_points: int = 20001
    match_margin: float | None = None
    v_eps: float = 1e-10

    def __post_init__(self) -> None:
        if self.grid_points < 1001 or self.grid_points % 2 == 0:
            raise DomainError(
                f"grid_points must be odd and >= 1001, got {self.grid_points}"
            )
        if self.v_eps <= 0.0:
            raise DomainError("v_eps must be positive")


def _grid_and_potential(problem: ScatteringProblem, config: OracleConfig):
    lo, hi = problem.domain
    xs = np.linspace(lo, hi, config.grid_points)
    v = np.asarray(problem.v(xs), dtype=float)
    return xs, v


def _check_flat_edges(problem, config, xs, v) -> None:
    lo, hi = problem.domain
    margin = config.match_margin if config.match_margin is not None else 0.05 * (hi - lo)
    tol = config.v_eps * max(1.0, abs(problem.energy))
    left = v[xs <= lo + margin]
    right = v[xs >= hi - margin]
    if np.max(np.abs(left - v[0])) > tol or np.max(np.abs(right - v[-1])) > tol:
        raise MatchingError(
            "potential is not flat at the domain edges to v_eps; widen the "
            "domain before asking for plane-wave matching"
        )


def _edge_wavenumbers(problem, v) -> tuple[float, float]:
    m, hbar, e = problem.context.mass, problem.context.hbar, problem.energy
    guard = 1e-6 * max(1.0, abs(e))
    if e - v[0] <= guard or e - v[-1] <= guard:
        raise ChannelClosedError(
            f"E = {e:g} must exceed the edge potential by more than {guard:g} "
            "for an open scattering channel"
        )
    k_l = math.sqrt(2.0 * m * (e - v[0])) / hbar
    k_r = math.sqrt(2.0 * m * (e - v[-1])) / hbar
    return k_l, k_r


def _numerov_coefficients(xs, k2) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of a_{i-1} psi_{i-1} - b_i psi_i + a_{i+1} psi_{i+1} = 0."""
    h = xs[1] - xs[0]
    a = 1.0 + (h * h / 12.0) * k2
    if np.min(a) <= 0.0:
        raise NumericalError(
            f"Numerov step breaks down: h*kappa_max = {h * math.sqrt(-np.min(k2)):.3g} "
            ">= sqrt(12) makes 1 + h^2 k^2 / 12 <= 0 on the grid; refine the grid"
        )
    return a, 12.0 - 10.0 * a


def _shoot(a, b, seeds) -> tuple[np.ndarray, int]:
    """The Numerov solution from its first two rows ``seeds``, shape (2, ncol).

    Returns (psi, e); the solution is psi * 2**e.  Each segment (see the
    module docstring) is one banded solve seeded from the previous segment's
    last two rows; before it, every row solved so far is divided by the power
    of two that brings those seeds into [0.5, 1).
    """
    n = len(a)
    growth = np.cumsum(np.arccosh(np.maximum(np.abs(b[1:-1] / (2.0 * a[1:-1])), 1.0)))
    cuts = np.flatnonzero(np.diff(np.floor(growth / _SEGMENT_GROWTH))) + 1
    psi = np.empty((n, seeds.shape[1]))
    psi[:2] = seeds
    exponent = 0
    for start, stop in zip([0, *cuts], [*(cuts + 2), n]):
        _, shift = math.frexp(float(np.max(np.abs(psi[start : start + 2]))))
        psi[: start + 2] = np.ldexp(psi[: start + 2], -shift)
        exponent += shift
        # Lower band storage: column j holds A[j, j], A[j+1, j], A[j+2, j];
        # the first two rows are the identity on the seeds.
        ab = np.array([a[start:stop], -b[start:stop], a[start:stop]], order="F")
        ab[0, :2] = 1.0
        ab[1, 0] = 0.0
        rhs = np.zeros((stop - start, psi.shape[1]), order="F")
        rhs[:2] = psi[start : start + 2]
        x, info = dtbtrs(ab, rhs, uplo="L")
        if info != 0:
            raise NumericalError(f"banded Numerov solve failed: LAPACK info = {info}")
        psi[start:stop] = x
    return psi, exponent


def _leftward_wave(problem: ScatteringProblem, config: OracleConfig):
    """(xs, psi, e, k_l, k_r): the wave psi * 2**e from a unit outgoing wave
    at the right edge."""
    xs, v = _grid_and_potential(problem, config)
    _check_flat_edges(problem, config, xs, v)
    k_l, k_r = _edge_wavenumbers(problem, v)
    m, hbar, e = problem.context.mass, problem.context.hbar, problem.energy
    a, b = _numerov_coefficients(xs, 2.0 * m * (e - v) / hbar**2)
    seed = np.exp(1j * k_r * xs[:-3:-1])
    psi, exponent = _shoot(a[::-1], b[::-1], np.column_stack([seed.real, seed.imag]))
    return xs, psi[::-1, 0] + 1j * psi[::-1, 1], exponent, k_l, k_r


def _left_edge_decomposition(xs, psi, k_left) -> tuple[complex, complex]:
    """Solve psi = A e^{i k x} + C e^{-i k x} from (psi, psi') at the edge."""
    h = xs[1] - xs[0]
    dpsi = (
        -25.0 * psi[0] + 48.0 * psi[1] - 36.0 * psi[2] + 16.0 * psi[3] - 3.0 * psi[4]
    ) / (12.0 * h)
    a = 0.5 * (psi[0] + dpsi / (1j * k_left)) * np.exp(-1j * k_left * xs[0])
    c = 0.5 * (psi[0] - dpsi / (1j * k_left)) * np.exp(+1j * k_left * xs[0])
    return complex(a), complex(c)


def _solve_raw(problem: ScatteringProblem, config: OracleConfig) -> tuple[float, float]:
    xs, psi, exponent, k_l, k_r = _leftward_wave(problem, config)
    a, c = _left_edge_decomposition(xs, psi, k_l)
    mag = math.hypot(a.real, a.imag)
    log10_mag = math.log10(mag) + exponent * _LOG10_2
    if 2.0 * log10_mag >= _LOG10_MAX:
        raise NumericalError(
            f"incident amplitude overflows: log10|A| = {log10_mag:.1f}; "
            "T is below double range, the barrier is too opaque for the oracle"
        )
    t = (k_r / k_l) / math.ldexp(mag * mag, 2 * exponent)
    r = abs(c / a) ** 2
    return t, r


def solve_scattering_exact(
    problem: ScatteringProblem, config: OracleConfig | None = None
) -> TransmissionReport:
    """Exact T and R for a barrier problem with flat asymptotic edges.

    T = (k_R / k_L) |t|^2 and R = |r|^2 from the plane-wave decomposition;
    their sum is checked against 1 to 1e-8 and the reported reflection is
    then 1 - T (the oracle enforces unitarity).
    """
    config = config or OracleConfig()
    t, r = _solve_raw(problem, config)
    if abs(t + r - 1.0) > 1e-8:
        raise NumericalError(
            f"unitarity violated: T + R - 1 = {t + r - 1.0:.3e}; refine the grid"
        )
    # The defect just checked bounds the discretization noise; clamp the
    # reported value into [0, 1] so T = 1 problems don't overshoot by ulps.
    t = min(max(t, 0.0), 1.0)
    return TransmissionReport(
        transmission=t,
        reflection=1.0 - t,
        sigma_star=None,
        method=Method.EXACT_NUMEROV,
    )


def unitarity_defect(
    problem: ScatteringProblem, config: OracleConfig | None = None
) -> float:
    """Raw T + R - 1 before the oracle enforces unitarity."""
    t, r = _solve_raw(problem, config or OracleConfig())
    return t + r - 1.0


def _count_nodes(a, b) -> int:
    """Interior sign changes of the real solution shot from the left edge."""
    psi, _ = _shoot(a, b, np.array([[0.0], [1e-8]]))
    negative = np.signbit(psi[1:, 0])
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def solve_bound_states_exact(
    problem: ScatteringProblem, n_max: int, config: OracleConfig | None = None
) -> list[float]:
    """Levels E_0..E_n_max of a confining well by node-count bisection.

    The node count of the shooting solution equals the number of levels
    below E, so bisecting the predicate count(E) > n converges to E_n
    without any sign bookkeeping; tolerance 1e-9 relative.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    config = config or OracleConfig()
    xs, v = _grid_and_potential(problem, config)
    m, hbar = problem.context.mass, problem.context.hbar
    v_edge = min(v[0], v[-1])
    v_min = float(np.min(v))
    if v_edge <= v_min:
        raise SpectrumError("potential does not confine: no well below the edges")

    def nodes_at(energy: float) -> int:
        return _count_nodes(*_numerov_coefficients(xs, 2.0 * m * (energy - v) / hbar**2))

    # Find a ceiling that holds more than n_max levels, staying below the rim.
    ceiling = None
    for frac in (0.5, 0.75, 0.9, 0.98):
        e_try = v_min + frac * (v_edge - v_min)
        if nodes_at(e_try) > n_max:
            ceiling = e_try
            break
    if ceiling is None:
        raise SpectrumError(
            f"the well holds fewer than {n_max + 1} levels below its rim on "
            "this domain"
        )

    ns = np.arange(n_max + 1)
    lo = np.full(n_max + 1, v_min + 1e-12 * max(1.0, abs(v_min)))
    hi = np.full(n_max + 1, ceiling)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        done = (hi - lo) <= 1e-9 * np.maximum(1.0, np.abs(mid))
        if np.all(done):
            break
        counts = np.array([nodes_at(e) for e in mid])
        above = counts > ns
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return [float(v) for v in 0.5 * (lo + hi)]


def wavefunction_exact(
    problem: ScatteringProblem, config: OracleConfig | None = None
) -> WavefunctionTable:
    """The integrated scattering wave on the grid, unit incident amplitude."""
    xs, psi, _, k_l, _ = _leftward_wave(problem, config or OracleConfig())
    a, _c = _left_edge_decomposition(xs, psi, k_l)
    psi = psi / a
    tags = _region_tags(problem, xs, find_turning_points(problem))
    return WavefunctionTable(xs=xs, psi=psi, region_tags=tags)


def _log_sinh(x: float) -> float:
    """ln sinh(x) for x > 0, without overflow."""
    return x + math.log(-math.expm1(-2.0 * x)) - _LN2


def _logistic(w: float) -> float:
    """1 / (1 + e^w), without overflow."""
    if w > 0.0:
        u = math.exp(-w)
        return u / (1.0 + u)
    return 1.0 / (1.0 + math.exp(w))


def analytic_square_barrier_transmission(
    height: float, width: float, energy: float, mass: float = 1.0, hbar: float = 1.0
) -> float:
    """Closed-form T for the rectangular barrier (any E > 0)."""
    if energy <= 0.0:
        raise DomainError("analytic square barrier: E must be positive")
    v0, l = height, width
    if energy < v0:
        # 1 / (1 + q sinh^2(kappa L)) as a logistic of ln(q sinh^2), which stays finite.
        kappa = math.sqrt(2.0 * mass * (v0 - energy)) / hbar
        log_q = 2.0 * math.log(v0) - math.log(4.0 * energy * (v0 - energy))
        return _logistic(log_q + 2.0 * _log_sinh(kappa * l))
    if energy > v0:
        k2 = math.sqrt(2.0 * mass * (energy - v0)) / hbar
        s = math.sin(k2 * l)
        return 1.0 / (1.0 + v0 * v0 * s * s / (4.0 * energy * (energy - v0)))
    return 1.0 / (1.0 + mass * l * l * v0 / (2.0 * hbar * hbar))


def analytic_eckart_transmission(
    height: float, width: float, energy: float, mass: float = 1.0, hbar: float = 1.0
) -> float:
    """Closed-form T for V = V0 sech^2(x/d) (any E > 0)."""
    if energy <= 0.0:
        raise DomainError("analytic Eckart barrier: E must be positive")
    k = math.sqrt(2.0 * mass * energy) / hbar
    g = 8.0 * mass * height * width * width / (hbar * hbar)
    # T = sinh^2(pi k d) / (sinh^2(pi k d) + D^2) = 1 / (1 + (D / sinh)^2), with
    # ln D - ln sinh a difference of logarithms, so neither term overflows.
    if g >= 1.0:
        y = 0.5 * math.pi * math.sqrt(g - 1.0)
        log_d = y + math.log1p(math.exp(-2.0 * y)) - _LN2  # ln cosh(y)
    else:
        log_d = math.log(abs(math.cos(0.5 * math.pi * math.sqrt(1.0 - g))))
    return _logistic(2.0 * (log_d - _log_sinh(math.pi * k * width)))
