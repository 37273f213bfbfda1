"""Exact numerical solution of the stationary wave equation, for verification.

Fixed-step Numerov integration (O(h^4) global accuracy) of psi'' = -k^2(x) psi.
Scattering waves start at the right edge from a pure outgoing plane wave and
are decomposed at the left edge into incident plus reflected waves.  Bound
states are bracketed by the node count of the real solution shot from the
left edge (a Sturm count: the number of levels below E), and each level is
then the root of the Wronskian of the solutions shot from both edges, which
is smooth in E.  Fixed steps rather than adaptive control keep the emitted
numbers bit-reproducible.

The three-term recurrence a_{i-1} psi_{i-1} - b_i psi_i + a_{i+1} psi_{i+1} = 0,
a_i = 1 + h^2 k_i^2 / 12 and b_i = 12 - 10 a_i, started from two known values
is a lower-triangular banded linear system of bandwidth 2 (the matrix form of
Numerov's method).  LAPACK's ``dtbtrs`` solves it by the same substitution as
the recurrence, in compiled code: one call per energy, the leftward sweep
being the same solve on the reversed grid, with Re and Im of the seed as two
right-hand sides.  a_i <= 0 anywhere (h kappa >= sqrt(12)) breaks the
recurrence down and raises NumericalError.  A scan of energies sets up the
grid, V and the work arrays once; each energy solves into the reused band
and right-hand-side arrays and keeps only the five left-edge rows that T and
R read.  The wavefunction runs the same checks, T + R = 1 included.

Behind a barrier the solution grows by up to lambda_i = c + sqrt(c^2 - 1),
c = b_i / 2 a_i, per step, and an opaque barrier would carry |psi| past the
double range.  The grid is therefore cut, in one vectorised pass, wherever
the running sum of ln lambda_i passes a multiple of ln 1e150.  The sum runs
over the forbidden rows |c| > 1 alone: every other row adds arccosh(1) = 0
exactly, so no cut moves.  Each segment is one banded solve seeded from the
previous segment's last two values divided by a power of two.  The division
is exact, so the segmented solve is bit-for-bit a rescaled single solve, and
the carried exponent keeps log|A| exact.  A problem whose |psi| stays far
from overflow is one segment.

Closed-form transmissions for the rectangular and sech^2 barriers are
provided as independent references the oracle is tested against; both are
written with differences of logarithms, so they return 0.0 or 1.0 rather
than overflow where T leaves the double range.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy
from .connection import WavefunctionTable, _region_tags
from .errors import (
    ChannelClosedError,
    DomainError,
    MatchingError,
    NumericalError,
    SpectrumError,
)
from .potential import ScatteringProblem, _bracketed_roots, find_turning_points
from .wkb_core import Method, TransmissionReport

linalg = lazy("scipy.linalg")

__all__ = [
    "OracleConfig",
    "scan_scattering_exact",
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
#: Plane-wave matching needs V flat to _V_EPS max(1, |E|) on a strip of
#: _MATCH_MARGIN of the domain at each edge.
_MATCH_MARGIN = 0.05
_V_EPS = 1e-10
#: First two rows of a bound-state shot: a node at the edge row.
_EDGE_SEEDS = np.array([[0.0], [1e-8]])


@dataclass(frozen=True)
class OracleConfig:
    """Grid resolution: an odd number of points, at least 1001."""

    grid_points: int = 20001

    def __post_init__(self) -> None:
        # A bool is an int, but never one >= 1001.
        grid = self.grid_points
        if not isinstance(grid, (int, np.integer)) or grid < 1001 or grid % 2 == 0:
            raise DomainError(f"grid_points must be an odd integer >= 1001, got {grid!r}")


def _grid_and_potential(problem: ScatteringProblem, config: OracleConfig):
    lo, hi = problem.domain
    xs = np.linspace(lo, hi, config.grid_points)
    return xs, problem.v(xs)


def _numerov_coefficients(xs, k2, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of a_{i-1} psi_{i-1} - b_i psi_i + a_{i+1} psi_{i+1} = 0, written
    into the rows of ``out``, shape (2, len(k2)), if given."""
    h = xs[1] - xs[0]
    a, b = np.empty((2, len(k2))) if out is None else out
    np.multiply(h * h / 12.0, k2, out=a)
    a += 1.0
    if np.min(a) <= 0.0:
        raise NumericalError(
            f"Numerov step breaks down: h*kappa_max = {h * math.sqrt(-np.min(k2)):.3g} "
            ">= sqrt(12) makes 1 + h^2 k^2 / 12 <= 0 on the grid; refine the grid"
        )
    np.subtract(12.0, np.multiply(10.0, a, out=b), out=b)
    return a, b


def _shoot(a, b, seeds, rows=None, work=None) -> tuple[np.ndarray, int]:
    """The Numerov solution from its first two rows ``seeds``, shape (2, ncol).

    Returns (psi, e): the solution is psi * 2**e on its last ``rows`` rows
    (all of them for None).  Each segment (see the module docstring) is one
    banded solve seeded from the previous segment's last two rows; before it,
    every kept row solved so far is divided by the power of two that brings
    those seeds into [0.5, 1).  ``work``, (3 + ncol) len(a) floats if given,
    holds the band and the right-hand side, which the solve overwrites.
    """
    n, ncol = len(a), seeds.shape[1]
    first = 0 if rows is None else n - rows
    work = np.empty((3 + ncol) * n) if work is None else work
    # An allowed row adds arccosh(1) = 0 to the growth, so summing only the
    # forbidden rows moves no cut; the first row never starts a new segment.
    ratio = np.multiply(2.0, a[1:-1], out=work[: n - 2])
    ratio = np.abs(np.divide(b[1:-1], ratio, out=ratio), out=ratio)
    forbidden = np.flatnonzero(ratio > 1.0)
    growth = np.cumsum(np.arccosh(ratio[forbidden]))
    cuts = forbidden[:0]
    if growth.size and growth[-1] >= _SEGMENT_GROWTH:
        cuts = forbidden[np.flatnonzero(np.diff(np.floor(growth / _SEGMENT_GROWTH), prepend=0.0))]
        cuts = cuts[cuts > 0]
    psi = np.empty((n - first, ncol))
    exponent = 0
    for start, stop in zip([0, *cuts], [*(cuts + 2), n]):
        _, shift = math.frexp(float(np.max(np.abs(seeds))))
        solved = psi[: max(start - first, 0)]
        np.ldexp(solved, -shift, out=solved)
        exponent += shift
        # Lower band storage: column j holds A[j, j], A[j+1, j], A[j+2, j];
        # the first two rows are the identity on the seeds.
        size = stop - start
        ab = work[: 3 * size].reshape((3, size), order="F")
        ab[0] = ab[2] = a[start:stop]
        np.negative(b[start:stop], out=ab[1])
        ab[0, :2] = 1.0
        ab[1, 0] = 0.0
        rhs = work[3 * size : (3 + ncol) * size].reshape((size, ncol), order="F")
        rhs[:2] = np.ldexp(seeds, -shift)
        rhs[2:] = 0.0
        x, info = linalg.lapack.dtbtrs(ab, rhs, uplo="L", overwrite_b=1)
        if info != 0:
            raise NumericalError(f"banded Numerov solve failed: LAPACK info = {info}")
        if stop > first:
            kept = max(start, first)
            psi[kept - first : stop - first] = x[kept - start :]
        seeds = x[-2:].copy()
    return psi, exponent


def _left_edge_decomposition(xs, psi, k_left) -> tuple[complex, complex]:
    """Solve psi = A e^{i k x} + C e^{-i k x} from (psi, psi') at the edge."""
    h = xs[1] - xs[0]
    dpsi = (
        -25.0 * psi[0] + 48.0 * psi[1] - 36.0 * psi[2] + 16.0 * psi[3] - 3.0 * psi[4]
    ) / (12.0 * h)
    a = 0.5 * (psi[0] + dpsi / (1j * k_left)) * np.exp(-1j * k_left * xs[0])
    c = 0.5 * (psi[0] - dpsi / (1j * k_left)) * np.exp(+1j * k_left * xs[0])
    return complex(a), complex(c)


def _scattering_rows(problem, energies, config, rows=5, tolerance=1e-8):
    """(T, R, xs, psi) at each energy in order, from one set-up of the grid.

    Raw T and R, the grid, and the wave of unit incident amplitude on its
    first ``rows`` points (all of them for None; the edge decomposition reads
    5).  Each energy runs every check in turn -- flat edges, open channel,
    Numerov breakdown, overflow of |A|, |T + R - 1| <= ``tolerance`` -- so
    a scan raises for its first failing energy.
    """
    xs, v = _grid_and_potential(problem, config)
    lo, hi = problem.domain
    margin = _MATCH_MARGIN * (hi - lo)
    left, right = v[xs <= lo + margin], v[xs >= hi - margin]
    deviation = max(np.max(np.abs(left - v[0])), np.max(np.abs(right - v[-1])))
    m, hbar = problem.context.mass, problem.context.hbar
    # The leftward sweep is the shot on the reversed grid.
    v_reversed = v[::-1].copy()
    k2, coefficients, work = np.empty(len(xs)), np.empty((2, len(xs))), np.empty(5 * len(xs))
    for e in energies:
        e = float(e)
        if deviation > _V_EPS * max(1.0, abs(e)):
            raise MatchingError(
                f"potential is not flat to {_V_EPS:g} max(1, |E|) on the outer "
                f"{_MATCH_MARGIN:.0%} of the domain; widen the domain before asking for "
                "plane-wave matching"
            )
        guard = 1e-6 * max(1.0, abs(e))
        if e - v[0] <= guard or e - v[-1] <= guard:
            raise ChannelClosedError(
                f"E = {e:g} must exceed the edge potential by more than {guard:g} "
                "for an open scattering channel"
            )
        k_l = math.sqrt(2.0 * m * (e - v[0])) / hbar
        k_r = math.sqrt(2.0 * m * (e - v[-1])) / hbar
        np.subtract(e, v_reversed, out=k2)
        k2 *= 2.0 * m
        k2 /= hbar**2
        a, b = _numerov_coefficients(xs, k2, coefficients)
        seed = np.exp(1j * k_r * xs[:-3:-1])
        psi, exponent = _shoot(a, b, np.column_stack([seed.real, seed.imag]), rows, work)
        psi = psi[::-1, 0] + 1j * psi[::-1, 1]
        amplitude, c = _left_edge_decomposition(xs, psi, k_l)
        mag = math.hypot(amplitude.real, amplitude.imag)
        log10_mag = math.log10(mag) + exponent * _LOG10_2
        if 2.0 * log10_mag >= _LOG10_MAX:
            raise NumericalError(
                f"incident amplitude overflows: log10|A| = {log10_mag:.1f}; "
                "T is below double range, the barrier is too opaque for the oracle"
            )
        t = (k_r / k_l) / math.ldexp(mag * mag, 2 * exponent)
        r = abs(c / amplitude) ** 2
        if abs(t + r - 1.0) > tolerance:
            raise NumericalError(
                f"unitarity violated: T + R - 1 = {t + r - 1.0:.3e}; refine the grid"
            )
        yield t, r, xs, psi / amplitude


def scan_scattering_exact(
    problem: ScatteringProblem, energies, config: OracleConfig | None = None
) -> list[TransmissionReport]:
    """Exact T and R at each energy of a scan, for a barrier with flat edges.

    T = (k_R / k_L) |t|^2 and R = |r|^2 from the plane-wave decomposition;
    their sum is checked against 1 to 1e-8, and each is then reported from
    its own amplitude, clamped into [0, 1], so a small R keeps all its digits
    instead of the few that 1 - T leaves.  The grid, V and the work arrays
    are set up once; an energy that fails a check raises as
    :func:`solve_scattering_exact` would, the first such energy in order.
    """
    # The defect checked bounds the discretization noise; clamping keeps
    # T = 1 problems from overshooting by ulps.
    return [
        TransmissionReport(
            transmission=min(max(t, 0.0), 1.0),
            reflection=min(r, 1.0),
            sigma_star=None,
            method=Method.EXACT_NUMEROV,
        )
        for t, r, _, _ in _scattering_rows(problem, energies, config or OracleConfig())
    ]


def solve_scattering_exact(
    problem: ScatteringProblem, config: OracleConfig | None = None
) -> TransmissionReport:
    """Exact T and R at the problem's energy: :func:`scan_scattering_exact` of one."""
    return scan_scattering_exact(problem, [problem.energy], config)[0]


def unitarity_defect(
    problem: ScatteringProblem, config: OracleConfig | None = None
) -> float:
    """Raw T + R - 1, the defect :func:`solve_scattering_exact` checks."""
    [(t, r, _, _)] = _scattering_rows(
        problem, [problem.energy], config or OracleConfig(), tolerance=math.inf
    )
    return t + r - 1.0


def _count_nodes(a, b) -> int:
    """Interior sign changes of the real solution shot from the left edge."""
    psi, _ = _shoot(a, b, _EDGE_SEEDS)
    negative = np.signbit(psi[1:, 0])
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def solve_bound_states_exact(
    problem: ScatteringProblem, n_max: int, config: OracleConfig | None = None
) -> list[float]:
    """Levels E_0..E_n_max of a confining well: Sturm brackets, then one root solve.

    The node count of the shot from the left edge is the number of levels
    below E.  Counts are kept per energy for all levels, and a bracket is
    split at its midpoint only while it holds more than one level (a pair
    unresolved at width 1e-9 max(1, |E|) gets the midpoint).  An isolated
    level is the root, to 1e-12 relative plus 2e-12, of the Wronskian at the
    bottom of V of the shots from both edges over their norms, smooth in E;
    the shared solver (:func:`potential._bracketed_roots`) converges all
    isolated levels in one call.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    config = config or OracleConfig()
    xs, v = _grid_and_potential(problem, config)
    scale = 2.0 * problem.context.mass / problem.context.hbar**2
    j = int(np.argmin(v))
    v_min, v_edge = float(v[j]), float(min(v[0], v[-1]))
    if v_edge <= v_min:
        raise SpectrumError("potential does not confine: no well below the edges")

    def nodes_at(energy: float) -> int:
        return _count_nodes(*_numerov_coefficients(xs, scale * (energy - v)))

    @functools.cache
    def mismatch(energy: float) -> float:
        a, b = _numerov_coefficients(xs, scale * (energy - v))
        left = _shoot(a[: j + 2], b[: j + 2], _EDGE_SEEDS)[0][:, 0]
        right = _shoot(a[: j - 1 : -1], b[: j - 1 : -1], _EDGE_SEEDS)[0][::-1, 0]
        # Scaled to their peaks so no square overflows; np.sum, not
        # np.linalg.norm, whose BLAS dot wakes a thread pool (~5 ms a call
        # on 20000 rows).
        left, right = left / np.max(np.abs(left)), right / np.max(np.abs(right))
        wronskian = left[j + 1] * right[0] - left[j] * right[1]
        return wronskian / math.sqrt(np.sum(left * left) * np.sum(right * right))

    floor = v_min + 1e-12 * max(1.0, abs(v_min))
    rim = v_edge - 1e-12 * max(1.0, abs(v_edge))
    counts = {floor: 0, rim: nodes_at(rim)}
    if counts[rim] <= n_max:
        raise SpectrumError(
            f"the well holds fewer than {n_max + 1} levels below its rim on this domain"
        )
    levels, isolated = [], []
    for n in range(n_max + 1):
        while True:
            lo = max(e for e, c in counts.items() if c <= n)
            hi = min(e for e, c in counts.items() if c > n)
            mid = 0.5 * (lo + hi)
            if counts[hi] - counts[lo] == 1 or hi - lo <= 1e-9 * max(1.0, abs(mid)):
                break
            counts[mid] = nodes_at(mid)
        levels.append(mid)
        if counts[hi] - counts[lo] == 1:
            f_lo, f_hi = mismatch(lo), mismatch(hi)
            if f_lo * f_hi > 0.0:
                raise NumericalError(
                    f"Wronskian does not change sign across level {n} in [{lo:g}, {hi:g}]"
                )
            isolated.append((n, lo, hi, f_lo, f_hi))
    if isolated:
        ns, lo, hi, f_lo, f_hi = (np.array(column) for column in zip(*isolated))
        roots = _bracketed_roots(
            lambda es, _: [mismatch(e) for e in es[:, 0].tolist()], lo, hi, f_lo, f_hi,
            2e-12 + 1e-12 * np.maximum(np.abs(lo), np.abs(hi)),
        )
        for n, root in zip(ns, roots.tolist()):
            levels[n] = root
    return levels


def wavefunction_exact(
    problem: ScatteringProblem, config: OracleConfig | None = None
) -> WavefunctionTable:
    """The integrated scattering wave on the grid, unit incident amplitude,
    checked as :func:`solve_scattering_exact` checks T and R."""
    [(_, _, xs, psi)] = _scattering_rows(
        problem, [problem.energy], config or OracleConfig(), rows=None
    )
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
