"""Exact numerical solution of the stationary wave equation, for verification.

Fixed-step Numerov integration (O(h^4) global accuracy) of psi'' = -k^2(x) psi.
Scattering waves start at the right edge from a pure outgoing plane wave and
are decomposed at the left edge into incident plus reflected waves.  Bound
states are bracketed by the node count of the real solution shot from the
left edge (a Sturm count: the number of levels below E), and each level is
then the root of the Wronskian of the solutions shot from both edges, which
is smooth in E.  One step of the root solver sets up every live level at
once: the coefficients, the breakdown check and the Wronskian over the norms
are arrays with one row per energy, and only the two half-shots of each
energy are solved one by one.  Fixed steps rather than adaptive control keep
the emitted numbers bit-reproducible.

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
exactly, so no cut moves.  Since c = 6 / a_i - 5, the growth of n rows is
at most n arccosh max(|c|) over the least and the largest a_i; the pass runs
only where that bound reaches half of ln 1e150, so a shot that cannot be cut
costs its band and its solve alone.  Each segment is one banded solve seeded
from the previous segment's last two values divided by a power of two.  The
division is exact, so the segmented solve is bit-for-bit a rescaled single
solve, and the carried exponent keeps log|A| exact.  A problem whose |psi|
stays far from overflow is one segment.

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

from ._lazy import lazy
from .connection import WavefunctionTable, _region_tags
from .errors import (
    ChannelClosedError,
    DomainError,
    MatchingError,
    NumericalError,
    SpectrumError,
)
from .potential import (
    EckartBarrier,
    PhysicalContext,
    ScatteringProblem,
    SquareBarrier,
    _bracketed_roots,
    _require_count,
    _require_finite,
    find_turning_points,
)
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
    """(a, b) of a_{i-1} psi_{i-1} - b_i psi_i + a_{i+1} psi_{i+1} = 0 for each
    row of ``k2``, shape (n,) or (energies, n), written into ``out``, shape
    (2, *k2.shape), if given (its a may be k2 itself).  Raises for the first
    row where a <= 0."""
    h = xs[1] - xs[0]
    # a = 1 + h^2 k2 / 12 rises with k2, so its least value is that of the least k2.
    low = np.ravel(np.min(k2, axis=-1))
    broken = np.flatnonzero(h * h / 12.0 * low + 1.0 <= 0.0)
    if broken.size:
        raise NumericalError(
            f"Numerov step breaks down: h*kappa_max = {h * math.sqrt(-low[broken[0]]):.3g} "
            ">= sqrt(12) makes 1 + h^2 k^2 / 12 <= 0 on the grid; refine the grid"
        )
    a, b = np.empty((2, *k2.shape)) if out is None else out
    np.multiply(h * h / 12.0, k2, out=a)
    a += 1.0
    np.subtract(12.0, np.multiply(10.0, a, out=b), out=b)
    return a, b


def _segment_starts(a, b, scratch) -> list[int]:
    """The rows after the first at which :func:`_shoot` starts a new segment.

    With b = 12 - 10 a, row i grows by arccosh|6 / a_i - 5|, largest at the
    least or the largest a.  Where n - 2 rows of that growth stay below half
    of :data:`_SEGMENT_GROWTH` (a margin far beyond the rounding of the
    exact sum), no cut can occur and the exact pass is skipped.  ``scratch``
    holds the n - 2 ratios of the exact pass.
    """
    n = len(a)
    low, high = float(np.minimum.reduce(a)), float(np.maximum.reduce(a))
    worst = max(abs(6.0 / low - 5.0), abs(6.0 / high - 5.0)) if low > 0.0 else math.inf
    if (n - 2) * math.acosh(max(worst, 1.0)) < 0.5 * _SEGMENT_GROWTH:
        return []
    # An allowed row adds arccosh(1) = 0 to the growth, so summing only the
    # forbidden rows moves no cut; the first row never starts a new segment.
    ratio = np.multiply(2.0, a[1:-1], out=scratch[: n - 2])
    ratio = np.abs(np.divide(b[1:-1], ratio, out=ratio), out=ratio)
    forbidden = np.flatnonzero(ratio > 1.0)
    growth = np.cumsum(np.arccosh(ratio[forbidden]))
    if not growth.size or growth[-1] < _SEGMENT_GROWTH:
        return []
    cuts = forbidden[np.flatnonzero(np.diff(np.floor(growth / _SEGMENT_GROWTH), prepend=0.0))]
    return cuts[cuts > 0].tolist()


def _shoot(a, b, seeds, rows=None, work=None) -> tuple[np.ndarray, int]:
    """The Numerov solution from its first two rows ``seeds``, shape (2, ncol).

    Returns (psi, e): the solution is psi * 2**e on its last ``rows`` rows
    (all of them for None).  Each segment (see the module docstring) is one
    banded solve seeded from the previous segment's last two rows; before it,
    every kept row solved so far is divided by the power of two that brings
    those seeds into [0.5, 1).  ``work``, (3 + ncol) len(a) floats if given,
    holds the right-hand side and the band, which the solve overwrites; the
    psi of a one-segment shot is a view of it, valid until its next use.
    """
    n, ncol = len(a), seeds.shape[1]
    first = 0 if rows is None else n - rows
    work = np.empty((3 + ncol) * n) if work is None else work
    starts = [0, *_segment_starts(a, b, work)]
    psi = np.empty((n - first, ncol)) if len(starts) > 1 else None
    exponent = 0
    for start, stop in zip(starts, [*(s + 2 for s in starts[1:]), n]):
        # The exponent of the largest |seed|; frexp gives 0 for inf and for
        # nan, which np.max would return for any nan seed.
        magnitudes = [abs(seed) for seed in seeds.ravel().tolist()]
        _, shift = math.frexp(math.nan if any(map(math.isnan, magnitudes)) else max(magnitudes))
        if start > first:
            solved = psi[: start - first]
            np.ldexp(solved, -shift, out=solved)
        exponent += shift
        # Lower band storage: column j holds A[j, j], A[j+1, j], A[j+2, j];
        # the first two rows are the identity on the seeds.
        size = stop - start
        rhs = work[: ncol * size].reshape(ncol, size).T
        ab = work[ncol * size : (3 + ncol) * size].reshape(size, 3).T
        ab[0] = ab[2] = a[start:stop]
        np.negative(b[start:stop], out=ab[1])
        ab[0, :2] = 1.0
        ab[1, 0] = 0.0
        np.ldexp(seeds, -shift, out=rhs[:2])
        rhs[2:] = 0.0
        x, info = linalg.lapack.dtbtrs(ab, rhs, uplo="L", overwrite_b=1)
        if info != 0:
            raise NumericalError(f"banded Numerov solve failed: LAPACK info = {info}")
        if psi is None:
            return x[first:], exponent
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
    An energy that is not finite raises :class:`DomainError` first.
    """
    energies = _require_finite(energies, "energies")
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


def _count_nodes(a, b, work=None) -> int:
    """Interior sign changes of the real solution shot from the left edge."""
    psi, _ = _shoot(a, b, _EDGE_SEEDS, work=work)
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
    bottom of V of the shots from both edges over their norms, smooth in E.
    All bracket ends are evaluated in one step, and the shared solver
    (:func:`potential._bracketed_roots`) converges all isolated levels in
    one call, each of its steps one evaluation of every live level.
    """
    n_max = _require_count(n_max, "n_max")
    config = config or OracleConfig()
    xs, v = _grid_and_potential(problem, config)
    scale = 2.0 * problem.context.mass / problem.context.hbar**2
    j = int(np.argmin(v))
    v_min, v_edge = float(v[j]), float(min(v[0], v[-1]))
    if v_edge <= v_min:
        raise SpectrumError("potential does not confine: no well below the edges")
    work, coefficients = np.empty(4 * len(v)), np.empty((2, len(v)))

    def nodes_at(energy: float) -> int:
        k2 = np.multiply(np.subtract(energy, v, out=coefficients[0]), scale, out=coefficients[0])
        return _count_nodes(*_numerov_coefficients(xs, k2, coefficients), work)

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
            isolated.append((n, lo, hi))
    if not isolated:
        return levels
    # Bracketing every level first raises what one level at a time would: a
    # lower energy breaks the Numerov step down first, and every end but the
    # floor was node-counted, so only the floor can raise below; the signs
    # are then checked in level order.
    ends = list(dict.fromkeys(e for _, lo, hi in isolated for e in (lo, hi)))
    # One row per energy; the bracket ends are the most that come at once.
    batch, halves = np.empty((2, len(ends), len(v))), np.empty((len(ends), len(v) + 2))

    def mismatch(energies) -> np.ndarray:
        count = len(energies)
        a, b = batch[:, :count]
        np.multiply(np.subtract(np.asarray(energies)[:, None], v, out=a), scale, out=a)
        _numerov_coefficients(xs, a, (a, b))
        left, right = halves[:count, : j + 2], halves[:count, j + 2 :]
        for a_e, b_e, left_e, right_e in zip(a, b, left, right):
            left_e[:] = _shoot(a_e[: j + 2], b_e[: j + 2], _EDGE_SEEDS, work=work)[0][:, 0]
            shot = _shoot(a_e[: j - 1 : -1], b_e[: j - 1 : -1], _EDGE_SEEDS, work=work)[0]
            right_e[::-1] = shot[:, 0]
        # Scaled to their peaks so no square overflows; np.sum, not
        # np.linalg.norm, whose BLAS dot wakes a thread pool (~5 ms a call
        # on 20000 rows).
        for half in (left, right):
            half /= np.maximum(np.max(half, axis=1), -np.min(half, axis=1))[:, None]
        wronskian = left[:, j + 1] * right[:, 0] - left[:, j] * right[:, 1]
        norms = np.sum(np.square(left, out=left), axis=1)
        norms *= np.sum(np.square(right, out=right), axis=1)
        return wronskian / np.sqrt(norms)

    at = dict(zip(ends, mismatch(ends).tolist()))
    for n, lo, hi in isolated:
        if at[lo] * at[hi] > 0.0:
            raise NumericalError(
                f"Wronskian does not change sign across level {n} in [{lo:g}, {hi:g}]"
            )
    ns, lo, hi = (np.array(column) for column in zip(*isolated))
    roots = _bracketed_roots(
        lambda es, _: mismatch(es[:, 0]), lo, hi, [at[e] for e in lo.tolist()],
        [at[e] for e in hi.tolist()], 2e-12 + 1e-12 * np.maximum(np.abs(lo), np.abs(hi)),
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


def _closed_form_arguments(model, height, width, energy, mass, hbar) -> None:
    """Refuse, with :class:`DomainError`, what ``model`` or :class:`PhysicalContext`
    refuse (a height, width, mass or hbar not finite; a width, mass or hbar <= 0),
    and an E that is not positive and finite."""
    model(height=height, width=width)
    PhysicalContext(mass=mass, hbar=hbar)
    if not (energy > 0.0 and math.isfinite(energy)):
        raise DomainError(f"E must be positive and finite, got {energy}")


def analytic_square_barrier_transmission(
    height: float, width: float, energy: float, mass: float = 1.0, hbar: float = 1.0
) -> float:
    """Closed-form T for the rectangular barrier (any E > 0)."""
    _closed_form_arguments(SquareBarrier, height, width, energy, mass, hbar)
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
    _closed_form_arguments(EckartBarrier, height, width, energy, mass, hbar)
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
