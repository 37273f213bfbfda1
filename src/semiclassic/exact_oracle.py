"""Exact numerical solution of the stationary wave equation, for verification.

Fixed-step Numerov integration (three-term recurrence, O(h^4) global
accuracy) of psi'' = -k^2(x) psi, started at the right edge from a pure
outgoing plane wave and decomposed at the left edge into incident plus
reflected waves.  Fixed steps rather than adaptive control keep the emitted
numbers bit-reproducible.

Closed-form transmissions for the rectangular and sech^2 barriers are
provided as independent references the oracle is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _propagate_leftward(xs, k2, k_right) -> np.ndarray:
    """Numerov recurrence from a unit outgoing wave at the right edge."""
    n = len(xs)
    h = xs[1] - xs[0]
    a = 1.0 + (h * h / 12.0) * k2
    psi = np.empty(n, dtype=complex)
    psi[-1] = np.exp(1j * k_right * xs[-1])
    psi[-2] = np.exp(1j * k_right * xs[-2])
    ps_next, ps_cur = psi[-1], psi[-2]
    for i in range(n - 2, 0, -1):
        ps_prev = ((12.0 - 10.0 * a[i]) * ps_cur - a[i + 1] * ps_next) / a[i - 1]
        psi[i - 1] = ps_prev
        ps_next, ps_cur = ps_cur, ps_prev
    return psi


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
    xs, v = _grid_and_potential(problem, config)
    _check_flat_edges(problem, config, xs, v)
    k_l, k_r = _edge_wavenumbers(problem, v)
    m, hbar, e = problem.context.mass, problem.context.hbar, problem.energy
    k2 = 2.0 * m * (e - v) / hbar**2
    psi = _propagate_leftward(xs, k2, k_r)
    a, c = _left_edge_decomposition(xs, psi, k_l)
    mag = math.hypot(a.real, a.imag)
    if not math.isfinite(mag * mag):
        raise NumericalError(
            f"incident amplitude overflows: log10|A| = {math.log10(mag):.1f}; "
            "T is below double range, the barrier is too opaque for the oracle"
        )
    t = (k_r / k_l) / (mag * mag)
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


def _count_nodes_batch(xs, k2_rows) -> np.ndarray:
    """Interior sign changes of the left-shot real solution, per energy row."""
    n = len(xs)
    h = xs[1] - xs[0]
    a = 1.0 + (h * h / 12.0) * k2_rows
    prev = np.zeros(k2_rows.shape[0])
    cur = np.full(k2_rows.shape[0], 1e-8)
    counts = np.zeros(k2_rows.shape[0], dtype=int)
    for i in range(1, n - 1):
        nxt = ((12.0 - 10.0 * a[:, i]) * cur - a[:, i - 1] * prev) / a[:, i + 1]
        counts += (nxt * cur < 0.0).astype(int)
        # Rescale well before |nxt * cur| could overflow; signs are all that matter.
        big = np.abs(nxt) > 1e120
        if np.any(big):
            scale = np.where(big, np.abs(nxt), 1.0)
            nxt = nxt / scale
            cur = cur / scale
        prev, cur = cur, nxt
    return counts


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

    def counts_at(energies: np.ndarray) -> np.ndarray:
        k2 = 2.0 * m * (energies[:, None] - v[None, :]) / hbar**2
        return _count_nodes_batch(xs, k2)

    # Find a ceiling that holds more than n_max levels, staying below the rim.
    ceiling = None
    for frac in (0.5, 0.75, 0.9, 0.98):
        e_try = v_min + frac * (v_edge - v_min)
        if counts_at(np.array([e_try]))[0] > n_max:
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
        counts = counts_at(mid)
        above = counts > ns
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return [float(v) for v in 0.5 * (lo + hi)]


def wavefunction_exact(
    problem: ScatteringProblem, config: OracleConfig | None = None
) -> WavefunctionTable:
    """The integrated scattering wave on the grid, unit incident amplitude."""
    config = config or OracleConfig()
    xs, v = _grid_and_potential(problem, config)
    _check_flat_edges(problem, config, xs, v)
    k_l, k_r = _edge_wavenumbers(problem, v)
    m, hbar, e = problem.context.mass, problem.context.hbar, problem.energy
    k2 = 2.0 * m * (e - v) / hbar**2
    psi = _propagate_leftward(xs, k2, k_r)
    a, _c = _left_edge_decomposition(xs, psi, k_l)
    psi = psi / a
    tags = _region_tags(problem, xs, find_turning_points(problem))
    return WavefunctionTable(xs=xs, psi=psi, region_tags=tags)


def analytic_square_barrier_transmission(
    height: float, width: float, energy: float, mass: float = 1.0, hbar: float = 1.0
) -> float:
    """Closed-form T for the rectangular barrier (any E > 0)."""
    if energy <= 0.0:
        raise DomainError("analytic square barrier: E must be positive")
    v0, l = height, width
    if energy < v0:
        kappa = math.sqrt(2.0 * mass * (v0 - energy)) / hbar
        s = math.sinh(kappa * l)
        return 1.0 / (1.0 + v0 * v0 * s * s / (4.0 * energy * (v0 - energy)))
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
    s2 = math.sinh(math.pi * k * width) ** 2
    if g >= 1.0:
        d2 = math.cosh(0.5 * math.pi * math.sqrt(g - 1.0)) ** 2
    else:
        d2 = math.cos(0.5 * math.pi * math.sqrt(1.0 - g)) ** 2
    return s2 / (s2 + d2)
