"""Randomised invariants: turning points, the phase accumulator, quantization,
and the banded Numerov oracle against the point-by-point recurrence.

Every property runs on a fixed, derandomised set of examples, so the suite
stays deterministic.  Barriers are Eckart, parabolic and Gaussian with random
height, width, centre, m and hbar; energies are drawn from the bulk of the
barrier and from within 1e-8 of its top.  The oracle properties draw Eckart,
Gaussian and square barriers with energies below and above the top.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from semiclassic import (
    EckartBarrier,
    GaussianBump,
    HarmonicWell,
    ParabolicBarrier,
    PhysicalContext,
    ScatteringProblem,
    SquareBarrier,
    action_integral,
    barrier_integral,
    find_turning_points,
    quantize_levels,
    solve_scattering_exact,
)
from semiclassic.exact_oracle import _count_nodes, _numerov_coefficients

#: The reference quadratures below ask for more than rounding allows near the top.
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

#: E / V0: the bulk of the barrier, or 1e-10..1e-8 below its top.
FRACTIONS = st.one_of(
    st.floats(0.05, 0.95), st.floats(1e-10, 1e-8).map(lambda d: 1.0 - d)
)


@st.composite
def barriers(draw):
    """(problem, a, b, near_top): a random barrier, its closed-form turning
    points, and whether E lies within 1e-8 of the top."""
    form = draw(st.sampled_from(["eckart", "parabolic", "gaussian"]))
    height, width = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    center = draw(st.floats(-2.0, 2.0))
    context = PhysicalContext(mass=draw(st.floats(0.5, 8.0)), hbar=draw(st.floats(0.3, 1.5)))
    fraction = draw(FRACTIONS)
    e = height * fraction
    if form == "eckart":
        potential = EckartBarrier(height=height, width=width, center=center)
        half = width * math.asinh(math.sqrt((height - e) / e))
        reach = 14.0 * width
    elif form == "parabolic":
        potential = ParabolicBarrier(height=height, curvature=width, center=center)
        half = math.sqrt(2.0 * (height - e) / width)
        reach = 1.5 * math.sqrt(2.0 * height / width)
    else:
        potential = GaussianBump(amplitude=height, width=width, center=center)
        half = width * math.sqrt(-math.log1p(-(height - e) / height))
        reach = 10.0 * width
    # Shift the domain so that the peak is not a sample of the geometry scan.
    shift = draw(st.floats(-0.2, 0.2)) * reach
    domain = (center - reach + shift, center + reach + shift)
    problem = ScatteringProblem(potential=potential, energy=e, domain=domain, context=context)
    return problem, center - half, center + half, fraction > 0.95


def adaptive(problem, start, end, forbidden=False):
    """integral of sqrt(2m|E - V|) from turning point ``start`` to ``end`` by quad."""
    m, e = problem.context.mass, problem.energy
    sign = -1.0 if forbidden else 1.0
    step = 1.0 if end > start else -1.0

    def integrand(s):
        gap = sign * (e - problem.v(start + step * s * s))
        return 2.0 * s * math.sqrt(max(2.0 * m * gap, 0.0))

    val, _ = integrate.quad(
        integrand, 0.0, math.sqrt(abs(end - start)), epsabs=0.0, epsrel=1e-12, limit=400
    )
    return val


@PROPERTY
@given(barriers())
def test_turning_points_match_closed_forms(case):
    problem, a, b, _ = case
    tp = find_turning_points(problem)
    assert tp.count == 2
    v_top = problem.v(0.5 * (a + b))
    for found, exact in ((tp.a, a), (tp.b, b)):
        # V rounded to a few ulps of its top moves a root by that over |V'|.
        tol = 1e-10 * max(1.0, b - a) + 4e-16 * v_top / abs(problem.dv(exact))
        assert abs(found - exact) <= tol


@PROPERTY
@given(barriers())
def test_accumulated_decay_matches_adaptive_quad(case):
    # Within 1e-8 of the top, V - E itself carries a relative rounding error
    # of ~1e-16 / 1e-10, so both quadratures agree only to ~1e-7 there.
    problem, _, _, near_top = case
    tp = find_turning_points(problem)
    mid = 0.5 * (tp.a + tp.b)
    ref = (
        adaptive(problem, tp.a, mid, forbidden=True)
        + adaptive(problem, tp.b, mid, forbidden=True)
    ) / problem.context.hbar
    assert barrier_integral(problem) == pytest.approx(ref, rel=1e-6 if near_top else 1e-10)


@PROPERTY
@given(barriers())
def test_accumulated_action_matches_adaptive_quad(case):
    problem = case[0]
    tp = find_turning_points(problem)
    lo, hi = problem.domain
    left = action_integral(problem, lo, tp.a)
    right = action_integral(problem, tp.b, hi)
    assert left == pytest.approx(adaptive(problem, tp.a, lo), rel=1e-10)
    assert right == pytest.approx(adaptive(problem, tp.b, hi), rel=1e-10)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    st.floats(0.5, 2.0), st.floats(0.5, 8.0), st.floats(0.3, 1.5), st.integers(0, 3)
)
def test_harmonic_levels_are_half_integer_quanta(stiffness, mass, hbar, n_max):
    omega = math.sqrt(stiffness / mass)
    # Four classical amplitudes of the highest level requested.
    reach = 4.0 * math.sqrt(2.0 * (n_max + 0.5) * hbar * omega / stiffness)
    problem = ScatteringProblem(
        potential=HarmonicWell(stiffness=stiffness),
        energy=0.0,
        domain=(-reach, reach),
        context=PhysicalContext(mass=mass, hbar=hbar),
    )
    for n, e in enumerate(quantize_levels(problem, n_max)):
        exact = (n + 0.5) * hbar * omega
        assert abs(e - exact) <= 1e-8 * exact


def numerov_loop_transmission(problem, grid_points=20001):
    """T from the three-term Numerov recurrence stepped point by point
    leftward from a unit outgoing wave: the reference for the banded solve."""
    lo, hi = problem.domain
    xs = np.linspace(lo, hi, grid_points)
    m, hbar = problem.context.mass, problem.context.hbar
    k2 = 2.0 * m * (problem.energy - problem.v(xs)) / hbar**2
    k_l, k_r = math.sqrt(k2[0]), math.sqrt(k2[-1])
    h = xs[1] - xs[0]
    a = 1.0 + (h * h / 12.0) * k2
    psi = np.empty(grid_points, dtype=complex)
    psi[-2:] = np.exp(1j * k_r * xs[-2:])
    for i in range(grid_points - 2, 0, -1):
        psi[i - 1] = ((12.0 - 10.0 * a[i]) * psi[i] - a[i + 1] * psi[i + 1]) / a[i - 1]
    dpsi = (
        -25.0 * psi[0] + 48.0 * psi[1] - 36.0 * psi[2] + 16.0 * psi[3] - 3.0 * psi[4]
    ) / (12.0 * h)
    incident = 0.5 * abs(psi[0] + dpsi / (1j * k_l))
    return (k_r / k_l) / incident**2


def numerov_loop_nodes(xs, k2):
    """Interior sign changes of the recurrence shot rightward from (0, 1e-8)."""
    h = xs[1] - xs[0]
    a = 1.0 + (h * h / 12.0) * k2
    psi = np.zeros(len(xs))
    psi[1] = 1e-8
    for i in range(1, len(xs) - 1):
        psi[i + 1] = ((12.0 - 10.0 * a[i]) * psi[i] - a[i - 1] * psi[i - 1]) / a[i + 1]
    return int(np.sum(psi[1:-1] * psi[2:] < 0))


@st.composite
def oracle_barriers(draw):
    """A random Eckart, Gaussian or square barrier with flat edges, at an
    energy below or above its top."""
    form = draw(st.sampled_from(["eckart", "gaussian", "square"]))
    height, width = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    center = draw(st.floats(-2.0, 2.0))
    context = PhysicalContext(mass=draw(st.floats(0.5, 4.0)), hbar=draw(st.floats(0.5, 1.5)))
    e = height * draw(st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 2.0)))
    if form == "eckart":
        potential, reach = EckartBarrier(height=height, width=width, center=center), 14.0 * width
    elif form == "gaussian":
        potential, reach = GaussianBump(amplitude=height, width=width, center=center), 8.0 * width
    else:
        potential, reach = SquareBarrier(height=height, width=width, center=center), 4.0 * width
    return ScatteringProblem(
        potential=potential, energy=e, domain=(center - reach, center + reach), context=context
    )


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(oracle_barriers())
def test_banded_transmission_matches_recurrence(problem):
    # The two sides round differently (LAPACK may fuse multiply-adds).  At
    # small h*k the two plane waves are nearly parallel over one step, and the
    # rounding of N steps moves T by up to ~N*eps/(h*k) relative in either.
    lo, hi = problem.domain
    h = (hi - lo) / 20000
    k_edge = math.sqrt(2.0 * problem.context.mass * problem.energy) / problem.context.hbar
    rounding = 20001 * np.finfo(float).eps / (h * k_edge)
    t = solve_scattering_exact(problem).transmission
    assert t == pytest.approx(numerov_loop_transmission(problem), rel=max(1e-9, rounding))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    st.floats(0.5, 2.0), st.floats(0.5, 4.0), st.floats(0.5, 1.5), st.floats(0.1, 10.0)
)
def test_banded_node_count_matches_recurrence(stiffness, mass, hbar, quanta):
    # Four classical amplitudes of the 10.5-quantum level: the tails grow by
    # at most ~e^170, inside double range for the unscaled recurrence.
    omega = math.sqrt(stiffness / mass)
    reach = 4.0 * math.sqrt(2.0 * 10.5 * hbar * omega / stiffness)
    xs = np.linspace(-reach, reach, 4001)
    k2 = 2.0 * mass * (quanta * hbar * omega - 0.5 * stiffness * xs**2) / hbar**2
    assert _count_nodes(*_numerov_coefficients(xs, k2)) == numerov_loop_nodes(xs, k2)
