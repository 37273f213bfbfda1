"""Nothing below assumes m = hbar = 1; spot-check a nontrivial unit system."""

import pytest

from semiclassic import (
    EckartBarrier,
    GaussianBump,
    HarmonicWell,
    OracleConfig,
    PhysicalContext,
    ScatteringProblem,
    analytic_eckart_transmission,
    barrier_integral,
    once_reflected_coefficient,
    quantize_levels,
    solve_bound_states_exact,
    solve_scattering_exact,
    transmission_from_currents,
    transmission_leading,
)

CTX = PhysicalContext(mass=2.0, hbar=0.5)


def test_opacity_scales_with_sqrt_mass():
    light = ScatteringProblem(
        potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
    )
    heavy = ScatteringProblem(
        potential=EckartBarrier(height=1.0, width=1.0),
        energy=0.5,
        domain=(-14, 14),
        context=PhysicalContext(mass=4.0, hbar=1.0),
    )
    assert barrier_integral(heavy) == pytest.approx(
        2.0 * barrier_integral(light), rel=1e-12
    )


def test_harmonic_levels_are_half_integer_hbar_omega():
    # omega = sqrt(stiffness/m) = 1, hbar = 1/2: levels (n + 1/2)/2.
    well = ScatteringProblem(
        potential=HarmonicWell(stiffness=2.0), energy=0.0, domain=(-12, 12), context=CTX
    )
    wkb = quantize_levels(well, 2)
    exact = solve_bound_states_exact(well, 2, OracleConfig(grid_points=12001))
    for n, (a, b) in enumerate(zip(wkb, exact)):
        assert a == pytest.approx(0.5 * (n + 0.5), abs=1e-8)
        assert b == pytest.approx(0.5 * (n + 0.5), abs=1e-7)


def test_oracle_matches_analytic_eckart():
    problem = ScatteringProblem(
        potential=EckartBarrier(height=1.0, width=1.5),
        energy=0.4,
        domain=(-24, 24),
        context=PhysicalContext(mass=0.8, hbar=1.1),
    )
    t = solve_scattering_exact(problem).transmission
    ref = analytic_eckart_transmission(1.0, 1.5, 0.4, mass=0.8, hbar=1.1)
    assert t == pytest.approx(ref, rel=1e-6)


def test_once_reflected_tracks_oracle():
    bump = ScatteringProblem(
        potential=GaussianBump(amplitude=0.01, width=1.0),
        energy=1.2,
        domain=(-12, 12),
        context=PhysicalContext(mass=1.5, hbar=0.8),
    )
    r_once = abs(once_reflected_coefficient(bump)) ** 2
    r_exact = 1.0 - solve_scattering_exact(bump).transmission
    assert r_once == pytest.approx(r_exact, rel=0.05)


def test_patched_identity():
    deep = ScatteringProblem(
        potential=EckartBarrier(height=1.0, width=1.0),
        energy=0.15,
        domain=(-14, 14),
        context=CTX,
    )
    assert abs(
        transmission_from_currents(deep).transmission
        - transmission_leading(deep).transmission
    ) < 1e-14
