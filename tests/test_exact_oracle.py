"""The Numerov oracle against closed forms, unitarity, and its own grid."""

import math

import mpmath as mp
import numpy as np
import pytest

from semiclassic import (
    ChannelClosedError,
    DomainError,
    EckartBarrier,
    GaussianBump,
    HarmonicWell,
    LinearRamp,
    MatchingError,
    Method,
    NumericalError,
    OracleConfig,
    ScatteringProblem,
    SpectrumError,
    SquareBarrier,
    analytic_eckart_transmission,
    analytic_square_barrier_transmission,
    solve_bound_states_exact,
    solve_scattering_exact,
    unitarity_defect,
    wavefunction_exact,
)
from semiclassic import exact_oracle

FREE = ScatteringProblem(
    potential=LinearRamp(offset=0.0, slope=0.0), energy=0.5, domain=(-10.0, 10.0)
)


class TestAnalyticReferences:
    def test_square_frozen_value(self):
        # T = 1/(1 + sinh^2(kappa L) V0^2 / (4 E (V0-E))) at kappa = 1, L = 2.
        expected = 1.0 / (1.0 + math.sinh(2.0) ** 2)
        assert analytic_square_barrier_transmission(1.0, 2.0, 0.5) == pytest.approx(
            expected, rel=1e-15
        )

    def test_square_resonance(self):
        # Above the barrier, sin(k2 L) = 0 gives perfect transmission.
        e = 1.0 + (math.pi / 2.0) ** 2 / 2.0
        assert analytic_square_barrier_transmission(1.0, 2.0, e) == pytest.approx(1.0)

    def test_square_continuous_at_top(self):
        below = analytic_square_barrier_transmission(1.0, 2.0, 1.0 - 1e-9)
        at = analytic_square_barrier_transmission(1.0, 2.0, 1.0)
        above = analytic_square_barrier_transmission(1.0, 2.0, 1.0 + 1e-9)
        assert below == pytest.approx(at, rel=1e-6)
        assert above == pytest.approx(at, rel=1e-6)

    def test_eckart_monotone_in_energy(self):
        ts = [analytic_eckart_transmission(1.0, 1.0, e) for e in (0.2, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_positive_energy_required(self):
        with pytest.raises(DomainError):
            analytic_square_barrier_transmission(1.0, 2.0, 0.0)

    @pytest.mark.parametrize(
        "closed_form, args",
        [
            (analytic_eckart_transmission, (400.0, 10.0, 200.0)),  # T ~ 8.8e-227
            (analytic_eckart_transmission, (1.0, 1.0, 300000.0)),  # T = 1
            (analytic_eckart_transmission, (400.0, 10.0, 1.0)),  # T ~ 6e-734
            (analytic_square_barrier_transmission, (1e6, 10.0, 1.0)),  # T ~ 3e-12289
        ],
    )
    def test_extreme_arguments_match_mpmath(self, closed_form, args):
        # sinh and cosh of these arguments leave double range on their own.
        with mp.workdps(40):
            height, width, energy = (mp.mpf(v) for v in args)
            if closed_form is analytic_eckart_transmission:
                s2 = mp.sinh(mp.pi * mp.sqrt(2 * energy) * width) ** 2
                d2 = mp.cosh(mp.pi / 2 * mp.sqrt(8 * height * width**2 - 1)) ** 2
                exact = float(s2 / (s2 + d2))
            else:
                s = mp.sinh(mp.sqrt(2 * (height - energy)) * width)
                exact = float(1 / (1 + height**2 * s**2 / (4 * energy * (height - energy))))
        assert closed_form(*args) == pytest.approx(exact, rel=1e-10, abs=0.0)


class TestScattering:
    def test_free_particle(self):
        rep = solve_scattering_exact(FREE)
        assert rep.transmission == pytest.approx(1.0, abs=1e-10)
        assert rep.method is Method.EXACT_NUMEROV

    def test_square_barrier_matches_analytic(self):
        problem = ScatteringProblem(
            potential=SquareBarrier(height=1.0, width=2.0), energy=0.5, domain=(-8, 8)
        )
        rep = solve_scattering_exact(problem, OracleConfig(grid_points=32769))
        ref = analytic_square_barrier_transmission(1.0, 2.0, 0.5)
        assert abs(rep.transmission - ref) / ref < 1e-6
        assert rep.transmission == pytest.approx(0.0707, abs=1e-4)

    def test_eckart_matches_analytic(self):
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
        )
        rep = solve_scattering_exact(problem)
        ref = analytic_eckart_transmission(1.0, 1.0, 0.5)
        assert abs(rep.transmission - ref) / ref < 1e-6

    def test_unitarity_scan(self):
        for e in np.linspace(0.2, 1.8, 5):
            problem = ScatteringProblem(
                potential=GaussianBump(amplitude=1.0, width=1.0),
                energy=float(e),
                domain=(-8, 8),
            )
            assert abs(unitarity_defect(problem)) < 1e-8

    def test_grid_convergence(self):
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
        )
        t1 = solve_scattering_exact(problem, OracleConfig(grid_points=10001)).transmission
        t2 = solve_scattering_exact(problem, OracleConfig(grid_points=20001)).transmission
        assert abs(t2 - t1) / t2 < 1e-7

    def test_nonflat_edges_rejected(self):
        problem = ScatteringProblem(
            potential=GaussianBump(amplitude=1.0, width=1.0), energy=0.5, domain=(-3, 3)
        )
        with pytest.raises(MatchingError):
            solve_scattering_exact(problem)

    def test_closed_channel_rejected(self):
        problem = ScatteringProblem(
            potential=LinearRamp(offset=1.0, slope=0.0), energy=0.5, domain=(-10, 10)
        )
        with pytest.raises(ChannelClosedError):
            solve_scattering_exact(problem)

    def test_opaque_barrier_overflow_is_typed(self):
        # |A| ~ e^{sigma*} ~ 1e253 at sigma* ~ 584: |A|^2 leaves double range.
        problem = ScatteringProblem(
            potential=EckartBarrier(height=200.0, width=10.0), energy=1.0, domain=(-200, 200)
        )
        with pytest.raises(NumericalError, match=r"log10\|A\| = 253\.\d"):
            solve_scattering_exact(problem)

    @pytest.mark.filterwarnings("error")
    def test_more_opaque_barrier_keeps_its_magnitude(self):
        # |A| ~ 1e366 passes the double range inside the sweep itself; the
        # growth-bounded segments keep log10|A| (closed form: 366.61).
        problem = ScatteringProblem(
            potential=EckartBarrier(height=400.0, width=10.0), energy=1.0, domain=(-200, 200)
        )
        with pytest.raises(NumericalError, match=r"log10\|A\| = 366\.6"):
            solve_scattering_exact(problem)

    def test_numerov_breakdown_is_typed(self):
        # h = 0.016, kappa = 316: 1 + h^2 k^2 / 12 = -1.13 inside the barrier,
        # where the recurrence would return T = 2.2e-11 for a true 5.9e-18.
        problem = ScatteringProblem(
            potential=SquareBarrier(height=50000.0, width=0.05), energy=1.0, domain=(-8, 8)
        )
        with pytest.raises(NumericalError, match=r"h\*kappa_max = 5\.06"):
            solve_scattering_exact(problem, OracleConfig(grid_points=1001))

    def test_segmented_solve_is_a_rescaled_single_solve(self, monkeypatch):
        # T ~ 5e-71: |A| ~ 1e35 fits one segment at the default growth bound
        # and needs two at 1e20; dividing by powers of two changes no bit.
        problem = ScatteringProblem(
            potential=EckartBarrier(height=50.0, width=3.0), energy=1.0, domain=(-60, 60)
        )
        whole = solve_scattering_exact(problem).transmission
        psi = wavefunction_exact(problem).psi
        monkeypatch.setattr(exact_oracle, "_SEGMENT_GROWTH", math.log(1e20))
        assert solve_scattering_exact(problem).transmission == whole
        assert np.array_equal(wavefunction_exact(problem).psi, psi)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            OracleConfig(grid_points=20000)
        with pytest.raises(DomainError):
            OracleConfig(grid_points=999)


class TestBoundStates:
    def test_harmonic_levels(self):
        problem = ScatteringProblem(
            potential=HarmonicWell(stiffness=1.0), energy=0.0, domain=(-12, 12)
        )
        levels = solve_bound_states_exact(problem, 3, OracleConfig(grid_points=12001))
        for n, e in enumerate(levels):
            assert e == pytest.approx(n + 0.5, abs=1e-8)

    def test_ordering(self):
        problem = ScatteringProblem(
            potential=HarmonicWell(stiffness=2.0), energy=0.0, domain=(-10, 10)
        )
        levels = solve_bound_states_exact(problem, 4, OracleConfig(grid_points=8001))
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_node_count_brackets_level_index(self):
        # Sturm oscillation: the shooting solution has exactly n nodes just
        # below E_n and n+1 just above (the tail divergence flips sign there).
        problem = ScatteringProblem(
            potential=HarmonicWell(stiffness=1.0), energy=0.0, domain=(-12, 12)
        )
        config = OracleConfig(grid_points=8001)
        levels = solve_bound_states_exact(problem, 2, config)
        xs = np.linspace(-12, 12, config.grid_points)
        h = xs[1] - xs[0]

        def nodes_at(e):
            k2 = 2.0 * (e - 0.5 * xs**2)
            a = 1.0 + h * h * k2 / 12.0
            psi = np.zeros(len(xs))
            psi[1] = 1e-8
            for i in range(1, len(xs) - 1):
                psi[i + 1] = ((12.0 - 10.0 * a[i]) * psi[i] - a[i - 1] * psi[i - 1]) / a[i + 1]
            return int(np.sum(psi[1:-1] * psi[2:] < 0))

        for n, e in enumerate(levels):
            assert nodes_at(e - 1e-6) == n
            assert nodes_at(e + 1e-6) == n + 1

    def test_wide_well_levels(self):
        # The shot grows by ~e^800 across each tail, several growth segments.
        problem = ScatteringProblem(
            potential=HarmonicWell(stiffness=1.0), energy=0.0, domain=(-40, 40)
        )
        levels = solve_bound_states_exact(problem, 2, OracleConfig(grid_points=40001))
        for n, e in enumerate(levels):
            assert e == pytest.approx(n + 0.5, abs=1e-8)

    def test_non_confining_rejected(self):
        with pytest.raises(SpectrumError):
            solve_bound_states_exact(FREE, 2)


class TestWavefunction:
    def test_flat_potential_plane_wave(self):
        table = wavefunction_exact(FREE, OracleConfig(grid_points=4001))
        expected = np.exp(1j * table.xs)
        assert np.max(np.abs(table.psi - expected)) < 1e-9

    def test_current_constant(self):
        problem = ScatteringProblem(
            potential=GaussianBump(amplitude=0.5, width=1.0), energy=1.5, domain=(-8, 8)
        )
        table = wavefunction_exact(problem)
        xs, psi = table.xs, table.psi
        h = xs[1] - xs[0]
        # Five-point derivative on the interior; j = Im(conj(psi) psi').
        dpsi = (psi[:-4] - 8 * psi[1:-3] + 8 * psi[3:-1] - psi[4:]) / (12 * h)
        j = (np.conj(psi[2:-2]) * dpsi).imag
        assert np.max(np.abs(j - j[0])) / abs(j[0]) < 1e-8

    def test_unit_incident_normalization(self):
        problem = ScatteringProblem(
            potential=GaussianBump(amplitude=0.5, width=1.0), energy=1.5, domain=(-8, 8)
        )
        table = wavefunction_exact(problem)
        # Refit the left-edge flat strip against the two plane waves.
        mask = table.xs <= -6.5
        xs, psi = table.xs[mask], table.psi[mask]
        k = math.sqrt(2.0 * 1.5)
        basis = np.column_stack([np.exp(1j * k * xs), np.exp(-1j * k * xs)])
        coef, *_ = np.linalg.lstsq(basis, psi, rcond=None)
        residual = np.max(np.abs(basis @ coef - psi))
        assert residual < 1e-8
        assert abs(coef[0]) == pytest.approx(1.0, abs=1e-9)

    def test_region_tags_present(self):
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
        )
        table = wavefunction_exact(problem, OracleConfig(grid_points=2001))
        values = {t.value for t in table.region_tags}
        assert values == {"allowed_left", "forbidden", "allowed_right"}
