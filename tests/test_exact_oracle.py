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
    PhysicalContext,
    ScatteringProblem,
    SpectrumError,
    SquareBarrier,
    TabulatedPotential,
    analytic_eckart_transmission,
    analytic_square_barrier_transmission,
    once_reflected_coefficient,
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

    def test_eckart_weak_barrier(self):
        # g = 8 m V0 d^2 / hbar^2 = 0.4 < 1: D = |cos(pi sqrt(1 - g) / 2)|.
        closed = analytic_eckart_transmission(0.05, 1.0, 0.5)
        assert closed == pytest.approx(0.9990995164573, abs=1e-13)
        problem = ScatteringProblem(
            potential=EckartBarrier(height=0.05, width=1.0), energy=0.5, domain=(-14.0, 14.0)
        )
        assert abs(solve_scattering_exact(problem).transmission - closed) <= 1e-9

    def test_eckart_monotone_in_energy(self):
        ts = [analytic_eckart_transmission(1.0, 1.0, e) for e in (0.2, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_positive_energy_required(self):
        with pytest.raises(DomainError):
            analytic_square_barrier_transmission(1.0, 2.0, 0.0)

    @pytest.mark.parametrize(
        "closed_form", [analytic_square_barrier_transmission, analytic_eckart_transmission]
    )
    @pytest.mark.parametrize(
        "args, what",
        [
            ((1.0, 1.0, math.nan), "E must be positive and finite"),
            ((1.0, 1.0, math.inf), "E must be positive and finite"),
            ((1.0, 1.0, -0.5), "E must be positive and finite"),
            ((math.nan, 1.0, 0.5), "height must be finite"),
            ((1.0, math.inf, 0.5), "width must be strictly positive"),
            ((1.0, 0.0, 0.5), "width must be strictly positive"),
            ((1.0, 1.0, 0.5, 0.0), "mass must be positive and finite"),
            ((1.0, 1.0, 0.5, math.nan), "mass must be positive and finite"),
            ((1.0, 1.0, 0.5, 1.0, -1.0), "hbar must be positive and finite"),
        ],
    )
    def test_bad_arguments_refused(self, closed_form, args, what):
        # Before, nan read as E = V0 (0.6667) or came back as nan, and a zero
        # width or mass raised a bare math domain error.
        with pytest.raises(DomainError, match=what):
            closed_form(*args)

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

    def test_small_reflection_from_its_own_amplitude(self):
        # A weak bump reflects ~3e-8: 1 - T would keep only a few of its
        # digits, |C/A|^2 keeps them all and meets the once-reflected value.
        problem = ScatteringProblem(
            potential=GaussianBump(amplitude=0.01, width=1.0), energy=2.0, domain=(-12, 12)
        )
        rep = solve_scattering_exact(problem)
        once = abs(once_reflected_coefficient(problem)) ** 2
        assert rep.reflection == pytest.approx(once, rel=1e-5)
        assert abs(rep.transmission + rep.reflection - 1.0) <= 1e-8

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_points", 1001.0),
            ("grid_points", True),
        ],
    )
    def test_values_that_would_break_or_switch_off_a_check(self, field, value):
        with pytest.raises(DomainError, match=field):
            OracleConfig(**{field: value})

    def test_kept_rows_are_the_tail_of_the_whole_shot(self, monkeypatch):
        # Growth over the last 12 rows cuts at rows 188, 190, ..., 196 at a
        # bound of 5: the five kept rows span the last two segments.
        a = np.ones(200)
        a[-12:] = 0.5
        seeds = np.array([[1.0, 0.3], [0.9, 0.5]])
        whole = np.ldexp(*exact_oracle._shoot(a, 10.0 * a - 12.0, seeds))
        monkeypatch.setattr(exact_oracle, "_SEGMENT_GROWTH", 5.0)
        for rows in (2, 3, 5, 9, 200):
            tail, exponent = exact_oracle._shoot(a, 10.0 * a - 12.0, seeds, rows)
            assert exponent == 41
            assert np.array_equal(np.ldexp(tail, exponent), whole[-rows:])

    def test_scan_rows_are_single_energy_rows(self):
        problem = ScatteringProblem(
            potential=SquareBarrier(height=1.0, width=2.0), energy=0.5, domain=(-8, 8)
        )
        energies = [0.3, 1.7, 0.05, 1.0 + 1e-9]
        reports = exact_oracle.scan_scattering_exact(problem, energies)
        for e, report in zip(energies, reports):
            one = ScatteringProblem(potential=problem.potential, energy=e, domain=(-8, 8))
            assert report == solve_scattering_exact(one)

    def test_scan_raises_for_its_first_failing_energy(self):
        problem = ScatteringProblem(
            potential=SquareBarrier(height=1.0, width=2.0), energy=0.5, domain=(-8, 8)
        )
        with pytest.raises(ChannelClosedError, match="E = -0.5 "):
            exact_oracle.scan_scattering_exact(problem, [0.5, -0.5, -1.0])


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

    def test_level_just_below_rim(self):
        # Depth 2, rim ~0: the node count is 2 at -0.04 (0.98 of the depth)
        # and 3 at -1e-12, so the third level lies in the last 2 % of the well.
        problem = ScatteringProblem(
            potential=GaussianBump(amplitude=-2.0, width=1.0),
            energy=0.0,
            domain=(-9.0, 9.0),
            context=PhysicalContext(mass=2.5, hbar=1.0),
        )
        config = OracleConfig(grid_points=8001)
        levels = solve_bound_states_exact(problem, 2, config)
        assert levels[2] == pytest.approx(-0.0150907, rel=1e-5)
        with pytest.raises(SpectrumError):
            solve_bound_states_exact(problem, 3, config)

    @pytest.mark.parametrize(
        "mass, expected",
        [
            # Each doublet split by ~1.3e-8 relative: resolved.
            (8.0, [0.4918888996772416, 0.49188890596366897,
                   1.4406454741556551, 1.4406468487877753]),
            # Split below rounding: both levels of a doublet are one value.
            (32.0, [0.2480111378545956, 0.2480111378545956,
                    0.7357958598595857, 0.7357958598595857]),
        ],
    )
    def test_double_well_doublets(self, mass, expected):
        # Quartic double well 0.25 (x^2 - 4)^2; expected values are those of
        # node-count bisection to 1e-9 max(1, |E|).
        samples = np.linspace(-4.0, 4.0, 801)
        problem = ScatteringProblem(
            potential=TabulatedPotential(samples, 0.25 * (samples**2 - 4.0) ** 2),
            energy=0.0,
            domain=(-4.0, 4.0),
            context=PhysicalContext(mass=mass, hbar=1.0),
        )
        levels = solve_bound_states_exact(problem, 3, OracleConfig(grid_points=8001))
        assert levels == pytest.approx(expected, rel=1e-9)
        if mass == 8.0:
            assert levels[0] < levels[1] < levels[2] < levels[3]

    def test_eight_levels_within_100_sweeps(self, monkeypatch):
        # Every Numerov row solved for the `exact` benchmark's 8-level request
        # (bisecting every level on the node count took 273 full sweeps).
        rows = []
        shoot = exact_oracle._shoot

        def counted(a, b, seeds, **options):
            rows.append(len(a))
            return shoot(a, b, seeds, **options)

        monkeypatch.setattr(exact_oracle, "_shoot", counted)
        problem = ScatteringProblem(
            potential=HarmonicWell(stiffness=1.0),
            energy=0.0,
            domain=(-6.0, 6.0),
            context=PhysicalContext(mass=4.0, hbar=1.0),
        )
        levels = solve_bound_states_exact(problem, 7, OracleConfig(grid_points=3001))
        assert levels == pytest.approx([0.5 * (n + 0.5) for n in range(8)], rel=1e-8)
        assert sum(rows) <= 100 * 3001


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

    def test_sweeps_reuse_one_work_area(self, monkeypatch):
        # A wave, a larger grid, a level solve and a smaller grid again work
        # in the same thread's area, which grows once and is never handed out
        # fresh for a smaller size; the first wave and the levels come out
        # the same after the others.
        monkeypatch.delattr(exact_oracle._AREAS, "floats", raising=False)
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
        )
        well = ScatteringProblem(potential=HarmonicWell(stiffness=1.0), energy=0.0, domain=(-8, 8))
        small, large = OracleConfig(grid_points=2001), OracleConfig(grid_points=4001)
        first = wavefunction_exact(problem, small)
        area = exact_oracle._work_area(8 * 2001)
        solve_scattering_exact(problem, large)
        grown = exact_oracle._work_area(8 * 4001)
        levels = solve_bound_states_exact(well, 1, small)
        again = wavefunction_exact(problem, small)
        assert np.shares_memory(exact_oracle._work_area(8 * 2001), grown)
        assert np.shares_memory(exact_oracle._work_area(1), grown)
        assert not np.shares_memory(area, grown)
        assert np.array_equal(first.psi, again.psi)
        assert first.region_tags == again.region_tags
        assert solve_bound_states_exact(well, 1, small) == levels

    @pytest.mark.parametrize("mass", [20.0, 120.0])
    def test_coarse_grid_wave_is_checked_for_unitarity(self, mass):
        # T + R - 1 is 1.5e-3 to 1.9e-2 on 1001 points for m = 20 to 120.
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0),
            energy=3.0,
            domain=(-14, 14),
            context=PhysicalContext(mass=mass, hbar=1.0),
        )
        with pytest.raises(NumericalError, match="unitarity violated"):
            wavefunction_exact(problem, OracleConfig(grid_points=1001))

    def test_opaque_wave_is_checked_for_overflow(self):
        problem = ScatteringProblem(
            potential=EckartBarrier(height=200.0, width=10.0), energy=1.0, domain=(-200, 200)
        )
        with pytest.raises(NumericalError, match=r"log10\|A\| = 253\."):
            wavefunction_exact(problem)
