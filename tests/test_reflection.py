"""Over-barrier reflection: Picard iteration, once-reflected integral, Vtilde."""

import math

import numpy as np
import pytest

from semiclassic import (
    DomainError,
    EckartBarrier,
    GaussianBump,
    LinearRamp,
    NumericalError,
    PhysicalContext,
    RegimeError,
    ScatteringProblem,
    SquareBarrier,
    action_integral,
    born_amplitudes,
    born_first_order,
    effective_perturbation,
    effective_perturbation_profile,
    matrix_element,
    once_reflected_coefficient,
    once_reflected_coefficients,
    picard_amplitudes,
    solve_scattering_exact,
)

FREE = ScatteringProblem(
    potential=LinearRamp(offset=0.0, slope=0.0), energy=0.5, domain=(-10.0, 10.0)
)
WEAK_BUMP = ScatteringProblem(
    potential=GaussianBump(amplitude=0.01, width=1.0), energy=2.0, domain=(-12.0, 12.0)
)


def _sigma1_route(problem, x):
    """Vtilde = (sigma1'' + sigma1'^2) / p^2 from five-point differences of
    sigma1 = -ln sqrt(p), step 1e-3 max(1, |x|): a route that reads V alone."""
    h = 1e-3 * max(1.0, abs(x))
    p2s = 2.0 * problem.context.mass * (problem.energy - problem.v(x + h * np.arange(-2.0, 3.0)))
    s = -0.25 * np.log(p2s)
    s1p = (s[0] - 8 * s[1] + 8 * s[3] - s[4]) / (12 * h)
    s1pp = (-s[0] + 16 * s[1] - 30 * s[2] + 16 * s[3] - s[4]) / (12 * h * h)
    return float((s1pp + s1p * s1p) / p2s[2])


class TestPhaseTransform:
    """The phase variable w(x0, x), as the effective-perturbation profile gives it."""

    def test_free_particle_linear_phase(self):
        xs = np.linspace(-10.0, 10.0, 101)
        ws = effective_perturbation_profile(FREE, xs).ws
        np.testing.assert_allclose(ws, (xs + 10.0) * 1.0, atol=1e-12)

    def test_monotone(self):
        ws = effective_perturbation_profile(WEAK_BUMP, np.linspace(-12.0, 12.0, 257)).ws
        assert np.all(np.diff(ws) > 0)

    def test_matches_adaptive_action(self):
        xs = np.linspace(-12.0, 12.0, 257)
        ws = effective_perturbation_profile(WEAK_BUMP, xs).ws
        for idx in (40, 128, 200):
            ref = action_integral(WEAK_BUMP, WEAK_BUMP.domain[0], float(xs[idx]))
            assert abs(ws[idx] - ref) < 1e-10

    def test_below_barrier_rejected(self):
        # Both points are allowed; the domain the phase runs over is not.
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
        )
        with pytest.raises(RegimeError):
            effective_perturbation_profile(problem, [-10.0, 10.0])


class TestPicard:
    def test_free_particle_identity(self):
        # The amplitudes sit at the 2560 nodes of the reflection sums, ascending.
        sol = picard_amplitudes(FREE, iterations=3)
        assert np.all(np.diff(sol.grid) > 0) and sol.grid.shape == (2560,)
        np.testing.assert_array_equal(sol.c_plus, np.ones(2560, dtype=complex))
        np.testing.assert_array_equal(sol.c_minus, np.zeros(2560, dtype=complex))

    def test_one_step_equals_once_reflected(self):
        sol = picard_amplitudes(WEAK_BUMP, iterations=1)
        assert sol.reflection_amplitude == once_reflected_coefficient(WEAK_BUMP)

    def test_contraction(self):
        five = picard_amplitudes(WEAK_BUMP, iterations=5)
        six = picard_amplitudes(WEAK_BUMP, iterations=6)
        diff = max(
            np.max(np.abs(five.c_plus - six.c_plus)),
            np.max(np.abs(five.c_minus - six.c_minus)),
        )
        assert diff < 1e-10

    def test_convergence_flag(self):
        sol = picard_amplitudes(WEAK_BUMP, iterations=20)
        assert sol.converged
        assert sol.iterations_used < 20

    def test_requires_over_barrier(self):
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
        )
        with pytest.raises(RegimeError):
            picard_amplitudes(problem, iterations=2)

    def test_requires_positive_iterations(self):
        with pytest.raises(DomainError):
            picard_amplitudes(WEAK_BUMP, iterations=0)


class TestOnceReflected:
    def test_free_particle(self):
        assert once_reflected_coefficient(FREE) == 0.0

    def test_tracks_exact_reflection(self):
        r_once = abs(once_reflected_coefficient(WEAK_BUMP)) ** 2
        r_exact = 1.0 - solve_scattering_exact(WEAK_BUMP).transmission
        assert abs(r_once - r_exact) / r_exact < 0.30

    def test_first_order_amplitude_scaling(self):
        amps = (0.005, 0.01, 0.02)
        logs = [
            math.log(
                abs(
                    once_reflected_coefficient(
                        ScatteringProblem(
                            potential=GaussianBump(amplitude=a, width=1.0),
                            energy=2.0,
                            domain=(-12, 12),
                        )
                    )
                )
            )
            for a in amps
        ]
        slope = np.polyfit(np.log(amps), logs, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_reference_point_invariance(self):
        base = abs(once_reflected_coefficient(WEAK_BUMP, x0=0.0)) ** 2
        for shift in (-5.0, 5.0):
            assert abs(abs(once_reflected_coefficient(WEAK_BUMP, x0=shift)) ** 2 - base) < 1e-10

    def test_below_barrier_rejected(self):
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
        )
        with pytest.raises(RegimeError):
            once_reflected_coefficient(problem)

    @pytest.mark.parametrize(
        "call",
        [once_reflected_coefficient, lambda problem: picard_amplitudes(problem, iterations=3)],
        ids=["once-reflected", "picard"],
    )
    @pytest.mark.parametrize(
        "problem",
        [
            # The sum past the edges of +/-2 may reach 0.31 of |R|; it is 12.5 % below +/-12's.
            ScatteringProblem(WEAK_BUMP.potential, WEAK_BUMP.energy, (-2.0, 2.0)),
            # r never decays (1.3 of |R|): the sum on +/-10 and on +/-20 differs by 34 %.
            ScatteringProblem(LinearRamp(offset=0.0, slope=0.01), 2.0, (-10.0, 10.0)),
            # Neither edge alone reaches 1 % of |R|, both together 1.8 %; |R|^2
            # was 8.649e-10, against 8.390e-10 on +/-40.
            ScatteringProblem(
                EckartBarrier(height=1.0, width=1.0), 2.0, (-6.0, 6.0), PhysicalContext(mass=32.0)
            ),
        ],
        ids=["gaussian-2", "ramp", "eckart-m32"],
    )
    def test_domain_that_cuts_r_rejected(self, problem, call):
        with pytest.raises(DomainError, match=r"^E = 2: the integrand has not decayed at the"):
            call(problem)

    def test_non_finite_energy_refused(self):
        for energy in (math.nan, math.inf):
            with pytest.raises(NumericalError, match=r"the oscillatory sum is not finite"):
                once_reflected_coefficients(WEAK_BUMP, [energy])
            with pytest.raises(NumericalError, match=r"the oscillatory sum is not finite"):
                born_amplitudes(WEAK_BUMP, [energy])

    def test_below_unsampled_peak_rejected(self):
        # The peak at x = 0.005 falls between samples of any fixed grid; E is
        # 1e-8 below it, which only the refined maximum of V reveals.
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0, center=0.005),
            energy=1.0 - 1e-8,
            domain=(-14, 14),
        )
        with pytest.raises(RegimeError):
            once_reflected_coefficient(problem)


class TestEffectivePerturbation:
    def test_flat_potential(self):
        assert effective_perturbation(FREE, 1.0) == 0.0

    def test_linear_ramp_tail(self):
        # Vtilde(w) w^2 = 5/36 exactly for a linear potential, w from a.
        problem = ScatteringProblem(
            potential=LinearRamp(offset=0.0, slope=-1.0), energy=1.0, domain=(-1, 30)
        )
        profile = effective_perturbation_profile(problem, [0.0, 2.0, 10.0], x0=-1.0)
        for w, v in profile.samples:
            assert v * w * w == pytest.approx(5.0 / 36.0, abs=1e-8)

    def test_three_forms_agree(self):
        # Of Vtilde's three forms, -(2/p) sigma2' with sigma2' = -p Vtilde / 2
        # is the direct one by algebra; the sigma1 route by differences reads V alone.
        problem = ScatteringProblem(
            potential=GaussianBump(amplitude=0.3, width=1.2), energy=2.0, domain=(-10, 10)
        )
        for x in (-1.7, 0.4, 2.2):
            direct = effective_perturbation(problem, x)
            fd_route = _sigma1_route(problem, x)
            scale = max(1e-3, abs(direct))
            assert abs(direct - fd_route) <= 1e-8 * max(1.0, abs(direct) / scale) * scale

    def test_forbidden_rejected(self):
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14, 14)
        )
        with pytest.raises(DomainError):
            effective_perturbation(problem, 0.0)


class TestBornFirstOrder:
    def test_flat_potential_vanishes(self):
        assert born_first_order(FREE) == 0.0

    def test_hermiticity(self):
        v1 = matrix_element(WEAK_BUMP, 0.7, -0.3)
        v2 = matrix_element(WEAK_BUMP, -0.3, 0.7)
        assert v1 == pytest.approx(v2.conjugate(), rel=1e-9)

    def test_tracks_once_reflected(self):
        b = abs(born_first_order(WEAK_BUMP)) ** 2
        r = abs(once_reflected_coefficient(WEAK_BUMP)) ** 2
        assert abs(b - r) / r < 0.50

    def test_non_decaying_perturbation_rejected(self):
        problem = ScatteringProblem(
            potential=LinearRamp(offset=0.0, slope=0.01), energy=2.0, domain=(-10, 10)
        )
        with pytest.raises(DomainError):
            matrix_element(problem, 1.0, -1.0)

    def test_non_winding_element_reads_the_decay(self):
        # With k_i = k_f the sum does not wind: where Vtilde decays, the rate
        # of that decay bounds the sum past the edges; where it does not, the
        # sum is refused.
        assert matrix_element(WEAK_BUMP, 0.7, 0.7) == pytest.approx(-9.858520209980341e-07, rel=1e-12)
        ramp = ScatteringProblem(LinearRamp(offset=0.0, slope=0.01), 2.0, (-10.0, 10.0))
        with pytest.raises(DomainError, match=r"the integrand has not decayed"):
            matrix_element(ramp, 0.7, 0.7)


class TestUnresolved:
    """An amplitude that does not clear the rounding floor of its oscillatory
    sum, eps x the phase span / hbar x the sum of |integrand|, raises, and so
    does one that the 10-point rule's remainder may miss by more than 1 %."""

    # k d = 20: the true |R| is below 1e-40.
    SHARP = ScatteringProblem(
        potential=GaussianBump(amplitude=0.01, width=1.0),
        energy=2.0,
        domain=(-12.0, 12.0),
        context=PhysicalContext(hbar=0.1),
    )

    @pytest.mark.parametrize(
        "call",
        [once_reflected_coefficient, born_first_order, lambda p: picard_amplitudes(p, 5)],
    )
    def test_refused(self, call):
        with pytest.raises(NumericalError, match=r"^E = 2: \|R\| is 0\.0\d+ of the rounding"):
            call(self.SHARP)

    # 24.5 rad per panel: 256 panels gave |R|^2 4.1e-15 (once-reflected) and
    # 2.0e-19 (born1), 1024 panels 7.7e-31; the closed form is ~1e-90.
    WOUND = ScatteringProblem(
        potential=EckartBarrier(height=1.0, width=1.0),
        energy=3.0,
        domain=(-20.0, 20.0),
        context=PhysicalContext(mass=1024.0),
    )

    @pytest.mark.parametrize(
        "call",
        [once_reflected_coefficient, born_first_order, lambda p: picard_amplitudes(p, 1)],
    )
    def test_unresolved_phase_refused(self, call):
        with pytest.raises(NumericalError, match=r"^E = 3: the phase .* winds up to 24\.5 rad "):
            call(self.WOUND)

    def test_scan_reports_its_first_unresolved_energy(self):
        # m 256 on an Eckart barrier: E 1.5 is resolved, 3 and 2.25 are not.
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0),
            energy=1.5,
            domain=(-14.0, 14.0),
            context=PhysicalContext(mass=256.0),
        )
        assert abs(once_reflected_coefficients(problem, [1.5])[0]) > 0.0
        with pytest.raises(NumericalError, match=r"^E = 3: \|R\| is 0\.11 of the rounding floor"):
            once_reflected_coefficients(problem, [1.5, 3.0, 2.25])


class TestBatches:
    def test_first_energy_below_the_top_is_reported(self):
        for batch in (once_reflected_coefficients, born_amplitudes):
            with pytest.raises(RegimeError, match=r"^E = 0\.005 does not exceed"):
                batch(WEAK_BUMP, [2.0, 0.005, 0.001])

    def test_empty_batch(self):
        assert once_reflected_coefficients(WEAK_BUMP, []).shape == (0,)
        assert born_amplitudes(WEAK_BUMP, []).shape == (0,)


class TestJumps:
    """V' and V'' miss a jump of V, so r(x) and Vtilde would vanish and the
    reflection sums read 0: a potential that jumps inside the domain is refused."""

    SQUARE = ScatteringProblem(
        potential=SquareBarrier(height=1.0, width=2.0), energy=1.5, domain=(-8.0, 8.0),
        context=PhysicalContext(mass=4.0),
    )

    def test_models_report_their_jumps(self):
        assert SquareBarrier(height=1.0, width=2.0, center=0.5).jumps == (-0.5, 1.5)
        assert SquareBarrier(height=0.0, width=2.0).jumps == ()
        assert GaussianBump(amplitude=1.0, width=1.0).jumps == ()

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: once_reflected_coefficient(p),
            lambda p: once_reflected_coefficients(p, [1.5, 2.0]),
            lambda p: born_first_order(p),
            lambda p: born_amplitudes(p, [1.5, 2.0]),
            lambda p: matrix_element(p, 1.0, -1.0),
            lambda p: picard_amplitudes(p, iterations=2),
        ],
    )
    def test_square_barrier_refused(self, call):
        with pytest.raises(RegimeError, match=r"^V jumps at x = -1 and x = 1;"):
            call(self.SQUARE)

    def test_jumps_outside_the_domain_allowed(self):
        # Inside the barrier V is flat, and R = 0 is the right answer.
        inside = ScatteringProblem(
            potential=SquareBarrier(height=1.0, width=2.0), energy=1.5, domain=(-0.5, 0.5)
        )
        assert once_reflected_coefficient(inside) == 0.0
        assert born_first_order(inside) == 0.0

