"""Connection maps, patched barrier wave, currents, local Airy bridge."""

import cmath
import math

import numpy as np
import pytest

from semiclassic import (
    DomainError,
    EckartBarrier,
    HarmonicWell,
    LinearRamp,
    LinearizationError,
    Method,
    NoBarrierError,
    NumericalError,
    PhysicalContext,
    ScatteringProblem,
    TurningPointProximityError,
    action_integral,
    airy,
    airy_local_solution,
    barrier_currents,
    barrier_integral,
    connect_decreasing,
    connect_increasing,
    find_turning_points,
    patched_barrier_solution,
    probability_current,
    region_one_amplitudes,
    transmission_from_currents,
    transmission_leading,
)
from semiclassic.connection import Region, classify_region

DEEP_ECKART = ScatteringProblem(
    potential=EckartBarrier(height=1.0, width=1.0), energy=0.15, domain=(-14.0, 14.0)
)


def reference_region(problem, x, tp):
    """Point-by-point region rule the vectorised tags must reproduce."""
    if problem.v(x) > problem.energy:
        return Region.FORBIDDEN
    if tp.count == 2:
        if x < tp.a:
            return Region.ALLOWED_LEFT
        if x > tp.b:
            return Region.ALLOWED_RIGHT
        return Region.ALLOWED_LEFT  # allowed between roots only for wells
    if tp.count == 1:
        return Region.ALLOWED_LEFT if x <= tp.a else Region.ALLOWED_RIGHT
    return Region.ALLOWED_LEFT


class TestConnectionMaps:
    def test_increasing_cosine_ratio(self):
        assert connect_increasing(2.0, 0.0) == (1.0, 0.0)

    def test_increasing_sine_sign(self):
        assert connect_increasing(0.0, 1.0) == (0.0, -1.0)

    def test_decreasing_decaying_ratio(self):
        assert connect_decreasing(1.0, 0.0) == (2.0, 0.0)

    def test_decreasing_growing_sign(self):
        assert connect_decreasing(0.0, -1.0) == (0.0, 1.0)

    def test_orientation_guard(self):
        from semiclassic import OrientationError

        assert connect_increasing(2.0, 0.0, slope=1.5) == (1.0, 0.0)
        assert connect_decreasing(1.0, 0.0, slope=-1.5) == (2.0, 0.0)
        with pytest.raises(OrientationError):
            connect_increasing(1.0, 0.0, slope=-0.3)
        with pytest.raises(OrientationError):
            connect_decreasing(1.0, 0.0, slope=0.3)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = complex(*rng.normal(size=2))
            y = complex(*rng.normal(size=2))
            a, b = rng.normal(size=2)
            for fn in (connect_increasing, connect_decreasing):
                lhs = fn(a * x + b * y, a * y + b * x)
                fx, fy = fn(x, y), fn(y, x)
                rhs = (a * fx[0] + b * fy[0], a * fx[1] + b * fy[1])
                assert lhs[0] == pytest.approx(rhs[0])
                assert lhs[1] == pytest.approx(rhs[1])

    def test_roundtrip_through_barrier_reproduces_region_one(self):
        # Compose the maps backward from the outgoing wave and compare with
        # the closed-form incident/reflected amplitudes.
        sigma = 1.7
        b_amp = 1.0
        # Outgoing 2B e^{i(theta - pi/4)} on the (cos, sin) basis: (2B, 2iB).
        dec_b, grow_b = 0.5 * (2.0 * b_amp), -(2.0j * b_amp)
        # Carry across the barrier: coefficient bookkeeping in the a-basis.
        dec_a = grow_b * math.exp(sigma)
        grow_a = dec_b * math.exp(-sigma)
        cos_a, sin_a = 2.0 * dec_a, -grow_a
        # Euler split of cos/sin(phi - pi/4) into e^{-i phi} (incident).
        inc = 0.5 * (cos_a * cmath.exp(0.25j * math.pi) + sin_a * 1j * cmath.exp(0.25j * math.pi))
        expected_inc, _ = region_one_amplitudes(sigma, b_amp)
        assert abs(inc) == pytest.approx(abs(expected_inc), rel=1e-12)


class TestRegionOneAmplitudes:
    def test_flux_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sigma = rng.uniform(0.1, 5.0)
            inc, ref = region_one_amplitudes(sigma, 1.0)
            # |A_inc|^2 - |A_ref|^2 = |2B|^2: the current bracket identity.
            assert abs(inc) ** 2 - abs(ref) ** 2 == pytest.approx(4.0, rel=1e-10)

    def test_closed_forms(self):
        inc, ref = region_one_amplitudes(2.0, 1.0)
        assert abs(inc) == pytest.approx(2.0 * (math.exp(2) + 0.25 * math.exp(-2)))
        assert abs(ref) == pytest.approx(2.0 * (math.exp(2) - 0.25 * math.exp(-2)))


class TestCurrents:
    def test_plane_wave(self):
        # psi = e^{ikx}, k = 1: j = hbar k / m = 1.
        psi, dpsi = 1.0 + 0.0j, 1.0j
        assert probability_current(psi, dpsi) == pytest.approx(1.0)

    def test_real_wave_carries_no_flux(self):
        assert probability_current(0.7, 0.3) == pytest.approx(0.0)

    def test_quadratic_scaling(self):
        j1 = probability_current(1.0 + 0.5j, 0.2 + 1.0j)
        j2 = probability_current(2.0 + 1.0j, 0.4 + 2.0j)
        assert j2 == pytest.approx(4.0 * j1)

    def test_conservation_identity(self):
        for sigma in (0.3, 1.0, 2.5):
            j_inc, j_ref, j_out = barrier_currents(sigma)
            assert j_inc - j_ref == pytest.approx(j_out, rel=1e-12)

    def test_amplitude_cancels(self):
        j1 = barrier_currents(1.5, 1.0)
        j3 = barrier_currents(1.5, 3.0)
        assert j3[2] / j3[0] == pytest.approx(j1[2] / j1[0], rel=1e-14)

    def test_context_scaling(self):
        ctx = PhysicalContext(mass=2.0, hbar=0.5)
        j_inc, _, j_out = barrier_currents(1.0, 1.0, ctx)
        assert j_out == pytest.approx(4.0 * 0.5 / 2.0)


class TestTransmissionFromCurrents:
    def test_equals_corrected_closed_form(self):
        rep_conn = transmission_from_currents(DEEP_ECKART)
        rep_wkb = transmission_leading(DEEP_ECKART)
        assert rep_conn.method is Method.CONNECTION_PATCHED
        assert abs(rep_conn.transmission - rep_wkb.transmission) < 1e-14
        assert rep_conn.transmission + rep_conn.reflection == pytest.approx(1.0, abs=1e-14)

    def test_sigma_grid_identity(self):
        for sigma in (0.5, 1.0, 2.0, 4.0):
            j_inc, _, j_out = barrier_currents(sigma)
            bare = math.exp(-2.0 * sigma)
            assert abs(j_out / j_inc - bare / (1.0 + 0.25 * bare) ** 2) < 1e-14


class TestPatchedSolution:
    def test_zero_amplitude(self):
        table = patched_barrier_solution(DEEP_ECKART, outgoing_amplitude=0.0)
        assert np.all(table.psi == 0.0)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_amplitude_raises(self, amplitude):
        with pytest.raises(DomainError, match="outgoing amplitude must be finite"):
            patched_barrier_solution(DEEP_ECKART, outgoing_amplitude=amplitude)
        with pytest.raises(DomainError, match="outgoing amplitude must be finite"):
            region_one_amplitudes(2.0, amplitude)

    def test_negative_point_count_raises(self):
        with pytest.raises(DomainError, match=r"n_per_region must be >= 0, got -1"):
            patched_barrier_solution(DEEP_ECKART, n_per_region=-1)

    def test_region_tags_ordered(self):
        table = patched_barrier_solution(DEEP_ECKART)
        tags = [t.value for t in table.region_tags]
        order = {"allowed_left": 0, "forbidden": 1, "allowed_right": 2}
        assert sorted(tags, key=order.get) == tags
        assert set(tags) == set(order)

    def test_region_tags_match_pointwise_rule(self):
        from semiclassic import OracleConfig, wavefunction_exact

        tp = find_turning_points(DEEP_ECKART)
        for table in (
            patched_barrier_solution(DEEP_ECKART, n_per_region=20),
            airy_local_solution(DEEP_ECKART, tp.a, np.linspace(tp.a - 0.3, tp.a + 0.3, 13)),
            wavefunction_exact(DEEP_ECKART, OracleConfig(grid_points=2001)),
        ):
            expected = tuple(reference_region(DEEP_ECKART, x, tp) for x in table.xs)
            assert table.region_tags == expected
        # Two roots of a well, one root of a ramp, none on a flat line.
        xs = np.linspace(-3.0, 3.0, 61)
        for potential in (HarmonicWell(stiffness=1.0), LinearRamp(0.0, 1.0), LinearRamp(0.0, 0.0)):
            problem = ScatteringProblem(potential=potential, energy=0.5)
            tp = find_turning_points(problem)
            for x in xs:
                assert classify_region(problem, x, tp) is reference_region(problem, x, tp)

    def test_outgoing_region_is_pure_traveling_wave(self):
        table = patched_barrier_solution(DEEP_ECKART)
        right = table.xs > 2.0
        xs, psi = table.xs[right], table.psi[right]
        # |psi| sqrt(k) is constant for a single traveling wave.
        k = np.sqrt(2.0 * (0.15 - np.array([DEEP_ECKART.v(x) for x in xs])))
        amp = np.abs(psi) * np.sqrt(k)
        assert np.max(np.abs(amp - amp[0])) < 1e-12

    def test_mirror_assembly_agreement(self):
        left = patched_barrier_solution(DEEP_ECKART)
        right = patched_barrier_solution(DEEP_ECKART, incident_side="right")
        # Symmetric barrier: the right-incident wave is the mirror image,
        # and its conjugate-reversal recovers the left-incident table.
        np.testing.assert_allclose(right.psi[::-1], left.psi, atol=1e-11)
        np.testing.assert_allclose(
            np.conj(left.psi[::-1]), np.conj(right.psi), atol=1e-11
        )

    def test_incident_amplitude_ratio(self):
        sigma = barrier_integral(DEEP_ECKART)
        inc, _ = region_one_amplitudes(sigma, 1.0)
        assert abs(inc) ** 2 / 4.0 == pytest.approx(
            (math.exp(sigma) + 0.25 * math.exp(-sigma)) ** 2, rel=1e-12
        )

    def test_explicit_points_near_turning_point_rejected(self):
        tp = find_turning_points(DEEP_ECKART)
        with pytest.raises(TurningPointProximityError):
            patched_barrier_solution(DEEP_ECKART, xs=[tp.a + 1e-4])

    def test_csv_roundtrip(self, tmp_path):
        table = patched_barrier_solution(DEEP_ECKART, n_per_region=10)
        path = tmp_path / "wave.csv"
        table.to_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == "x,re_psi,im_psi,region"
        assert len(text.splitlines()) == len(table) + 1


class TestPatchedAgainstOracle:
    def test_patched_wave_tracks_exact_through_barrier(self):
        # Normalize the outgoing amplitude to the exact transmitted wave and
        # compare magnitudes point by point: WKB-level accuracy expected.
        from semiclassic import OracleConfig, exclusion_radius, solve_scattering_exact
        from semiclassic import wavefunction_exact

        exact = wavefunction_exact(DEEP_ECKART, OracleConfig(grid_points=8001))
        rep = solve_scattering_exact(DEEP_ECKART)
        k_edge = math.sqrt(2.0 * 0.15)
        b_amp = math.sqrt(rep.transmission) * math.sqrt(k_edge) / 2.0
        tp = find_turning_points(DEEP_ECKART)
        r_a = exclusion_radius(DEEP_ECKART, tp.a)
        r_b = exclusion_radius(DEEP_ECKART, tp.b)

        def magnitude_ratio(xs):
            patched = patched_barrier_solution(DEEP_ECKART, outgoing_amplitude=b_amp, xs=xs)
            e_re = np.interp(xs, exact.xs, exact.psi.real)
            e_im = np.interp(xs, exact.xs, exact.psi.imag)
            return np.abs(patched.psi) / np.hypot(e_re, e_im)

        inside = magnitude_ratio(np.linspace(tp.a + 1.2 * r_a, tp.b - 1.2 * r_b, 31))
        assert np.max(np.abs(inside - 1.0)) < 0.10
        outgoing = magnitude_ratio(np.linspace(tp.b + 1.2 * r_b, 10.0, 21))
        assert np.max(np.abs(outgoing - 1.0)) < 0.03


class TestAiryLocalSolution:
    def ramp_problem(self):
        # V = -x, E = 1: uphill turning point at a = -1 seen from the left.
        return ScatteringProblem(
            potential=LinearRamp(offset=0.0, slope=1.0), energy=-1.0, domain=(-6, 6)
        )

    def test_exact_on_linear_potential(self):
        problem = self.ramp_problem()
        a = find_turning_points(problem).a
        h = 1e-2
        for x0 in (-2.0, -1.0, 0.5):
            xs = np.array([x0 - 2 * h, x0 - h, x0, x0 + h, x0 + 2 * h])
            psi = airy_local_solution(problem, a, xs).psi.real
            d2 = (-psi[0] + 16 * psi[1] - 30 * psi[2] + 16 * psi[3] - psi[4]) / (
                12 * h * h
            )
            k2 = 2.0 * (problem.energy - problem.v(x0))
            assert abs(d2 + k2 * psi[2]) <= 1e-7 * max(1.0, abs(psi[2]))

    def test_value_at_turning_point(self):
        problem = self.ramp_problem()
        a = find_turning_points(problem).a
        table = airy_local_solution(problem, a, [a])
        assert table.psi[0].real == pytest.approx(airy(0.0).ai, rel=1e-14)

    def test_phase_matches_action(self):
        # int_x^a k dx' = (2/3)(-z)^{3/2} on the allowed side.
        problem = self.ramp_problem()
        a = find_turning_points(problem).a
        x = a - 1.7
        z = np.cbrt(2.0 * problem.dv(a)) * (x - a)
        phase = action_integral(problem, x, a)
        assert phase == pytest.approx((2.0 / 3.0) * (-z) ** 1.5, rel=1e-10)

    def test_linearization_radius_guard(self):
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0),
            energy=0.15,
            domain=(-14, 14),
        )
        a = find_turning_points(problem).a
        with pytest.raises(LinearizationError):
            airy_local_solution(problem, a, [a + 3.0])

    def test_wkb_matches_airy_asymptotics_on_ramp(self):
        # The (2/sqrt(k)) cos(phi - pi/4) form is proportional to Ai(z) with
        # a constant ratio once |z| >= 3; agreement to 5%.
        problem = self.ramp_problem()
        a = find_turning_points(problem).a
        lam = np.cbrt(2.0 * problem.dv(a))
        ratios = []
        for z in (-3.0, -4.5, -6.0, -8.0):
            x = a + z / lam
            k = math.sqrt(2.0 * (problem.energy - problem.v(x)))
            phi = action_integral(problem, x, a)
            wkb = (2.0 / math.sqrt(k)) * math.cos(phi - math.pi / 4.0)
            ratios.append(wkb / airy(z).ai)
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 0.05

    def test_forbidden_side_decay_matches(self):
        problem = self.ramp_problem()
        a = find_turning_points(problem).a
        lam = np.cbrt(2.0 * problem.dv(a))
        ratios = []
        for z in (3.0, 4.0, 5.0):
            x = a + z / lam
            beta = math.sqrt(2.0 * (problem.v(x) - problem.energy))
            # decay integral from a to x equals (2/3) z^{3/2} exactly here
            decay = (2.0 / 3.0) * z**1.5
            wkb = math.exp(-decay) / math.sqrt(beta)
            ratios.append(wkb / airy(z).ai)
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 0.05

    def test_bad_solution_name(self):
        problem = self.ramp_problem()
        with pytest.raises(DomainError):
            airy_local_solution(problem, -1.0, [0.0], solution="ci")


class TestRegionOneOverflow:
    """Where e^{sigma*} or its square overflows a float, the closed forms
    raise NumericalError naming sigma*, not a bare OverflowError."""

    @pytest.mark.parametrize("sigma", [355.0, 710.0, 800.0])
    def test_barrier_currents(self, sigma):
        with pytest.raises(NumericalError, match=f"sigma\\* = {sigma:g}"):
            barrier_currents(sigma)

    @pytest.mark.parametrize("sigma", [710.0, 800.0])
    def test_region_one_amplitudes(self, sigma):
        with pytest.raises(NumericalError, match=f"sigma\\* = {sigma:g}"):
            region_one_amplitudes(sigma)

    def test_below_the_overflow_is_finite(self):
        j_inc, j_ref, j_out = barrier_currents(354.0)
        assert math.isfinite(j_inc) and j_out == 4.0
        assert all(cmath.isfinite(a) for a in region_one_amplitudes(700.0))


class TestPatchedSolutionRegime:
    """Without a barrier the patched wave fails as barrier_integral does."""

    @pytest.mark.parametrize("potential, energy", [
        (EckartBarrier(height=1.0, width=1.0), 1.5),  # above the top: no turning point
        (HarmonicWell(stiffness=1.0), 0.5),  # two turning points around a well
    ])
    def test_no_barrier(self, potential, energy):
        problem = ScatteringProblem(
            potential=potential, energy=energy, domain=(-14.0, 14.0),
            context=PhysicalContext(mass=4.0),
        )
        with pytest.raises(NoBarrierError) as expected:
            barrier_integral(problem)
        with pytest.raises(NoBarrierError) as raised:
            patched_barrier_solution(problem)
        assert str(raised.value) == str(expected.value)
