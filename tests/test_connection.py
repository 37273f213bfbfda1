"""Patched barrier wave, currents, local Airy bridge."""

import cmath
import dataclasses
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
    SquareBarrier,
    TurningPointProximityError,
    action_integral,
    airy,
    airy_local_solution,
    barrier_currents,
    barrier_integral,
    exclusion_radius,
    find_turning_points,
    patched_barrier_solution,
    transmission_from_currents,
    transmission_leading,
)
from semiclassic.connection import Region, _region_tags, classify_region

DEEP_ECKART = ScatteringProblem(
    potential=EckartBarrier(height=1.0, width=1.0), energy=0.15, domain=(-14.0, 14.0)
)


def incident_amplitude(sigma, b_amp):
    """Closed-form region-I incident amplitude -2iB (e^sigma + e^-sigma/4) e^{i pi/4}."""
    return -2j * b_amp * (math.exp(sigma) + 0.25 * math.exp(-sigma)) * cmath.exp(0.25j * math.pi)


def reflected_amplitude(sigma, b_amp):
    """Closed-form region-I reflected amplitude -2iB (e^sigma - e^-sigma/4) e^{-i pi/4}."""
    return -2j * b_amp * (math.exp(sigma) - 0.25 * math.exp(-sigma)) * cmath.exp(-0.25j * math.pi)


def five_point_stencil(x, h):
    return np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])


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
    def test_roundtrip_through_barrier_reproduces_region_one(self):
        # Compose the maps backward from the outgoing wave and compare with
        # the closed-form incident amplitude.
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
        expected = incident_amplitude(sigma, b_amp)
        assert inc == pytest.approx(expected, rel=1e-12)


class TestCurrents:
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


    @pytest.mark.parametrize("region", ["allowed_left", "forbidden", "allowed_right"])
    def test_patched_wave_carries_the_transmitted_current(self, region):
        # j = (hbar/m) Im(psi* psi') is the same in all three regions and
        # equals the closed-form j_trans = 4|B|^2 hbar/m.
        ctx = PhysicalContext(mass=1.3, hbar=0.8)
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.3,
            domain=(-14.0, 14.0), context=ctx,
        )
        b_amp = 0.7 - 0.4j
        x = {"allowed_left": -6.0, "forbidden": 0.2, "allowed_right": 6.0}[region]
        h = 1e-3
        table = patched_barrier_solution(problem, b_amp, xs=five_point_stencil(x, h))
        assert table.region_tags[2].value == region
        psi = table.psi
        dpsi = (psi[0] - 8 * psi[1] + 8 * psi[3] - psi[4]) / (12 * h)
        j = ctx.hbar / ctx.mass * (np.conj(psi[2]) * dpsi).imag
        _, _, j_out = barrier_currents(barrier_integral(problem), b_amp, ctx)
        assert j == pytest.approx(j_out, rel=1e-8)


class TestTransmissionFromCurrents:
    def test_equals_corrected_closed_form(self):
        rep_conn = transmission_from_currents(DEEP_ECKART)
        rep_wkb = transmission_leading(DEEP_ECKART)
        assert rep_conn.method is Method.CONNECTION_PATCHED
        assert rep_conn.transmission == rep_wkb.transmission
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
            barrier_currents(1.0, amplitude)

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
        # Both turning points of the square barrier fall on nodes of the exact
        # wave's grid, where V = E: neither node is forbidden, and the right
        # one is not beyond the last turning point.
        square = ScatteringProblem(
            potential=SquareBarrier(height=1.0, width=2.0), energy=0.5, domain=(-8.0, 8.0)
        )
        tp = find_turning_points(square)
        table = wavefunction_exact(square, OracleConfig(grid_points=2001))
        on_nodes = np.flatnonzero(np.isin(table.xs, [tp.a, tp.b]))
        assert table.xs[on_nodes].tolist() == [tp.a, tp.b]
        assert [table.region_tags[i] for i in on_nodes] == [Region.ALLOWED_LEFT] * 2
        assert table.region_tags == tuple(reference_region(square, x, tp) for x in table.xs)
        # Two roots of a well, one root of a ramp, none on a flat line.
        xs = np.linspace(-3.0, 3.0, 61)
        for potential in (HarmonicWell(stiffness=1.0), LinearRamp(0.0, 1.0), LinearRamp(0.0, 0.0)):
            problem = ScatteringProblem(potential=potential, energy=0.5)
            tp = find_turning_points(problem)
            for x in xs:
                assert classify_region(problem, x, tp) is reference_region(problem, x, tp)
        # The patched wave tags its points by the region it places them in,
        # which is the rule on V, on default grids and on given points.
        for problem in (DEEP_ECKART, square):
            tp = find_turning_points(problem)
            xs = np.linspace(*problem.domain, 161)
            clear = np.minimum(
                np.abs(xs - tp.a) / exclusion_radius(problem, tp.a),
                np.abs(xs - tp.b) / exclusion_radius(problem, tp.b),
            ) >= 1.0
            for table in (
                patched_barrier_solution(problem, n_per_region=20),
                patched_barrier_solution(problem, xs=xs[clear]),
            ):
                assert table.region_tags == _region_tags(problem, table.xs, tp)
                assert set(table.region_tags) == set(Region)

    def test_outgoing_region_is_pure_traveling_wave(self):
        table = patched_barrier_solution(DEEP_ECKART)
        right = table.xs > 2.0
        xs, psi = table.xs[right], table.psi[right]
        # |psi| sqrt(k) is constant for a single traveling wave.
        k = np.sqrt(2.0 * (0.15 - np.array([DEEP_ECKART.v(x) for x in xs])))
        amp = np.abs(psi) * np.sqrt(k)
        assert np.max(np.abs(amp - amp[0])) < 1e-12

    def test_incident_amplitude_ratio(self):
        # psi sqrt(k) = A_inc e^{-i phi} + A_ref e^{+i phi} in region I, phi
        # the action toward the uphill turning point: two points fix both.
        sigma = barrier_integral(DEEP_ECKART)
        a = find_turning_points(DEEP_ECKART).a
        xs = np.array([-9.0, -6.5])
        psi = patched_barrier_solution(DEEP_ECKART, xs=xs).psi
        k = np.sqrt(2.0 * (DEEP_ECKART.energy - DEEP_ECKART.v(xs)))
        phi = np.array([action_integral(DEEP_ECKART, x, a) for x in xs])
        basis = np.column_stack([np.exp(-1j * phi), np.exp(1j * phi)])
        inc, _ = np.linalg.solve(basis, psi * np.sqrt(k))
        assert inc == pytest.approx(incident_amplitude(sigma, 1.0), rel=1e-12)

    def test_reflected_amplitude(self):
        # Same two-point fit as above; |A_inc|^2 - |A_ref|^2 = |2B|^2.
        b_amp = 0.6 + 0.3j
        sigma = barrier_integral(DEEP_ECKART)
        a = find_turning_points(DEEP_ECKART).a
        xs = np.array([-9.0, -6.5])
        psi = patched_barrier_solution(DEEP_ECKART, b_amp, xs=xs).psi
        k = np.sqrt(2.0 * (DEEP_ECKART.energy - DEEP_ECKART.v(xs)))
        phi = np.array([action_integral(DEEP_ECKART, x, a) for x in xs])
        basis = np.column_stack([np.exp(-1j * phi), np.exp(1j * phi)])
        inc, ref = np.linalg.solve(basis, psi * np.sqrt(k))
        assert ref == pytest.approx(reflected_amplitude(sigma, b_amp), rel=1e-12)
        assert abs(inc) ** 2 - abs(ref) ** 2 == pytest.approx(4.0 * abs(b_amp) ** 2, rel=1e-10)

    def test_linearity(self):
        one = patched_barrier_solution(DEEP_ECKART, 0.3 + 0.1j, n_per_region=20)
        two = patched_barrier_solution(DEEP_ECKART, 0.6 + 0.2j, n_per_region=20)
        np.testing.assert_array_equal(two.xs, one.xs)
        np.testing.assert_allclose(two.psi, 2.0 * one.psi, rtol=1e-12)

    def test_schrodinger_residual_far_from_turning_points(self):
        # |psi'' + k^2 psi| / |k^2 psi| <= 0.05 at >= 5 exclusion radii.
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14.0, 14.0)
        )
        tp = find_turning_points(problem)
        x = tp.a - 5.0 * exclusion_radius(problem, tp.a)
        h = 1e-3
        psi = patched_barrier_solution(problem, xs=five_point_stencil(x, h)).psi
        d2 = (-psi[0] + 16 * psi[1] - 30 * psi[2] + 16 * psi[3] - psi[4]) / (12 * h * h)
        k2 = 2.0 * (problem.energy - problem.v(x))
        assert abs(d2 + k2 * psi[2]) / abs(k2 * psi[2]) <= 0.05

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
        from semiclassic import OracleConfig, solve_scattering_exact
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
        # a constant ratio once |z| >= 3; agreement to 5%.  z = -8 lies at
        # x = -7.35, so the domain reaches past it.
        problem = dataclasses.replace(self.ramp_problem(), domain=(-10.0, 10.0))
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

    def test_anchor_off_the_turning_point_raises(self):
        # 0.3 Airy lengths past the turning point, E - V(a) shifts z by -0.3:
        # the bridge would be the Airy function of the wrong z.
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0), energy=0.55, domain=(-14, 14),
            context=PhysicalContext(mass=64.0),
        )
        a = find_turning_points(problem).a
        r = exclusion_radius(problem, a)
        xs = np.linspace(a - r, a + r, 5)
        assert len(airy_local_solution(problem, a, xs)) == 5
        with pytest.raises(DomainError, match=r"is not a turning point: .* shifts z by -0\.299"):
            airy_local_solution(problem, a + 0.3 * r, xs)

    def test_bad_solution_name(self):
        problem = self.ramp_problem()
        with pytest.raises(DomainError):
            airy_local_solution(problem, -1.0, [0.0], solution="ci")


class TestRegionOneOverflow:
    """Where e^{sigma*} or its square overflows a float, the currents raise
    NumericalError naming sigma*, not a bare OverflowError."""

    @pytest.mark.parametrize("sigma", [355.0, 710.0, 800.0])
    def test_barrier_currents(self, sigma):
        with pytest.raises(NumericalError, match=f"sigma\\* = {sigma:g}"):
            barrier_currents(sigma)

    @pytest.mark.parametrize("sigma", [710.0, 800.0])
    def test_patched_wave(self, sigma):
        # Scale the mass so that sigma* (proportional to sqrt(m)) lands near sigma.
        base = barrier_integral(DEEP_ECKART)
        problem = ScatteringProblem(
            potential=DEEP_ECKART.potential, energy=DEEP_ECKART.energy,
            domain=DEEP_ECKART.domain, context=PhysicalContext(mass=(sigma / base) ** 2),
        )
        sigma_star = barrier_integral(problem)
        assert sigma_star == pytest.approx(sigma, rel=1e-6)
        with pytest.raises(NumericalError, match=f"sigma\\* = {sigma_star:g}"):
            patched_barrier_solution(problem)

    def test_below_the_overflow_is_finite(self):
        j_inc, j_ref, j_out = barrier_currents(354.0)
        assert math.isfinite(j_inc) and j_out == 4.0


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
