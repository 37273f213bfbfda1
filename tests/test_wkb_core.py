"""Action integrals, opacity, transmission, quantization."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from semiclassic import (
    BracketError,
    DomainError,
    EckartBarrier,
    GaussianBump,
    HarmonicWell,
    LinearRamp,
    Method,
    NoBarrierError,
    ParabolicBarrier,
    PhysicalContext,
    RegionError,
    ScatteringProblem,
    SpectrumError,
    SquareBarrier,
    action_integral,
    barrier_integral,
    find_turning_points,
    quantize,
    quantize_levels,
    transmission_leading,
)
from semiclassic import wkb_core

FREE = LinearRamp(offset=0.0, slope=0.0)


def problem_for(potential, energy, domain=(-10.0, 10.0)):
    return ScatteringProblem(potential=potential, energy=energy, domain=domain)


class TestActionIntegral:
    def test_free_particle(self):
        problem = problem_for(FREE, 0.5)
        assert action_integral(problem, 0.0, 2.0) == pytest.approx(2.0, abs=1e-13)

    def test_empty_interval(self):
        assert action_integral(problem_for(FREE, 0.5), 1.0, 1.0) == 0.0

    def test_signed(self):
        problem = problem_for(FREE, 0.5)
        assert action_integral(problem, 2.0, 0.0) == pytest.approx(-2.0, abs=1e-13)

    def test_harmonic_between_turning_points(self):
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.5)
        w = action_integral(problem, -1.0, 1.0)
        assert w == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_additivity(self):
        problem = problem_for(GaussianBump(amplitude=0.3, width=1.0), 2.0)
        w = action_integral(problem, -2.0, 3.0)
        assert action_integral(problem, -2.0, 0.5) + action_integral(
            problem, 0.5, 3.0
        ) == pytest.approx(w, rel=1e-12)

    def test_interior_turning_point_rejected(self):
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.5)
        with pytest.raises(RegionError):
            action_integral(problem, -0.5, 2.0)

    def test_forbidden_path_rejected(self):
        problem = problem_for(SquareBarrier(height=1.0, width=2.0), 0.5, (-8, 8))
        with pytest.raises(RegionError):
            action_integral(problem, -3.0, 0.0)

    def test_span_inside_a_barrier_rejected(self):
        # No turning point inside [-0.5, 0.5]: all of it lies under the top.
        problem = problem_for(SquareBarrier(height=1.0, width=2.0), 0.5, (-8, 8))
        with pytest.raises(RegionError, match="forbidden"):
            action_integral(problem, -0.5, 0.5)

    def test_against_independent_quadrature(self):
        problem = problem_for(EckartBarrier(height=1.0, width=1.0), 2.0, (-14, 14))
        w = action_integral(problem, -2.0, 2.0)
        ref = float(
            mp.quad(lambda x: mp.sqrt(2.0 * (2.0 - 1.0 / mp.cosh(x) ** 2)), [-2, 0, 2])
        )
        assert w == pytest.approx(ref, rel=1e-12)


class TestBarrierIntegral:
    def test_parabolic_closed_form(self):
        problem = problem_for(ParabolicBarrier(height=1.0, curvature=1.0), 0.5, (-3, 3))
        assert barrier_integral(problem) == pytest.approx(math.pi / 2.0, rel=1e-11)

    def test_square_closed_form(self):
        problem = problem_for(SquareBarrier(height=1.0, width=2.0), 0.5, (-8, 8))
        assert barrier_integral(problem) == pytest.approx(2.0, rel=1e-12)

    def test_vanishes_at_barrier_top(self):
        problem = problem_for(ParabolicBarrier(height=1.0, curvature=1.0), 0.999, (-3, 3))
        assert barrier_integral(problem) < 0.005

    def test_monotone_in_energy(self):
        sigmas = [
            barrier_integral(
                problem_for(EckartBarrier(height=1.0, width=1.0), e, (-14, 14))
            )
            for e in np.linspace(0.1, 0.9, 9)
        ]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    def test_near_top_closed_form(self):
        # sigma* = pi d (sqrt(2 m V0) - sqrt(2 m E)) / hbar for sech^2.
        e = 1.0 - 1e-8
        problem = problem_for(EckartBarrier(height=1.0, width=1.0, center=0.005), e, (-14, 14))
        expected = math.pi * (math.sqrt(2.0) - math.sqrt(2.0 * e))
        assert barrier_integral(problem) == pytest.approx(expected, rel=1e-6)
        assert transmission_leading(problem).sigma_star == pytest.approx(expected, rel=1e-6)

    def test_no_barrier(self):
        with pytest.raises(NoBarrierError):
            barrier_integral(problem_for(EckartBarrier(height=1.0, width=1.0), 2.0, (-14, 14)))

    def test_well_is_not_a_barrier(self):
        with pytest.raises(NoBarrierError):
            barrier_integral(problem_for(HarmonicWell(stiffness=1.0), 0.5))

    def test_against_independent_quadrature(self):
        problem = problem_for(EckartBarrier(height=1.0, width=1.0), 0.4, (-14, 14))
        b = math.log((1.0 + math.sqrt(0.6)) / math.sqrt(0.4))
        ref = float(
            mp.quad(
                lambda x: mp.sqrt(2.0 * (1.0 / mp.cosh(x) ** 2 - 0.4)), [-b, 0, b]
            )
        )
        assert barrier_integral(problem) == pytest.approx(ref, rel=1e-11)


class TestTransmission:
    def test_frozen_values_at_sigma_two(self):
        # Direct arithmetic from the closed forms at sigma* = 2.
        problem = problem_for(SquareBarrier(height=1.0, width=2.0), 0.5, (-8, 8))
        assert barrier_integral(problem) == pytest.approx(2.0, rel=1e-12)
        bare = math.exp(-4.0)
        corrected = bare / (1.0 + 0.25 * bare) ** 2
        rep = transmission_leading(problem)
        assert rep.transmission == pytest.approx(corrected, rel=1e-12)
        assert rep.transmission == pytest.approx(0.018149, abs=1e-6)
        assert rep.transmission_bare == pytest.approx(0.018316, abs=1e-6)
        assert rep.method is Method.WKB_CORRECTED
        assert rep.reflection == pytest.approx(1.0 - rep.transmission)

    def test_leading_method(self):
        problem = problem_for(SquareBarrier(height=1.0, width=2.0), 0.5, (-8, 8))
        rep = transmission_leading(problem, corrected=False)
        assert rep.method is Method.WKB_LEADING
        assert rep.transmission == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_corrected_below_bare(self):
        for e in (0.2, 0.5, 0.8):
            problem = problem_for(EckartBarrier(height=1.0, width=1.0), e, (-14, 14))
            rep = transmission_leading(problem)
            assert rep.transmission <= rep.transmission_bare

    def test_opaque_limit(self):
        problem = problem_for(
            SquareBarrier(height=50.0, width=6.0), 0.5, (-8, 8)
        )
        assert transmission_leading(problem).transmission < 1e-20

    def test_monotone_in_energy(self):
        t = [
            transmission_leading(
                problem_for(EckartBarrier(height=1.0, width=1.0), e, (-14, 14))
            ).transmission
            for e in (0.2, 0.4, 0.6)
        ]
        assert t[0] < t[1] < t[2]


class TestQuantize:
    def test_harmonic_levels(self):
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.5, (-12, 12))
        for n in range(11):
            e = quantize(problem, n, (n + 0.1, n + 0.9))
            assert abs(e - (n + 0.5)) < 1e-8

    def test_monotone(self):
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.5, (-12, 12))
        levels = quantize_levels(problem, 4)
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_scaling_with_stiffness(self):
        # omega = sqrt(k/m): levels are (n + 1/2) omega.
        problem = problem_for(HarmonicWell(stiffness=4.0), 1.0, (-12, 12))
        e0 = quantize(problem, 0, (0.5, 1.5))
        assert e0 == pytest.approx(1.0, abs=1e-8)

    def test_bad_bracket(self):
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.5, (-12, 12))
        with pytest.raises(BracketError):
            quantize(problem, 0, (5.1, 5.9))

    def test_negative_n(self):
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.5, (-12, 12))
        with pytest.raises(DomainError):
            quantize(problem, -1, (0.1, 0.9))

    def test_levels_need_a_well(self):
        for potential in (LinearRamp(offset=0.0, slope=1.0), GaussianBump(amplitude=1.0, width=1.0)):
            with pytest.raises(SpectrumError):
                quantize_levels(problem_for(potential, 0.0), 0)

    def test_levels_above_the_rim(self):
        # V = x^2/2 on [-3, 3] has its rim at 4.5: E_0..E_3 = 0.5..3.5 fit below
        # it, E_4 = 4.5 does not.
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.0, (-3.0, 3.0))
        levels = quantize_levels(problem, 3)
        np.testing.assert_allclose(levels, [0.5, 1.5, 2.5, 3.5], rtol=1e-6)
        with pytest.raises(SpectrumError):
            quantize_levels(problem, 4)

    def test_levels_scan_the_extrema_once(self, knot_scans):
        quantize_levels(problem_for(HarmonicWell(stiffness=1.0), 0.0, (-6.0, 6.0)), 3)
        assert knot_scans() == 1

    def test_levels_share_action_sums(self, monkeypatch):
        # One sum just below the rim, then one sum over both levels per step
        # of the shared root solver (the action is 0 at the bottom of the well,
        # so that end costs none).
        calls = []
        between = wkb_core._between
        monkeypatch.setattr(wkb_core, "_between", lambda *a, **k: calls.append(1) or between(*a, **k))
        quantize_levels(problem_for(HarmonicWell(stiffness=1.0), 0.0, (-6.0, 6.0)), 1)
        assert len(calls) == 3

    def test_level_to_relative_precision(self):
        # A level near E = 0 solves its action condition to rounding, not to
        # an absolute energy tolerance.
        problem = ScatteringProblem(
            potential=GaussianBump(amplitude=-2.0, width=1.0, center=-0.3),
            energy=0.0,
            domain=(-9.0, 9.0),
            context=PhysicalContext(mass=3.0),
        )
        level = dataclasses.replace(problem, energy=quantize(problem, 2, (-0.5, -1e-6)))
        tp = find_turning_points(level)
        assert abs(action_integral(level, tp.a, tp.b) - 2.5 * math.pi) <= 1e-13
