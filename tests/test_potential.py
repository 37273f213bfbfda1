"""Potential models, turning points, decay rates."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from semiclassic import (
    DomainError,
    EckartBarrier,
    GaussianBump,
    HarmonicWell,
    LinearRamp,
    MultiWellError,
    ParabolicBarrier,
    PhysicalContext,
    ScatteringProblem,
    SquareBarrier,
    TabulatedPotential,
    derivative,
    evaluate,
    exclusion_radius,
    find_turning_points,
    second_derivative,
)

SMOOTH_MODELS = [
    GaussianBump(amplitude=0.7, width=1.3, center=0.2),
    EckartBarrier(height=1.0, width=0.8, center=-0.4),
    HarmonicWell(stiffness=2.0),
    LinearRamp(offset=0.3, slope=-1.1),
    ParabolicBarrier(height=2.0, curvature=0.5, center=0.1),
]


def problem_for(potential, energy, domain=(-10.0, 10.0)):
    return ScatteringProblem(potential=potential, energy=energy, domain=domain)


class TestEvaluate:
    def test_harmonic_minimum(self):
        assert evaluate(HarmonicWell(stiffness=1.0), 0.0) == 0.0

    def test_linear_ramp(self):
        assert evaluate(LinearRamp(offset=0.0, slope=2.0), 3.0) == 6.0

    def test_eckart_peak(self):
        assert evaluate(EckartBarrier(height=1.0, width=1.0), 0.0) == 1.0

    def test_square_edge_value_is_midpoint(self):
        bar = SquareBarrier(height=1.0, width=2.0)
        assert bar.value(1.0) == 0.5
        assert bar.value(0.999) == 1.0
        assert bar.value(1.001) == 0.0

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(
            evaluate(HarmonicWell(stiffness=2.0), xs), xs * xs
        )

    def test_eckart_far_tails_without_warnings(self):
        # At |u| = 1e4, cosh(u) overflows to inf and V, V', V'' are exactly 0.
        model = EckartBarrier(height=1.0, width=0.5, center=0.3)
        xs = np.array([0.3 - 0.5e4, 0.3 + 0.5e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (model.value, model.derivative, model.second_derivative):
                assert np.all(f(xs) == 0.0)
                assert f(float(xs[1])) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            evaluate(HarmonicWell(stiffness=1.0), math.inf)


class TestDerivative:
    def test_linear_slope(self):
        assert derivative(LinearRamp(offset=0.0, slope=2.0), -7.3) == 2.0

    def test_harmonic(self):
        assert derivative(HarmonicWell(stiffness=1.0), 1.0) == 1.0

    def test_eckart_even_peak(self):
        assert derivative(EckartBarrier(height=1.0, width=1.0), 0.0) == 0.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for model in SMOOTH_MODELS:
            xs = rng.uniform(-3.0, 3.0, 100)
            h = 1e-6 * np.maximum(1.0, np.abs(xs))
            fd = (model.value(xs + h) - model.value(xs - h)) / (2.0 * h)
            exact = model.derivative(xs)
            assert np.all(
                np.abs(exact - fd) <= 1e-6 * np.maximum(1.0, np.abs(exact))
            )

    def test_second_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        for model in SMOOTH_MODELS:
            xs = rng.uniform(-3.0, 3.0, 50)
            h = 1e-5
            fd = (model.value(xs + h) - 2 * model.value(xs) + model.value(xs - h)) / h**2
            exact = second_derivative(model, xs)
            assert np.all(np.abs(exact - fd) <= 1e-4 * np.maximum(1.0, np.abs(exact)))


class TestTabulated:
    def build(self):
        xs = np.linspace(-5.0, 5.0, 201)
        return TabulatedPotential(xs, np.cos(xs))

    def test_interpolates(self):
        pot = self.build()
        assert abs(pot.value(0.37) - math.cos(0.37)) < 1e-7

    def test_derivative_fd(self):
        pot = self.build()
        assert abs(pot.derivative(0.37) + math.sin(0.37)) < 1e-5

    def test_second_derivative_continuous(self):
        pot = self.build()
        assert abs(pot.second_derivative(0.5) + math.cos(0.5)) < 1e-3

    def test_out_of_range(self):
        pot = self.build()
        with pytest.raises(DomainError):
            pot.value(5.5)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            TabulatedPotential([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_non_monotone(self):
        with pytest.raises(DomainError):
            TabulatedPotential([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("xs, vs", [
        ([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 2.0, 3.0]),
        ([0.0, 1.0, 2.0, math.inf], [0.0, 1.0, 2.0, 3.0]),
    ])
    def test_non_finite_samples(self, xs, vs):
        with pytest.raises(DomainError, match="x and V must be finite"):
            TabulatedPotential(xs, vs)


class TestValidation:
    def test_positive_parameters(self):
        with pytest.raises(DomainError):
            GaussianBump(amplitude=1.0, width=-1.0)
        with pytest.raises(DomainError):
            HarmonicWell(stiffness=0.0)
        with pytest.raises(DomainError):
            PhysicalContext(mass=-1.0)

    @pytest.mark.parametrize("model, kwargs, message", [
        (EckartBarrier, {"height": math.nan, "width": 1.0}, "height must be finite, got nan"),
        (GaussianBump, {"amplitude": math.inf, "width": 1.0}, "amplitude must be finite"),
        (SquareBarrier, {"height": 1.0, "width": 1.0, "center": -math.inf}, "center must be"),
        (LinearRamp, {"offset": 0.0, "slope": math.nan}, "slope must be finite, got nan"),
        (ParabolicBarrier, {"height": 1.0, "curvature": math.inf}, "curvature must be strictly"),
    ])
    def test_every_field_finite(self, model, kwargs, message):
        with pytest.raises(DomainError, match=message):
            model(**kwargs)

    def test_domain_ordering(self):
        with pytest.raises(DomainError):
            ScatteringProblem(
                potential=HarmonicWell(stiffness=1.0), energy=0.5, domain=(2.0, -2.0)
            )


class TestTurningPoints:
    def test_harmonic(self):
        tp = find_turning_points(problem_for(HarmonicWell(stiffness=1.0), 0.5))
        assert tp.count == 2
        assert abs(tp.a + 1.0) < 1e-10 and abs(tp.b - 1.0) < 1e-10

    def test_eckart_derived_root(self):
        # sech^2(b) = 1/2  =>  b = arcsech(1/sqrt(2)) = ln((1 + sqrt(1/2)) sqrt(2))
        expected = math.log((1.0 + math.sqrt(0.5)) / math.sqrt(0.5))
        tp = find_turning_points(
            problem_for(EckartBarrier(height=1.0, width=1.0), 0.5, (-14, 14))
        )
        assert tp.count == 2
        assert abs(tp.b - expected) < 1e-10
        assert abs(tp.a + expected) < 1e-10

    def test_over_barrier_no_roots(self):
        tp = find_turning_points(
            problem_for(SquareBarrier(height=1.0, width=2.0), 2.0, (-8, 8))
        )
        assert tp.count == 0

    def test_single_root_ramp(self):
        tp = find_turning_points(problem_for(LinearRamp(offset=0.0, slope=1.0), 0.5))
        assert tp.count == 1
        assert abs(tp.a - 0.5) < 1e-10

    def test_root_tolerance_invariant(self):
        for model, e in [
            (GaussianBump(amplitude=1.0, width=1.0), 0.37),
            (EckartBarrier(height=1.0, width=1.0), 0.62),
            (HarmonicWell(stiffness=2.0), 1.3),
        ]:
            problem = problem_for(model, e)
            tp = find_turning_points(problem)
            for root in (tp.a, tp.b):
                if root is not None:
                    assert abs(problem.v(root) - e) <= 1e-10 * max(1.0, abs(e))

    def test_even_bump_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            center = rng.uniform(-2.0, 2.0)
            width = rng.uniform(0.5, 2.0)
            e = rng.uniform(0.2, 0.8)
            problem = problem_for(
                GaussianBump(amplitude=1.0, width=width, center=center),
                e,
                (center - 10, center + 10),
            )
            tp = find_turning_points(problem)
            assert tp.count == 2
            assert abs((tp.a - center) + (tp.b - center)) <= 1e-10

    def test_near_top_roots_inside_one_scan_panel(self):
        # Both roots lie within 1e-4 of the peak, inside one of the 2048 scan
        # panels; only the refined maximum separates them.
        problem = problem_for(EckartBarrier(height=1.0, width=1.0, center=0.005), 1.0 - 1e-8, (-14, 14))
        tp = find_turning_points(problem)
        assert tp.count == 2
        half = math.asinh(math.sqrt(1e-8 / (1.0 - 1e-8)))
        assert abs(tp.a - (0.005 - half)) < 1e-10
        assert abs(tp.b - (0.005 + half)) < 1e-10

    @pytest.mark.parametrize("domain", [(-0.001, 14.0), (-14.0, 0.001)])
    def test_extremum_inside_an_edge_panel(self, domain):
        # The peak of a scanned table lies 0.001 inside the domain, within
        # its first or last scan panel.
        xs = np.linspace(-14.0, 14.0, 2001)
        table = TabulatedPotential(xs, 1.0 / np.cosh(xs) ** 2)
        tp = find_turning_points(problem_for(table, 0.9999999, domain))
        assert tp.count == 2
        half = math.asinh(math.sqrt(1e-7 / 0.9999999))
        assert tp.a == pytest.approx(-half, abs=1e-7)
        assert tp.b == pytest.approx(half, abs=1e-7)

    def test_multi_well_rejected(self):
        xs = np.linspace(-2.0, 2.0, 401)
        double_well = TabulatedPotential(xs, (xs**2 - 1.0) ** 2)
        with pytest.raises(MultiWellError):
            find_turning_points(problem_for(double_well, 0.5, (-2.0, 2.0)))


class TestStoredKnots:
    @pytest.mark.parametrize("potential, scans", [
        (EckartBarrier(height=1.0, width=1.0), 0),
        (TabulatedPotential(np.linspace(-14, 14, 561),
                            1.0 / np.cosh(np.linspace(-14, 14, 561)) ** 2), 1),
    ], ids=["closed-form", "tabulated"])
    def test_found_once_per_domain(self, potential, scans, knot_scans):
        # A built-in model never samples V on the scan grid; a table is
        # scanned once per potential instance and domain.
        for e in (0.2, 0.5, 0.8, 0.5):
            find_turning_points(problem_for(potential, e, (-14, 14)))
        assert knot_scans() == scans
        find_turning_points(problem_for(potential, 0.5, (0.0, 14)))
        assert knot_scans() == 2 * scans
        find_turning_points(problem_for(dataclasses.replace(potential), 0.5, (-14, 14)))
        assert knot_scans() == 3 * scans

    def test_domains_kept_apart(self):
        potential = GaussianBump(amplitude=1.0, width=1.0, center=0.5)
        both = find_turning_points(problem_for(potential, 0.5, (-9, 9)))
        right = find_turning_points(problem_for(potential, 0.5, (1.0, 9)))
        assert both.count == 2 and right.count == 1
        assert right.a == pytest.approx(both.b, abs=1e-12)

    @pytest.mark.parametrize("model", [
        *SMOOTH_MODELS,
        SquareBarrier(height=1.0, width=2.0),
        TabulatedPotential(np.linspace(-10, 10, 41), np.exp(-np.linspace(-10, 10, 41) ** 2)),
    ])
    def test_equality_hash_repr_unchanged(self, model):
        fresh = dataclasses.replace(model)
        before = (repr(model), hash(model))
        find_turning_points(problem_for(model, 0.5))
        assert (repr(model), hash(model)) == before
        assert model == fresh and fresh == model


class TestDecayRate:
    def test_forbidden(self):
        problem = problem_for(SquareBarrier(height=1.0, width=2.0), 0.5, (-8, 8))
        assert problem.beta(0.0) == pytest.approx(1.0)

    def test_turning_point(self):
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.5)
        assert problem.beta(1.0) == 0.0

    def test_allowed_is_nan(self):
        problem = problem_for(LinearRamp(offset=0.0, slope=0.0), 0.5)
        assert math.isnan(problem.beta(0.0))
        np.testing.assert_array_equal(np.isnan(problem.beta(np.array([-1.0, 2.0]))), True)

    def test_square_identity(self):
        # beta^2 = 2m(V - E)/hbar^2 wherever E < V.
        rng = np.random.default_rng(3)
        ctx = PhysicalContext(mass=1.7, hbar=0.6)
        for model in SMOOTH_MODELS:
            for _ in range(20):
                x = rng.uniform(-3.0, 3.0)
                e = model.value(x) - rng.uniform(1e-3, 3.0)
                problem = ScatteringProblem(
                    potential=model, energy=e, domain=(-10, 10), context=ctx
                )
                beta = problem.beta(x)
                expected = 2.0 * ctx.mass * (model.value(x) - e) / ctx.hbar**2
                assert beta * beta == pytest.approx(expected, rel=1e-13, abs=1e-13)


class TestExclusionRadius:
    def test_airy_length(self):
        problem = problem_for(HarmonicWell(stiffness=1.0), 0.5)
        # |V'| = 1 at the right turning point.
        assert exclusion_radius(problem, 1.0) == pytest.approx(0.5 ** (1.0 / 3.0))

    def test_jump_shrinks_zone(self):
        problem = problem_for(SquareBarrier(height=1.0, width=2.0), 0.5, (-8, 8))
        assert exclusion_radius(problem, 1.0) < 0.02

    def test_flat_is_infinite(self):
        problem = problem_for(LinearRamp(offset=0.0, slope=0.0), 0.5)
        assert exclusion_radius(problem, 0.0) == math.inf
