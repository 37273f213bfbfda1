"""Airy machinery: series, asymptotics, Bessel form, Laplace integral."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy import optimize, special

from semiclassic import (
    DomainError,
    RangeError,
    airy,
    airy_asymptotic,
    airy_bessel_form,
    airy_laplace_contour,
)
from semiclassic.special_fn import _EXP_MAX_Z, _PHASE_MAX_ABS_Z


def bessel_transform_residual(z, scale=1.0):
    """Residual of the order-1/3 Bessel equation satisfied by transformed Ai.

    With tau = (2/3)(-z)^(3/2) and phi(tau) = scale Ai(z)/(-z)^(1/2),
    tau^2 phi'' + tau phi' + (tau^2 - 1/9) phi by five-point finite
    differences in tau with step 1e-2; it vanishes to ~1e-6 max(1, |phi|).
    """
    tau0 = (2.0 / 3.0) * (-z) ** 1.5
    h = 1e-2

    def phi(tau):
        zz = -((1.5 * tau) ** (2.0 / 3.0))
        return scale * airy(zz).ai / math.sqrt(-zz)

    f = [phi(tau0 + j * h) for j in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    return tau0**2 * d2 + tau0 * d1 + (tau0**2 - 1.0 / 9.0) * f[2]


class TestSeries:
    def test_values_at_zero(self):
        pair = airy(0.0)
        assert pair.ai == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), rel=1e-15)
        assert pair.bi == pytest.approx(3 ** (-1 / 6) / math.gamma(2 / 3), rel=1e-15)
        assert pair.ai_prime == pytest.approx(-(3 ** (-1 / 3)) / math.gamma(1 / 3), rel=1e-15)
        assert pair.bi_prime == pytest.approx(3 ** (1 / 6) / math.gamma(1 / 3), rel=1e-15)

    def test_wronskian_at_one(self):
        assert airy(1.0).wronskian == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_wronskian_range(self):
        for z in np.linspace(-10.0, 10.0, 41):
            assert abs(airy(z).wronskian - 1.0 / math.pi) < 1e-10

    def test_ai_positive_decreasing(self):
        zs = np.linspace(0.0, 10.0, 60)
        vals = [airy(z).ai for z in zs]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_against_scipy(self):
        for z in np.linspace(-10.0, 10.0, 81):
            mine = airy(float(z))
            ai, aip, bi, bip = special.airy(z)
            scale = abs(ai) + abs(bi)
            assert abs(mine.ai - ai) < 1e-11 * scale
            assert abs(mine.bi - bi) < 1e-11 * scale
            assert abs(mine.ai_prime - aip) < 1e-10 * (abs(aip) + abs(bip))
            assert abs(mine.bi_prime - bip) < 1e-10 * (abs(aip) + abs(bip))

    def test_range_guard(self):
        with pytest.raises(RangeError):
            airy(31.0)

    def test_nonfinite(self):
        with pytest.raises(DomainError):
            airy(float("nan"))

    def test_ode_residual(self):
        # psi'' - z psi = 0 via 5-point stencil on both solutions.
        h = 0.01
        for z in np.linspace(-5.0, 5.0, 21):
            vals = [airy(z + j * h) for j in (-2, -1, 0, 1, 2)]
            for attr in ("ai", "bi"):
                f = [getattr(v, attr) for v in vals]
                d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h**2)
                residual = abs(d2 - z * f[2])
                assert residual <= 1e-7 * max(1.0, abs(z * f[2]))


class TestAsymptotic:
    def test_positive_branch_ratio(self):
        for z in (8.0, 10.0, 20.0):
            a = airy(z)
            b = airy_asymptotic(z)
            assert abs(b.ai / a.ai - 1.0) < 1e-3
            assert abs(b.bi / a.bi - 1.0) < 1e-3

    def test_negative_branch_ratio(self):
        a = airy(-10.0)
        b = airy_asymptotic(-10.0)
        assert abs(b.ai - a.ai) < 1e-3 * max(abs(a.ai), 0.1)
        assert abs(b.bi - a.bi) < 1e-3 * max(abs(a.bi), 0.1)

    def test_error_decreases(self):
        errs = []
        for z in (8.0, 12.0, 20.0):
            errs.append(abs(airy_asymptotic(z).ai / airy(z).ai - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_zero_location_matches_series(self):
        # First zero of Ai below -3 from scipy as the independent oracle.
        exact_zero = special.ai_zeros(3)[0][2]  # approx -5.52
        found = optimize.brentq(
            lambda z: airy_asymptotic(z).ai, exact_zero - 0.2, exact_zero + 0.2
        )
        assert abs(found - exact_zero) < 1e-3

    def test_growth_ratio(self):
        z = 6.0
        pair = airy(z)
        expected = (4.0 / 3.0) * z**1.5
        assert abs(math.log(pair.bi / pair.ai) - expected) < 0.05 * expected

    def test_accuracy_guard(self):
        with pytest.raises(RangeError):
            airy_asymptotic(2.0)

    @pytest.mark.parametrize("z", [-1e3, -1e5, -1e7])
    def test_oscillatory_error_is_within_two_ulp_of_zeta(self, z):
        # The phase zeta - pi/4 is rounded to a double, so the error grows
        # with ulp(zeta) instead of falling with |z|: 0.1-0.9 ulp(zeta) of
        # the envelope was seen at these z and at -3.3e3, -7.7e5 and -2e9.
        bound = 2.0 * math.ulp((2.0 / 3.0) * abs(z) ** 1.5)
        pair = airy_asymptotic(z)
        with mpmath.workdps(40):
            ai, bi = mpmath.airyai(z), mpmath.airybi(z)
            aip, bip = mpmath.airyai(z, 1), mpmath.airybi(z, 1)
            for values, exact in (
                ((pair.ai, pair.bi), (ai, bi)),
                ((pair.ai_prime, pair.bi_prime), (aip, bip)),
            ):
                envelope = mpmath.hypot(*exact)
                for value, reference in zip(values, exact):
                    assert abs(value - reference) <= bound * envelope


class TestBesselForm:
    @pytest.mark.parametrize("z", [1.0, 4.0])
    def test_agrees_with_series(self, z):
        a, b = airy(z), airy_bessel_form(z)
        assert abs(b.ai - a.ai) < 1e-9 * abs(a.ai)
        assert abs(b.bi - a.bi) < 1e-9 * abs(a.bi)

    def test_derivatives_agree(self):
        a, b = airy(2.5), airy_bessel_form(2.5)
        assert abs(b.ai_prime - a.ai_prime) < 1e-9 * abs(a.ai_prime)
        assert abs(b.bi_prime - a.bi_prime) < 1e-9 * abs(a.bi_prime)

    def test_continuous_at_zero(self):
        assert abs(airy_bessel_form(1e-6).ai - airy(0.0).ai) < 1e-5

    def test_large_argument_branch(self):
        # zeta > 12 exercises the compound asymptotic series.
        a, b = airy(8.0), airy_bessel_form(8.0)
        assert abs(b.ai - a.ai) < 1e-9 * abs(a.ai)
        assert abs(b.bi - a.bi) < 1e-9 * abs(a.bi)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            airy_bessel_form(-1.0)
        with pytest.raises(DomainError):
            airy_bessel_form(0.0)


class TestLaplaceContour:
    @pytest.mark.parametrize("z", [-1.0, 0.0, 1.0])
    def test_matches_series(self, z):
        assert abs(airy_laplace_contour(z) - airy(z).ai) < 1e-6

    def test_validation_range(self):
        with pytest.raises(RangeError):
            airy_laplace_contour(2.5)


class TestBesselTransform:
    @pytest.mark.parametrize("z", [-2.0, -5.0])
    def test_residual_small(self, z):
        phi = airy(z).ai / math.sqrt(-z)
        assert abs(bessel_transform_residual(z)) <= 1e-6 * max(1.0, abs(phi)) + 1e-8

    def test_linearity_of_operator(self):
        # The transformed equation is linear: scaling phi scales the residual.
        residual = bessel_transform_residual(-3.0)
        assert bessel_transform_residual(-3.0, 2.0) == pytest.approx(2.0 * residual, abs=1e-12)


@pytest.mark.filterwarnings("error")
class TestCrossCheckRefusals:
    """The cross-check routes refuse, with no warning, a z that is not finite
    and one where e^zeta overflows."""

    @pytest.mark.parametrize("route", [airy_asymptotic, airy_bessel_form, airy_laplace_contour])
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z(self, route, z):
        with pytest.raises(DomainError, match=f"^{route.__name__}: z must be finite$"):
            route(z)

    @pytest.mark.parametrize("route", [airy_asymptotic, airy_bessel_form])
    @pytest.mark.parametrize("z", [math.nextafter(_EXP_MAX_Z, math.inf), 105.0, 200.0, 1e300])
    def test_overflowing_z(self, route, z):
        with pytest.raises(RangeError, match=r"e\^zeta overflows a float$"):
            route(z)

    @pytest.mark.parametrize("route", [airy_asymptotic, airy_bessel_form])
    def test_values_up_to_the_cut_are_finite(self, route):
        assert all(map(math.isfinite, dataclasses.astuple(route(_EXP_MAX_Z))))

    def test_phase_cut_is_where_zeta_reaches_2_to_52(self):
        assert (2.0 / 3.0) * _PHASE_MAX_ABS_Z**1.5 == pytest.approx(2.0**52, rel=1e-14)
        inside = airy_asymptotic(math.nextafter(-_PHASE_MAX_ABS_Z, 0.0))
        assert all(map(math.isfinite, dataclasses.astuple(inside)))

    @pytest.mark.parametrize(
        "z", [math.nextafter(-_PHASE_MAX_ABS_Z, -math.inf), -1e11, -2e41, -1e300]
    )
    def test_phase_without_a_digit(self, z):
        # Before, the phase was noise from z ~ -3.6e10, and from between -1e41
        # and -2e41 zeta^5 in the odd sums raised a bare OverflowError.
        with pytest.raises(RangeError, match=r"phase zeta - pi/4 has no correct digit left$"):
            airy_asymptotic(z)


class TestSeriesEdges:
    @pytest.mark.parametrize("z", [5e-324, -5e-324, 1e-300, -1e-300])
    def test_tiny_arguments_are_the_values_at_zero(self, z):
        # Every term past the first underflows; the sum stops at its term cap.
        zero = airy(0.0)
        tiny = airy(z)
        assert (tiny.ai, tiny.bi, tiny.ai_prime, tiny.bi_prime) == pytest.approx(
            (zero.ai, zero.bi, zero.ai_prime, zero.bi_prime), rel=1e-15
        )
