"""Airy functions Ai/Bi through four independent routes.

The power series is the primary evaluator.  The asymptotic expansions, the
modified-Bessel representation of fractional order 1/3, and a real
oscillatory-integral quadrature serve as mutually independent cross-checks;
each route is exposed so the agreement can be asserted numerically.

Normalization note: the asymptotic forms here carry the standard prefactors
1/(2 sqrt(pi)) for decaying Ai and 1/sqrt(pi) elsewhere, the only choice
consistent with the Bessel representation Ai = (sqrt(z)/3)(I_{-1/3} - I_{1/3}).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import lazy
from .errors import DomainError, RangeError

mp = lazy("mpmath")
integrate = lazy("scipy.integrate")

__all__ = [
    "AiryPair",
    "airy",
    "airy_asymptotic",
    "airy_bessel_form",
    "airy_laplace_contour",
    "AI_ZERO",
    "BI_ZERO",
]

#: Ai(0) = 3^(-2/3) / Gamma(2/3) and Bi(0) = 3^(-1/6) / Gamma(2/3).
AI_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
BI_ZERO = 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 / 3.0)
#: -Ai'(0) = 3^(-1/3) / Gamma(1/3); Bi'(0) = 3^(1/6) / Gamma(1/3).
AIP_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
BIP_ZERO = 3.0 ** (1.0 / 6.0) / math.gamma(1.0 / 3.0)

#: Largest |z| the series evaluator accepts before directing callers to the
#: asymptotic forms (Bi would eventually overflow, Ai lose all significance).
SERIES_MAX_ABS_Z = 30.0

#: Beyond this |z| the series is summed in escalated internal precision:
#: in double precision the alternating/cancelling sums lose roughly
#: 2 zeta / ln 10 digits with zeta = (2/3)|z|^(3/2).
_F64_SERIES_LIMIT = 3.5

#: Largest z the exponential routes accept: up to it e^zeta, zeta =
#: (2/3) z^(3/2), times the prefactors of Bi and Bi' (below 8) is a float.
_EXP_MAX_Z = (1.5 * (math.log(sys.float_info.max) - math.log(8.0))) ** (2.0 / 3.0)

#: Largest -z the oscillatory route accepts: past it zeta = (2/3)|z|^(3/2)
#: exceeds 2^52, its ulp exceeds 1, and the phase zeta - pi/4 has no correct
#: digit (long before zeta^5 in the odd sums overflows, near z = -1e41).
_PHASE_MAX_ABS_Z = (1.5 * 2.0**52) ** (2.0 / 3.0)


@dataclass(frozen=True)
class AiryPair:
    """Values of Ai, Bi and their derivatives at one point."""

    ai: float
    bi: float
    ai_prime: float
    bi_prime: float

    @property
    def wronskian(self) -> float:
        """Ai Bi' - Ai' Bi; identically 1/pi for the standard normalization."""
        return self.ai * self.bi_prime - self.ai_prime * self.bi


def _airy_series(z, c1, c2, sqrt3, eps):
    """Ai, Bi, Ai', Bi' at z != 0 by Maclaurin series, in the arithmetic of
    its arguments (floats, or mpf inside the caller's working precision).

    c1 = Ai(0) and c2 = -Ai'(0).  The sum stops once the terms of both
    series fall below eps of their sums, or after 601 terms: for a subnormal
    z every term underflows to 0, and the relative test never holds.
    """
    z3 = z * z * z
    f, g = 1, z
    fp, gp = 0, 1
    tf, tg = 1, z
    for k in range(601):
        tf = tf * z3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * z3 / ((3 * k + 3) * (3 * k + 4))
        f += tf
        g += tg
        fp += tf * (3 * (k + 1)) / z
        gp += tg * (3 * (k + 1) + 1) / z
        if abs(tf) < eps * abs(f) and abs(tg) < eps * abs(g):
            break
    return (c1 * f - c2 * g, sqrt3 * (c1 * f + c2 * g),
            c1 * fp - c2 * gp, sqrt3 * (c1 * fp + c2 * gp))


def airy(z: float) -> AiryPair:
    """Ai, Bi, Ai', Bi' by Maclaurin series, for |z| <= 30.

    Beyond |z| ~ 3.5 the series is summed with escalated internal precision;
    the returned doubles are correctly rounded either way.  Larger arguments
    must go through :func:`airy_asymptotic` (Bi grows like exp((2/3)z^{3/2})
    and the series would sacrifice every significant digit before overflow).
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("airy: z must be finite")
    if abs(z) > SERIES_MAX_ABS_Z:
        raise RangeError(
            f"airy: |z| = {abs(z):g} exceeds {SERIES_MAX_ABS_Z:g}; "
            "use airy_asymptotic for large arguments"
        )
    if z == 0.0:
        return AiryPair(ai=AI_ZERO, bi=BI_ZERO, ai_prime=AIP_ZERO, bi_prime=BIP_ZERO)
    if abs(z) <= _F64_SERIES_LIMIT:
        values = _airy_series(z, AI_ZERO, -AIP_ZERO, math.sqrt(3.0), 1e-17)
    else:
        # Enough guard digits to absorb the cancellation.
        zeta = (2.0 / 3.0) * abs(z) ** 1.5
        dps = 30 + int(2.0 * zeta / math.log(10.0))
        with mp.workdps(dps):
            values = _airy_series(
                mp.mpf(z),
                mp.power(3, mp.mpf(-2) / 3) / mp.gamma(mp.mpf(2) / 3),
                mp.power(3, mp.mpf(-1) / 3) / mp.gamma(mp.mpf(1) / 3),
                mp.sqrt(3),
                mp.mpf(10) ** (-dps),
            )
    ai, bi, aip, bip = (float(v) for v in values)
    return AiryPair(ai=ai, bi=bi, ai_prime=aip, bi_prime=bip)


def _exponential_range(z, name: str) -> float:
    """z as a float; one that is not finite raises :class:`DomainError`, and
    one past :data:`_EXP_MAX_Z`, where Bi' would overflow, :class:`RangeError`."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"{name}: z must be finite")
    if z > _EXP_MAX_Z:
        raise RangeError(
            f"{name}: z = {z:g} exceeds {_EXP_MAX_Z:.6g}, where e^zeta overflows a float"
        )
    return z


# Coefficients u_k, v_k of the standard large-|z| expansions.
def _uv_coefficients(n: int) -> tuple[list[float], list[float]]:
    u = [1.0]
    v = [1.0]
    for k in range(1, n + 1):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k))
        v.append(u[-1] * (6 * k + 1) / (1 - 6 * k))
    return u, v


_U_COEF, _V_COEF = _uv_coefficients(5)


def airy_asymptotic(z: float) -> AiryPair:
    """Large-|z| expansions of Ai, Bi and derivatives (|z| >= 3).

    For z > 0 the exponential forms Ai ~ exp(-zeta)/(2 sqrt(pi) z^(1/4)) and
    Bi ~ exp(zeta)/(sqrt(pi) z^(1/4)); for z < 0 the oscillatory forms with
    phase zeta - pi/4, zeta = (2/3)|z|^(3/2).  Correction terms through
    zeta^(-5) are included, so the relative error of the series at |z| = 10
    is ~1e-7 and falls rapidly with |z|.  On the oscillatory side the phase
    is rounded to a double, which bounds the error instead once |z| passes
    ~100: each value is then within 2 ulp(zeta) of its envelope
    (sqrt(Ai^2 + Bi^2) for Ai and Bi, sqrt(Ai'^2 + Bi'^2) for the
    derivatives), an error that grows as |z|^(3/2): 5.3e-13 of the envelope
    at z = -1e3, 1.6e-9 at -1e5 and 1.5e-6 at -1e7 for Ai.  A z below
    -:data:`_PHASE_MAX_ABS_Z`, where ulp(zeta) exceeds 1 and the phase has no
    correct digit, raises :class:`RangeError`.
    """
    z = _exponential_range(z, "airy_asymptotic")
    if abs(z) < 3.0:
        raise RangeError(
            f"airy_asymptotic: |z| = {abs(z):g} < 3 is outside the accurate "
            "regime; use the series evaluator"
        )
    if z < -_PHASE_MAX_ABS_Z:
        raise RangeError(
            f"airy_asymptotic: z = {z:g} is below {-_PHASE_MAX_ABS_Z:.6g}, where "
            "ulp(zeta) exceeds 1: the oscillatory values are only within 2 ulp(zeta) "
            "of their envelope, and the phase zeta - pi/4 has no correct digit left"
        )
    az = abs(z)
    zeta = (2.0 / 3.0) * az**1.5
    q = az**0.25
    sqrt_pi = math.sqrt(math.pi)

    if z > 0.0:
        su_a = sum((-1) ** k * _U_COEF[k] / zeta**k for k in range(len(_U_COEF)))
        sv_a = sum((-1) ** k * _V_COEF[k] / zeta**k for k in range(len(_V_COEF)))
        su_b = sum(_U_COEF[k] / zeta**k for k in range(len(_U_COEF)))
        sv_b = sum(_V_COEF[k] / zeta**k for k in range(len(_V_COEF)))
        ai = math.exp(-zeta) / (2.0 * sqrt_pi * q) * su_a
        aip = -q * math.exp(-zeta) / (2.0 * sqrt_pi) * sv_a
        bi = math.exp(zeta) / (sqrt_pi * q) * su_b
        bip = q * math.exp(zeta) / sqrt_pi * sv_b
        return AiryPair(ai=ai, bi=bi, ai_prime=aip, bi_prime=bip)

    # Oscillatory branch: split the u/v series into even and odd parts.
    ue = sum((-1) ** k * _U_COEF[2 * k] / zeta ** (2 * k) for k in range(3))
    uo = sum((-1) ** k * _U_COEF[2 * k + 1] / zeta ** (2 * k + 1) for k in range(3))
    ve = sum((-1) ** k * _V_COEF[2 * k] / zeta ** (2 * k) for k in range(3))
    vo = sum((-1) ** k * _V_COEF[2 * k + 1] / zeta ** (2 * k + 1) for k in range(3))
    c = math.cos(zeta - math.pi / 4.0)
    s = math.sin(zeta - math.pi / 4.0)
    ai = (c * ue + s * uo) / (sqrt_pi * q)
    aip = q * (s * ve - c * vo) / sqrt_pi
    bi = (-s * ue + c * uo) / (sqrt_pi * q)
    bip = q * (c * ve + s * vo) / sqrt_pi
    return AiryPair(ai=ai, bi=bi, ai_prime=aip, bi_prime=bip)


def _bessel_i_pair(numerator: int, x: float) -> tuple[float, float]:
    """I_{-nu}(x) -/+ I_nu(x), nu = numerator/3 (exact): (2/pi) sin(nu pi) K_nu(x)
    (DLMF 10.27.4), which has no cancellation, and 2 I_nu(x) plus that, from mpmath
    at 30 digits and rounded once to double."""
    with mp.workdps(30):
        nu = mp.mpf(numerator) / 3
        diff = 2 / mp.pi * mp.sinpi(nu) * mp.besselk(nu, x)
        return float(diff), float(2 * mp.besseli(nu, x) + diff)


def airy_bessel_form(z: float) -> AiryPair:
    """Ai, Bi on z > 0 via modified Bessel functions of order 1/3.

    Ai(z) = (sqrt(z)/3)[I_{-1/3}(zeta) - I_{1/3}(zeta)],
    Bi(z) = sqrt(z/3) [I_{-1/3}(zeta) + I_{1/3}(zeta)], zeta = (2/3)z^(3/2).
    Derivatives use the analogous order-2/3 combinations.  Each combination
    I_{-nu} -/+ I_nu comes from mpmath's K_nu and I_nu (see
    :func:`_bessel_i_pair`), for z up to :data:`_EXP_MAX_Z` and down to about
    1e-205, below which zeta is subnormal and :class:`RangeError` is raised.
    """
    z = _exponential_range(z, "airy_bessel_form")
    if z <= 0.0:
        raise DomainError("airy_bessel_form: representation valid for z > 0 only")
    zeta = (2.0 / 3.0) * z**1.5
    if zeta < sys.float_info.min:  # subnormal or 0: zeta has lost its digits
        raise RangeError(f"airy_bessel_form: z = {z:g} is too small: zeta underflows")
    (diff13, plus13), (diff23, plus23) = _bessel_i_pair(1, zeta), _bessel_i_pair(2, zeta)

    ai = (math.sqrt(z) / 3.0) * diff13
    bi = math.sqrt(z / 3.0) * plus13
    # Ai'(z) = -(z/3)[I_{-2/3} - I_{2/3}], Bi'(z) = (z/sqrt(3))[I_{-2/3} + I_{2/3}].
    aip = -(z / 3.0) * diff23
    bip = (z / math.sqrt(3.0)) * plus23
    return AiryPair(ai=ai, bi=bi, ai_prime=aip, bi_prime=bip)


def airy_laplace_contour(z: float) -> float:
    """Ai(z) from the real oscillatory integral (1/pi) int_0^inf cos(zt + t^3/3) dt.

    Validation-range quadrature for |z| <= 2: adaptive integration up to T
    where the cubic phase has swept 100 pi radians (well past the stationary
    region), then an integration-by-parts tail estimate carried to two
    terms.  Accurate to ~1e-7, comfortably inside the 1e-6 contract.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("airy_laplace_contour: z must be finite")
    if abs(z) > 2.0:
        raise RangeError(
            f"airy_laplace_contour: |z| = {abs(z):g} > 2 is outside the "
            "validation range"
        )
    t_max = (3.0 * 100.0 * math.pi) ** (1.0 / 3.0)
    val, _err = integrate.quad(
        lambda t: math.cos(z * t + t**3 / 3.0),
        0.0,
        t_max,
        limit=800,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    phi = z * t_max + t_max**3 / 3.0
    dphi = z + t_max * t_max
    tail = -math.sin(phi) / dphi + math.cos(phi) * (2.0 * t_max) / dphi**3
    return (val + tail) / math.pi
