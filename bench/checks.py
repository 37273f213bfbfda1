"""Closed forms and output checkers for the benchmark.

Every reference value here is computed from the problem parameters alone;
nothing is read from the package under test and nothing is compared against
a stored copy of an earlier output.  Each checker returns a list of problem
descriptions; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

#: Opacity integrals from the package agree with the closed forms to ~1e-12;
#: a 1e-6 relative slip must fail.
SIGMA_RTOL = 1e-9
#: The near-top Eckart query has turning points 1e-4 apart, so its opacity
#: carries the root-finder's tolerance (~1e-8 relative) once it is answered.
NEAR_TOP_SIGMA_RTOL = 1e-6
#: T computed from the row's own sigma*: only rounding separates them.
T_FORMULA_RTOL = 1e-14
#: Numerov oracle (default 20001-point grid) against the Eckart closed form.
EXACT_ECKART_RTOL = 1e-7
#: Against the square-barrier closed form the jumps cost O(h^2) accuracy.
EXACT_SQUARE_RTOL = 2e-5
#: Bound-state levels, both the WKB quantization and the node-count oracle.
LEVEL_RTOL = 1e-8
#: |psi|^2 k on the transmitted side of the patched wave is 4|B|^2.
FLUX_RTOL = 1e-10
#: Airy bridge values against scipy.special.airy.
AIRY_RTOL = 1e-10
AIRY_ATOL = 1e-13


def born_rtol(mass: float, amplitude: float, width: float, hbar: float) -> float:
    """Allowed |R|^2 / Born - 1 for a weak Gaussian bump.

    The once-reflected and phase-variable Born amplitudes carry the WKB phase
    shift of the bump, which moves |R|^2 off the plane-wave Born value by
    about 4 m A d^2 / hbar^2 (relative); twice that is allowed.
    """
    return 8.0 * mass * amplitude * width * width / (hbar * hbar)


# --------------------------------------------------------------------------
# closed forms


def sigma_eckart(height, width, energy, mass, hbar):
    return math.pi * width * (math.sqrt(2 * mass * height) - math.sqrt(2 * mass * energy)) / hbar


def sigma_parabolic(height, curvature, energy, mass, hbar):
    return math.pi * (height - energy) * math.sqrt(mass / curvature) / hbar


def sigma_square(height, width, energy, mass, hbar):
    return width * math.sqrt(2 * mass * (height - energy)) / hbar


def t_eckart(height, width, energy, mass, hbar):
    """T for V0 sech^2(x/d), written as 1/(1 + D/S) so large S cannot overflow."""
    k = math.sqrt(2 * mass * energy) / hbar
    g = 8 * mass * height * width * width / (hbar * hbar)
    s = math.sinh(math.pi * k * width)
    if g >= 1.0:
        d = math.cosh(0.5 * math.pi * math.sqrt(g - 1.0))
    else:
        d = math.cos(0.5 * math.pi * math.sqrt(1.0 - g))
    return 1.0 / (1.0 + (d / s) ** 2)


def t_square(height, width, energy, mass, hbar):
    if energy < height:
        kappa = math.sqrt(2 * mass * (height - energy)) / hbar
        s = math.sinh(kappa * width)
        return 1.0 / (1.0 + height * height * s * s / (4 * energy * (height - energy)))
    q = math.sqrt(2 * mass * (energy - height)) / hbar
    s = math.sin(q * width)
    return 1.0 / (1.0 + height * height * s * s / (4 * energy * (energy - height)))


def harmonic_level(n, stiffness, mass, hbar):
    return (n + 0.5) * hbar * math.sqrt(stiffness / mass)


def born_r2_gaussian(amplitude, width, energy, mass, hbar):
    """First-order Born |R|^2 for A exp(-(x/d)^2): |m/(hbar^2 k) int V e^{2ikx}|^2."""
    k = math.sqrt(2 * mass * energy) / hbar
    ft = amplitude * width * math.sqrt(math.pi) * math.exp(-(k * width) ** 2)
    return (mass * ft / (hbar * hbar * k)) ** 2


def eckart_v(height, width, center, x):
    return height / np.cosh((np.asarray(x) - center) / width) ** 2


def eckart_dv(height, width, center, x):
    u = (np.asarray(x) - center) / width
    return -2.0 * height * np.tanh(u) / (width * np.cosh(u) ** 2)


def eckart_turning_points(height, width, center, energy):
    u = math.acosh(math.sqrt(height / energy))
    return center - width * u, center + width * u


# --------------------------------------------------------------------------
# checkers


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_opacity_rows(rows, closed_form, rtol=SIGMA_RTOL):
    """sigma* of each row against closed_form(E)."""
    out = []
    for row in rows:
        ref = closed_form(row["E"])
        if not _rel(row["sigma_star"], ref) <= rtol:
            out.append(f"E={row['E']!r}: sigma*={row['sigma_star']!r}, closed form {ref!r}")
    return out


def check_opacity_decreasing(rows):
    sig = [row["sigma_star"] for row in rows]
    if not all(s > 0.0 for s in sig):
        return ["sigma* not positive"]
    if not all(b < a for a, b in zip(sig, sig[1:])):
        return ["sigma* not strictly decreasing along the scan"]
    return []


def check_transmission_formula(rows, corrected):
    """T from the row's own sigma*: bare e^{-2s}, or bare/(1 + bare/4)^2."""
    out = []
    for row in rows:
        bare = math.exp(-2.0 * row["sigma_star"])
        ref = bare / (1.0 + 0.25 * bare) ** 2 if corrected else bare
        if not _rel(row["T"], ref) <= T_FORMULA_RTOL:
            out.append(f"E={row['E']!r}: T={row['T']!r}, from sigma* {ref!r}")
        if not abs(row["T"] + row["R"] - 1.0) <= 1e-15:
            out.append(f"E={row['E']!r}: T + R - 1 = {row['T'] + row['R'] - 1.0:.3e}")
    return out


def check_same_transmission(rows, reference_rows):
    """connection rows against the wkb-corrected rows of the same energies."""
    if [r["E"] for r in rows] != [r["E"] for r in reference_rows]:
        return ["energies differ from the wkb-corrected scan"]
    out = []
    for row, ref in zip(rows, reference_rows):
        if not _rel(row["T"], ref["T"]) <= T_FORMULA_RTOL:
            out.append(f"E={row['E']!r}: connection T={row['T']!r}, corrected {ref['T']!r}")
    return out


def check_exact_rows(rows, closed_form, rtol):
    """0 <= T <= 1 always; against closed_form(E) when one is given."""
    out = []
    for row in rows:
        t = row["T"]
        if not 0.0 <= t <= 1.0:
            out.append(f"E={row['E']!r}: T={t!r} outside [0, 1]")
        elif closed_form is not None and not _rel(t, closed_form(row["E"])) <= rtol:
            out.append(f"E={row['E']!r}: T={t!r}, closed form {closed_form(row['E'])!r}")
    return out


def check_born_rows(rows, closed_form, rtol):
    out = []
    for row in rows:
        r2 = row["R_squared"]
        if not _rel(row["re_R"] ** 2 + row["im_R"] ** 2, r2) <= 1e-12:
            out.append(f"E={row['E']!r}: R_squared disagrees with re_R, im_R")
        ref = closed_form(row["E"])
        if not _rel(r2, ref) <= rtol:
            out.append(f"E={row['E']!r}: |R|^2={r2!r}, Born {ref!r} (rtol {rtol:.2g})")
    return out


def check_levels(rows, closed_form, expected_count):
    if len(rows) != expected_count:
        return [f"{len(rows)} levels, expected {expected_count}"]
    out = []
    for row in rows:
        n = int(row["n"])
        if not _rel(row["E"], closed_form(n)) <= LEVEL_RTOL:
            out.append(f"level {n}: E={row['E']!r}, closed form {closed_form(n)!r}")
    return out


def check_transmitted_flux(table, k_of_x, right_turning_point, outgoing_amplitude=1.0):
    """Patched wave: |psi|^2 k = 4|B|^2 on every allowed_right sample."""
    tags = [t.value for t in table.region_tags]
    right = np.array([tag == "allowed_right" for tag in tags])
    if not right.any():
        return ["no allowed_right samples"]
    if np.any(table.xs[right] <= right_turning_point):
        return ["allowed_right sample left of the turning point"]
    flux = np.abs(table.psi[right]) ** 2 * k_of_x(table.xs[right])
    target = 4.0 * abs(outgoing_amplitude) ** 2
    worst = float(np.max(np.abs(flux / target - 1.0)))
    return [] if worst <= FLUX_RTOL else [f"|psi|^2 k off 4|B|^2 by {worst:.3e} (relative)"]


def check_airy_bridge(table, turning_point, slope, mass, hbar, solution):
    """psi(x) = Ai or Bi of (2 m V'(a)/hbar^2)^(1/3) (x - a), via scipy."""
    z = np.cbrt(2.0 * mass * slope / hbar**2) * (table.xs - turning_point)
    ai, _aip, bi, _bip = special.airy(z)
    ref = ai if solution == "ai" else bi
    err = np.abs(table.psi - ref)
    if np.all(err <= AIRY_RTOL * np.abs(ref) + AIRY_ATOL):
        return []
    return [f"Airy bridge off scipy by {float(np.max(err)):.3e}"]


def check_exact_wave(table, transmission, k_left, k_right, x_flat, rtol):
    """|psi|^2 = T k_L / k_R on the flat right edge (unit incident amplitude)."""
    edge = table.xs >= x_flat
    if not edge.any():
        return ["no samples on the right edge"]
    target = transmission * k_left / k_right
    worst = float(np.max(np.abs(np.abs(table.psi[edge]) ** 2 / target - 1.0)))
    return [] if worst <= rtol else [
        f"|psi|^2 on the right edge off T k_L/k_R by {worst:.3e} (relative)"
    ]
