"""Built-in verification suite: nine oracle- and property-based criteria.

Each criterion is a pure function returning a result object with one row per
individual check; the CLI ``verify`` subcommand renders them as a pass/fail
table and a deterministic CSV, and the acceptance tests assert them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import connection, exact_oracle, reflection, special_fn, wkb_core
from .potential import (
    EckartBarrier,
    GaussianBump,
    HarmonicWell,
    LinearRamp,
    ParabolicBarrier,
    PhysicalContext,
    ScatteringProblem,
    SquareBarrier,
)
from ._format import table_text

__all__ = ["CheckRow", "CriterionResult", "CRITERIA", "run_all", "emit_csv", "format_table"]


@dataclass(frozen=True)
class CheckRow:
    label: str
    value: float
    bound: float
    passed: bool


@dataclass
class CriterionResult:
    index: int
    name: str
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def check(self, label: str, value: float, bound: float) -> None:
        self.rows.append(
            CheckRow(label=label, value=float(value), bound=float(bound),
                     passed=bool(value <= bound))
        )


def criterion_1_airy_identities() -> CriterionResult:
    """Wronskian, Bessel-form agreement, Laplace-integral validation."""
    res = CriterionResult(1, "airy identity suite")

    zs = np.linspace(-10.0, 10.0, 100)
    worst = max(abs(special_fn.airy(z).wronskian - 1.0 / math.pi) for z in zs)
    res.check("wronskian_max_error", worst, 1e-10)

    zs = np.linspace(0.1, 5.0, 50)
    worst = 0.0
    for z in zs:
        a = special_fn.airy(z)
        b = special_fn.airy_bessel_form(z)
        for x, y in ((a.ai, b.ai), (a.bi, b.bi),
                     (a.ai_prime, b.ai_prime), (a.bi_prime, b.bi_prime)):
            worst = max(worst, abs(x - y) / abs(x))
    res.check("bessel_form_max_rel_error", worst, 1e-9)

    zs = np.linspace(-2.0, 2.0, 21)
    worst = max(
        abs(special_fn.airy_laplace_contour(z) - special_fn.airy(z).ai) for z in zs
    )
    res.check("laplace_integral_max_error", worst, 1e-6)
    return res


def criterion_2_quantization() -> CriterionResult:
    """Half-integer action levels of the unit harmonic well, vs oracle."""
    res = CriterionResult(2, "harmonic-well quantization")
    problem = ScatteringProblem(
        potential=HarmonicWell(stiffness=1.0), energy=0.5, domain=(-12.0, 12.0)
    )
    levels = [
        wkb_core.quantize(problem, n, (n + 0.1, n + 0.9)) for n in range(11)
    ]
    worst = max(abs(e - (n + 0.5)) for n, e in enumerate(levels))
    res.check("wkb_vs_analytic_max_error", worst, 1e-8)

    exact = exact_oracle.solve_bound_states_exact(
        problem, 10, exact_oracle.OracleConfig(grid_points=12001)
    )
    worst = max(abs(e - x) for e, x in zip(levels, exact))
    res.check("wkb_vs_oracle_max_error", worst, 1e-6)
    return res


def criterion_3_barrier_integrals() -> CriterionResult:
    """Opacity integrals against the parabolic and rectangular closed forms."""
    res = CriterionResult(3, "barrier integrals")
    worst = 0.0
    for e in (0.25, 0.5, 0.75):
        problem = ScatteringProblem(
            potential=ParabolicBarrier(height=1.0, curvature=1.0),
            energy=e,
            domain=(-3.0, 3.0),
        )
        sigma = wkb_core.barrier_integral(problem)
        exact = math.pi * (1.0 - e)
        worst = max(worst, abs(sigma - exact) / exact)
    res.check("parabolic_sigma_max_rel_error", worst, 1e-10)

    problem = ScatteringProblem(
        potential=SquareBarrier(height=1.0, width=2.0), energy=0.5, domain=(-8.0, 8.0)
    )
    sigma = wkb_core.barrier_integral(problem)
    exact = 2.0 * math.sqrt(2.0 * (1.0 - 0.5))
    res.check("square_sigma_rel_error", abs(sigma - exact) / exact, 1e-12)
    return res


def criterion_4_transmission_identity() -> CriterionResult:
    """Current-ratio T is the corrected closed form, identically."""
    res = CriterionResult(4, "transmission identity")
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0, 4.0):
        j_inc, _j_ref, j_out = connection.barrier_currents(sigma)
        t_currents = j_out / j_inc
        bare = math.exp(-2.0 * sigma)
        t_corr = bare / (1.0 + 0.25 * bare) ** 2
        worst = max(worst, abs(t_currents - t_corr))
    res.check("identity_max_abs_diff", worst, 1e-14)

    problem = ScatteringProblem(
        potential=EckartBarrier(height=1.0, width=1.0), energy=0.5, domain=(-14.0, 14.0)
    )
    t_conn = connection.transmission_from_currents(problem).transmission
    t_corr = wkb_core.transmission_leading(problem).transmission
    res.check("end_to_end_abs_diff", abs(t_conn - t_corr), 1e-14)

    sigmas = np.linspace(0.05, 6.0, 40)
    bare = np.exp(-2.0 * sigmas)
    corr = bare / (1.0 + 0.25 * bare) ** 2
    res.check("corrected_exceeds_bare_count", float(np.sum(corr > bare)), 0.0)

    worst = 0.0
    for sigma in (2.3, 3.0, 4.0, 6.0):
        b = math.exp(-2.0 * sigma)
        c = b / (1.0 + 0.25 * b) ** 2
        worst = max(worst, abs(b - c) / c)
    res.check("bare_vs_corrected_beyond_2.3", worst, 0.01)
    return res


#: Energy scan for the semiclassical-limit comparison: chosen inside the
#: window where the sech^2 barrier is both opaque (exact T <= 0.05) and
#: still semiclassical.  Below E ~ 0.02 the exact T drops like E while the
#: opacity integral stays finite, so the bare WKB value cannot follow it.
ECKART_SCAN_ENERGIES = np.linspace(0.025, 0.05, 6)


def criterion_5_wkb_vs_exact() -> CriterionResult:
    """Bare e^{-2 sigma*} against the exact oracle deep under an Eckart barrier."""
    res = CriterionResult(5, "WKB vs exact, Eckart barrier")
    discrepancies = []
    t_max = 0.0
    for e in ECKART_SCAN_ENERGIES:
        problem = ScatteringProblem(
            potential=EckartBarrier(height=1.0, width=1.0),
            energy=float(e),
            domain=(-14.0, 14.0),
        )
        t_exact = exact_oracle.solve_scattering_exact(problem).transmission
        t_bare = wkb_core.transmission_leading(problem, corrected=False).transmission
        discrepancies.append(abs(t_bare - t_exact) / t_exact)
        t_max = max(t_max, t_exact)
    res.check("exact_T_stays_opaque", t_max, 0.05)
    res.check("bare_wkb_max_rel_discrepancy", max(discrepancies), 0.25)
    # Discrepancy must shrink as E decreases: increasing along ascending E.
    steps = np.diff(discrepancies)
    res.check("non_monotone_steps", float(np.sum(steps <= 0.0)), 0.0)
    return res


def criterion_6_oracle_unitarity() -> CriterionResult:
    """Flux conservation across scans; analytic square-barrier cross-check."""
    res = CriterionResult(6, "oracle unitarity and square-barrier value")
    cases = [
        ("square", SquareBarrier(height=1.0, width=2.0), (-8.0, 8.0)),
        ("gaussian", GaussianBump(amplitude=1.0, width=1.0), (-8.0, 8.0)),
        ("eckart", EckartBarrier(height=1.0, width=1.0), (-14.0, 14.0)),
    ]
    for name, pot, dom in cases:
        worst = 0.0
        for e in np.linspace(0.1, 2.0, 50):
            problem = ScatteringProblem(potential=pot, energy=float(e), domain=dom)
            worst = max(worst, abs(exact_oracle.unitarity_defect(problem)))
        res.check(f"{name}_max_unitarity_defect", worst, 1e-8)

    # Grid chosen so the jump nodes are binary-exact: h = 16/32768.
    problem = ScatteringProblem(
        potential=SquareBarrier(height=1.0, width=2.0), energy=0.5, domain=(-8.0, 8.0)
    )
    t = exact_oracle.solve_scattering_exact(
        problem, exact_oracle.OracleConfig(grid_points=32769)
    ).transmission
    t_ref = exact_oracle.analytic_square_barrier_transmission(1.0, 2.0, 0.5)
    res.check("square_analytic_rel_error", abs(t - t_ref) / t_ref, 1e-6)
    return res


def criterion_7_reflection_regime() -> CriterionResult:
    """Effective perturbation, once-reflected vs oracle, scaling, Picard."""
    res = CriterionResult(7, "over-barrier reflection machinery")

    ramp = ScatteringProblem(
        potential=LinearRamp(offset=0.0, slope=-1.0), energy=1.0, domain=(-1.0, 30.0)
    )
    profile = reflection.effective_perturbation_profile(
        ramp, [0.0, 1.0, 5.0, 20.0], x0=-1.0
    )
    worst = max(abs(v * w * w - 5.0 / 36.0) for w, v in profile.samples)
    res.check("linear_ramp_vtilde_w2_error", worst, 1e-4)

    bump = ScatteringProblem(
        potential=GaussianBump(amplitude=0.01, width=1.0),
        energy=2.0,
        domain=(-12.0, 12.0),
    )
    r_once = abs(reflection.once_reflected_coefficient(bump)) ** 2
    r_exact = exact_oracle.solve_scattering_exact(bump).reflection
    res.check("once_reflected_vs_exact_rel_error", abs(r_once - r_exact) / r_exact, 0.30)

    amps = (0.005, 0.01, 0.02)
    logs = []
    for a in amps:
        prob = ScatteringProblem(
            potential=GaussianBump(amplitude=a, width=1.0),
            energy=2.0,
            domain=(-12.0, 12.0),
        )
        logs.append(math.log(abs(reflection.once_reflected_coefficient(prob))))
    slope = np.polyfit(np.log(amps), logs, 1)[0]
    res.check("amplitude_scaling_slope_error", abs(slope - 1.0), 0.05)

    picard = reflection.picard_amplitudes(bump, iterations=1)
    diff = abs(picard.reflection_amplitude - reflection.once_reflected_coefficient(bump))
    res.check("picard_one_step_vs_once_reflected", diff, 1e-10)

    eckart = ScatteringProblem(
        potential=EckartBarrier(height=1.0, width=1.0),
        energy=1.5,
        domain=(-14.0, 14.0),
        context=PhysicalContext(mass=4.0),
    )
    picard = reflection.picard_amplitudes(eckart, iterations=50, tol=1e-14)
    r_picard = abs(picard.reflection_amplitude) ** 2
    r_closed = 1.0 - exact_oracle.analytic_eckart_transmission(1.0, 1.0, 1.5, mass=4.0)
    error = abs(r_picard - r_closed) / r_closed
    res.check("picard_converged_vs_closed_form_rel_error", error, 1e-9)
    return res


def criterion_8_reference_invariance() -> CriterionResult:
    """|R|^2 must not depend on the arbitrary phase reference point."""
    res = CriterionResult(8, "phase-reference invariance")
    bump = ScatteringProblem(
        potential=GaussianBump(amplitude=0.01, width=1.0),
        energy=2.0,
        domain=(-12.0, 12.0),
    )
    base = abs(reflection.once_reflected_coefficient(bump, x0=0.0)) ** 2
    worst = max(
        abs(abs(reflection.once_reflected_coefficient(bump, x0=shift)) ** 2 - base)
        for shift in (-5.0, 5.0)
    )
    res.check("r_squared_shift_variation", worst, 1e-10)
    return res


CRITERIA = [
    criterion_1_airy_identities,
    criterion_2_quantization,
    criterion_3_barrier_integrals,
    criterion_4_transmission_identity,
    criterion_5_wkb_vs_exact,
    criterion_6_oracle_unitarity,
    criterion_7_reflection_regime,
    criterion_8_reference_invariance,
]


def run_all() -> list:
    """Criteria 1-8 (criterion 9, rerun determinism, needs a second pass)."""
    return [fn() for fn in CRITERIA]


def criterion_9_determinism(first_pass) -> CriterionResult:
    """Recompute criteria 1-8 and require byte-identical CSV output."""
    res = CriterionResult(9, "rerun determinism")
    second_pass = run_all()
    identical = emit_csv(first_pass) == emit_csv(second_pass)
    res.check("rerun_csv_byte_mismatch", 0.0 if identical else 1.0, 0.0)
    return res


def emit_csv(results) -> str:
    rows = [
        (str(result.index), row.label, row.value, row.bound, "pass" if row.passed else "FAIL")
        for result in results for row in result.rows
    ]
    return table_text(["criterion", "check", "value", "bound", "status"], rows)


def format_table(results) -> str:
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"[{status}] criterion {result.index}: {result.name}")
        for row in result.rows:
            mark = "ok  " if row.passed else "FAIL"
            lines.append(
                f"    {mark} {row.label}: {row.value:.3e} (bound {row.bound:.3e})"
            )
    return "\n".join(lines)
