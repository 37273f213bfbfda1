"""Divergence-aware WKB toolkit for 1-D quantum barrier scattering.

Semiclassical action integrals, Airy connection formulas, patched barrier
wavefunctions, half-integer quantization, and an over-barrier
multiple-reflection expansion, all cross-checked against an exact Numerov
oracle.
"""

from .errors import (
    BracketError,
    ChannelClosedError,
    ConfigError,
    DomainError,
    LinearizationError,
    MatchingError,
    MultiWellError,
    NoBarrierError,
    NumericalError,
    RangeError,
    RegimeError,
    RegionError,
    SemiclassicError,
    SpectrumError,
    TurningPointProximityError,
)
from .potential import (
    EckartBarrier,
    GaussianBump,
    HarmonicWell,
    LinearRamp,
    ParabolicBarrier,
    PhysicalContext,
    PotentialModel,
    ScatteringProblem,
    SquareBarrier,
    TabulatedPotential,
    TurningPoints,
    derivative,
    evaluate,
    exclusion_radius,
    find_turning_points,
    second_derivative,
)
from .special_fn import (
    AiryPair,
    airy,
    airy_asymptotic,
    airy_bessel_form,
    airy_laplace_contour,
)
from .wkb_core import (
    Method,
    TransmissionReport,
    action_integral,
    barrier_integral,
    opacities,
    quantize,
    quantize_levels,
    transmission_leading,
)
from .connection import (
    Region,
    WavefunctionTable,
    airy_local_solution,
    barrier_currents,
    patched_barrier_solution,
    transmission_from_currents,
)
from .reflection import (
    EffectivePerturbation,
    PicardAmplitudes,
    born_amplitudes,
    born_first_order,
    effective_perturbation,
    effective_perturbation_profile,
    matrix_element,
    once_reflected_coefficient,
    once_reflected_coefficients,
    picard_amplitudes,
)
from .exact_oracle import (
    OracleConfig,
    analytic_eckart_transmission,
    analytic_square_barrier_transmission,
    scan_scattering_exact,
    solve_bound_states_exact,
    solve_scattering_exact,
    unitarity_defect,
    wavefunction_exact,
)

__version__ = "0.1.0"
