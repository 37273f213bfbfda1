"""Turning-point connection formulas and the patched barrier wavefunction.

Amplitude-basis convention: on the allowed side of a turning point the wave
is written on the basis (cos(theta - pi/4), sin(theta - pi/4)) where theta is
the action phase measured toward the turning point; on the forbidden side the
basis is (decaying, growing) exponentials measured away from it.  The linear
maps between those bases are

    (2/sqrt(k)) cos(theta - pi/4)  <->  (1/sqrt(beta)) exp(-int beta)
    (1/sqrt(k)) sin(theta - pi/4)  <-> -(1/sqrt(beta)) exp(+int beta)

for an uphill turning point, and the analogous pair for a downhill one.  The
growing exponential is kept exactly: its interference term is what upgrades
the bare tunneling probability e^{-2 sigma*} to e^{-2 sigma*}/(1 + e^{-2
sigma*}/4)^2.  That ratio and j_ref/j_inc are reported from sigma* by the
map that also makes the ``wkb`` and ``wkb-corrected`` reports;
:func:`barrier_currents` keeps the currents themselves, as a check of it.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    LinearizationError,
    NumericalError,
    TurningPointProximityError,
)
from .potential import (
    PhysicalContext,
    ScatteringProblem,
    TurningPoints,
    _require_count,
    _require_finite,
    exclusion_radius,
    find_turning_points,
)
from .special_fn import airy
from .wkb_core import (
    Method,
    TransmissionReport,
    _accumulate,
    _opacity_report,
    barrier_integral,
)
from ._format import table_text

__all__ = [
    "Region",
    "WavefunctionTable",
    "classify_region",
    "barrier_currents",
    "patched_barrier_solution",
    "transmission_from_currents",
    "airy_local_solution",
]


class Region(enum.Enum):
    """Barrier-oriented tag for each sample of a wavefunction table."""

    ALLOWED_LEFT = "allowed_left"
    FORBIDDEN = "forbidden"
    ALLOWED_RIGHT = "allowed_right"


@dataclass(frozen=True)
class WavefunctionTable:
    """Sampled complex wavefunction with per-point region tags."""

    xs: np.ndarray
    psi: np.ndarray
    region_tags: tuple

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        psi = np.asarray(self.psi, dtype=complex)
        if len(xs) != len(psi) or len(xs) != len(self.region_tags):
            raise DomainError("table columns must have equal length")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("xs must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "region_tags", tuple(self.region_tags))

    def __len__(self) -> int:
        return len(self.xs)

    #: The columns of :meth:`rows`.
    COLUMNS = ("x", "re_psi", "im_psi", "region")

    def rows(self) -> list:
        """One (x, Re psi, Im psi, region) row per sample."""
        return list(zip(
            self.xs.tolist(), self.psi.real.tolist(), self.psi.imag.tolist(),
            [tag.value for tag in self.region_tags],
        ))

    def csv_string(self) -> str:
        return table_text(self.COLUMNS, self.rows())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_string())


#: ln of the largest float: math.exp overflows beyond it.
_LN_FLOAT_MAX = math.log(sys.float_info.max)

_REGIONS = (Region.ALLOWED_LEFT, Region.FORBIDDEN, Region.ALLOWED_RIGHT)


def _region_tags(problem: ScatteringProblem, xs, tp: TurningPoints, v=None) -> tuple:
    """Region of every x, from V on ``xs`` (``v`` if given).

    Forbidden where V > E; otherwise allowed_right beyond the last turning
    point and allowed_left elsewhere (so the inside of a well is left).  The
    tuple is joined from the runs of equal regions, a handful per table.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    last = tp.b if tp.count == 2 else tp.a if tp.count == 1 else math.inf
    # One byte per x: an int64 code would add two grid-sized temporaries.
    codes = np.where(xs > last, np.int8(2), np.int8(0))
    codes[(problem.v(xs) if v is None else v) > problem.energy] = 1
    if not len(codes):
        return ()
    tags, lo = (), -1
    for hi in [*np.nonzero(codes[1:] != codes[:-1])[0].tolist(), len(codes) - 1]:
        tags += (_REGIONS[codes[hi]],) * (hi - lo)
        lo = hi
    return tags


def classify_region(problem: ScatteringProblem, x: float, tp: TurningPoints) -> Region:
    return _region_tags(problem, x, tp)[0]


def _amplitude(outgoing_amplitude) -> complex:
    b = complex(outgoing_amplitude)
    if not cmath.isfinite(b):
        raise DomainError(f"outgoing amplitude must be finite, got {outgoing_amplitude}")
    return b


def barrier_currents(
    sigma_star: float, outgoing_amplitude=1.0, context: PhysicalContext = PhysicalContext()
):
    """(incident, reflected, transmitted) probability currents for a barrier.

    Closed forms: j_trans = 4|B|^2 hbar/m and j_inc/ref = 4|B|^2
    (e^{sigma*} +/- e^{-sigma*}/4)^2 hbar/m.  A sigma* or an amplitude that
    is not finite raises :class:`DomainError`, and a sigma* whose currents
    overflow a float :class:`NumericalError`.
    """
    _require_finite(sigma_star, "sigma*")
    scale = abs(_amplitude(outgoing_amplitude)) ** 2 * context.hbar / context.mass
    try:
        ep = math.exp(sigma_star)
        em = 0.25 * math.exp(-sigma_star)
        j_inc, j_ref = 4.0 * scale * (ep + em) ** 2, 4.0 * scale * (ep - em) ** 2
    except OverflowError:
        j_inc = math.inf
    if not math.isfinite(j_inc):
        raise NumericalError(
            f"opacity sigma* = {sigma_star:g} is too large for the region-I currents: "
            "they overflow a float"
        )
    return j_inc, j_ref, 4.0 * scale


def transmission_from_currents(problem: ScatteringProblem) -> TransmissionReport:
    """Transmission as the current ratio of the patched barrier solution.

    T = j_trans / j_inc = e^{-2 sigma*}/(1 + e^{-2 sigma*}/4)^2, the
    ``wkb-corrected`` T bit for bit, and R = j_ref / j_inc =
    ((1 - e^{-2 sigma*}/4)/(1 + e^{-2 sigma*}/4))^2: the outgoing amplitude
    and e^{2 sigma*} cancel in both ratios, so any finite sigma* has a report
    and T + R = 1 holds to rounding.  The batch of one of the map from
    sigma* that the CLI's ``connection`` scans use.
    """
    return _opacity_report(barrier_integral(problem), Method.CONNECTION_PATCHED)


def patched_barrier_solution(
    problem: ScatteringProblem,
    outgoing_amplitude=1.0,
    xs=None,
    n_per_region: int = 200,
) -> WavefunctionTable:
    """Three-region WKB wave built backward from the outgoing wave.

    The outgoing wave (amplitude B) is connected through the downhill turning
    point, carried across the barrier with both exponentials retained, and
    connected through the uphill turning point, which reproduces

        psi_I   = -(B/sqrt(k)) [e^{-s} sin(phi - pi/4) + 4i e^{s} cos(phi - pi/4)]
        psi_II  =  (B/sqrt(beta)) [e^{-s} e^{+u} - 2i e^{s} e^{-u}]
        psi_III =  (2B/sqrt(k)) e^{i (theta - pi/4)}

    with s = sigma*, u the decay integral from the uphill point, phi/theta
    the action phases measured toward/from the turning points.  The wave is
    incident from the left; a right-incident one is this wave of the mirrored
    potential.  The points, ``n_per_region`` even ones per region by default,
    keep one Airy length (:func:`exclusion_radius`) from each turning point,
    else :class:`TurningPointProximityError`; each is tagged by its region.
    """
    n_per_region = _require_count(n_per_region, "n_per_region")
    b_amp = _amplitude(outgoing_amplitude)
    # Raises NoBarrierError unless a barrier lies between two turning points.
    sigma_star = barrier_integral(problem)
    if sigma_star > _LN_FLOAT_MAX:
        raise NumericalError(
            f"opacity sigma* = {sigma_star:g} is too large for the patched wave: "
            "its growing exponential e^sigma* overflows"
        )
    tp = find_turning_points(problem)
    r_a, r_b = exclusion_radius(problem, tp.a), exclusion_radius(problem, tp.b)

    if xs is None:
        lo, hi = problem.domain
        segments = ((lo, tp.a - r_a), (tp.a + r_a, tp.b - r_b), (tp.b + r_b, hi))
        if any(seg_hi <= seg_lo for seg_lo, seg_hi in segments):
            raise TurningPointProximityError(
                "exclusion zones leave no room to sample; widen the domain "
                "or the barrier"
            )
        xs = np.concatenate([np.linspace(*seg, n_per_region) for seg in segments])
    else:
        xs = np.sort(np.atleast_1d(_require_finite(xs, "the points")))
        for x_c, r in ((tp.a, r_a), (tp.b, r_b)):
            bad = np.abs(xs - x_c) < r
            if np.any(bad):
                raise TurningPointProximityError(
                    f"x = {float(xs[bad][0]):g} is within one Airy length "
                    f"({r:g}) of the turning point at {x_c:g}"
                )

    m, e, hbar = problem.context.mass, problem.energy, problem.context.hbar
    left = xs[xs < tp.a]
    mid = xs[(xs > tp.a) & (xs < tp.b)]
    right = xs[xs > tp.b]

    k_left = np.sqrt(2.0 * m * (e - problem.v(left))) / hbar
    k_right = np.sqrt(2.0 * m * (e - problem.v(right))) / hbar
    beta_mid = problem.beta(mid)

    # Action phases toward/away from the turning points, in radians.
    phi = _accumulate(problem, tp.a, left, turning=True) / hbar
    theta = _accumulate(problem, tp.b, right, turning=True) / hbar
    # Decay integral from a, accumulated from the nearer turning point.
    centre = 0.5 * (tp.a + tp.b)
    near_b = mid > centre
    from_a = _accumulate(
        problem, tp.a, np.append(mid[~near_b], centre), turning=True, forbidden=True
    )
    from_b = _accumulate(
        problem, tp.b, np.append(mid[near_b], centre), turning=True, forbidden=True
    )
    total = from_a[-1] + from_b[-1]
    u = np.concatenate([from_a[:-1], total - from_b[:-1]]) / hbar

    e_grow, e_decay = math.exp(sigma_star), math.exp(-sigma_star)
    psi_left = -(b_amp / np.sqrt(k_left)) * (
        e_decay * np.sin(phi - 0.25 * math.pi)
        + 4.0j * e_grow * np.cos(phi - 0.25 * math.pi)
    )
    psi_mid = (b_amp / np.sqrt(beta_mid)) * (
        e_decay * np.exp(u) - 2.0j * e_grow * np.exp(-u)
    )
    psi_right = (2.0 * b_amp / np.sqrt(k_right)) * np.exp(1j * (theta - 0.25 * math.pi))

    psi = np.concatenate([psi_left, psi_mid, psi_right])
    order = np.concatenate([left, mid, right])
    tags = (_REGIONS[0],) * len(left) + (_REGIONS[1],) * len(mid) + (_REGIONS[2],) * len(right)
    return WavefunctionTable(xs=order, psi=psi, region_tags=tags)


def airy_local_solution(
    problem: ScatteringProblem,
    tp_position: float,
    xs,
    solution: str = "ai",
) -> WavefunctionTable:
    """Linear-turning-point wave psi(x) = Ai(z) (or Bi) bridging an exclusion zone.

    z = (2 m mu / hbar^2)^(1/3) (x - a) with mu the local slope of V; the
    requested points must stay inside the radius where the linearization
    error is below 10% of |E - V| (plus an Airy-length floor, since both
    vanish at the turning point itself).  A turning point or a point that is
    not finite raises :class:`DomainError`, and so does an anchor a that is
    not a turning point: one where E - V(a) shifts z, by (E - V(a)) / (|V'(a)| r)
    with r the Airy length, more than 1e-8.
    """
    if solution not in ("ai", "bi"):
        raise DomainError(f"solution must be 'ai' or 'bi', got {solution!r}")
    a = float(_require_finite(tp_position, "tp_position"))
    xs = np.sort(np.atleast_1d(_require_finite(xs, "the points")))
    m, e, hbar = problem.context.mass, problem.energy, problem.context.hbar
    mu = problem.dv(a)
    if mu == 0.0:
        raise LinearizationError("V'(a) = 0: no linear turning point here")
    v_a = problem.v(a)
    r = exclusion_radius(problem, a)
    shift = (e - v_a) / (abs(mu) * r)
    # Below 2e-14 at the turning points found here and at closed-form ones.
    if not abs(shift) <= 1e-8:
        raise DomainError(
            f"tp_position = {a:g} is not a turning point: E - V there is {e - v_a:g}, "
            f"which shifts z by {shift:.3g}"
        )
    floor = 0.1 * abs(mu) * r
    v = problem.v(xs)
    remainder = np.abs(v - v_a - mu * (xs - a))
    bound = 0.1 * np.abs(e - v) + floor
    bad = np.flatnonzero(remainder > bound)
    if len(bad):
        i = bad[0]
        raise LinearizationError(
            f"x = {xs[i]:g} outside the linearization radius: |remainder| = "
            f"{remainder[i]:g} > {bound[i]:g}"
        )
    scale = np.cbrt(2.0 * m * mu / hbar**2)
    zs = scale * (xs - a)
    vals = np.array(
        [getattr(airy(z), solution) for z in zs], dtype=complex
    )
    tags = _region_tags(problem, xs, find_turning_points(problem), v)
    return WavefunctionTable(xs=xs, psi=vals, region_tags=tags)
