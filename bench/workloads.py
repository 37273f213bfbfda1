"""Seeded request mixes for the three workloads.

A workload is a generator ``(rng, env) -> passes``: each pass is one round of
every kind of request a user makes, drawn fresh from the seed (see
``Draws``).  Scans and spectra go through ``semiclassic.cli.main`` in-process
and are read back from the CSV they write; wavefunctions are library calls,
since the CLI has no Airy bridge.  Every request carries its own checker from
``checks``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck

KINDS = ("below", "above", "level", "wave")


class Failed(Exception):
    """The program returned an error instead of an answer."""


@dataclass
class Request:
    kind: str  # one of KINDS
    label: str
    run: Callable[[], object]  # the timed call
    collect: Callable[[object], object]  # untimed read-back; raises Failed
    check: Callable[[object], list]
    work: Callable[[object], int]  # rows, levels or points delivered
    known_failure: bool = False


@dataclass
class Env:
    """What building a pass needs: the package, its CLI module, a CSV path."""

    sc: object
    cli: object
    csv_path: str


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            if key != "method":
                row[key] = float(value) if value != "" else None
    return rows


def cli_request(env, kind, label, argv, check, known_failure=False):
    argv = argv + [f"--output={env.csv_path}"]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = env.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
        return rc, err.getvalue()

    def collect(raw):
        rc, err = raw
        if rc != 0:
            raise Failed(f"exit {rc}: {err.strip()}")
        return _read_csv(env.csv_path)

    return Request(kind, label, run, collect, check, len, known_failure)


def call_request(kind, label, fn, check, work):
    def run():
        try:
            return fn(), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            return None, exc

    def collect(raw):
        out, exc = raw
        if exc is not None:
            raise Failed(f"{type(exc).__name__}: {exc}")
        return out

    return Request(kind, label, run, collect, check, work)


# --------------------------------------------------------------------------
# problems


def flags(spec, **options):
    """CLI options for a problem spec and any further options, as --name=value.

    The joined form matters: argparse reads a separate negative value in
    exponent notation, such as the ``-3e-05`` that ``repr`` writes, as an
    option name, and the CLI then exits 2.
    """
    return [f"--{key.replace('_', '-')}={value!r}" if isinstance(value, float)
            else f"--{key.replace('_', '-')}={value}"
            for key, value in {**spec, **options}.items()]


def problem(env, spec, energy):
    sc = env.sc
    shape = {k: v for k, v in spec.items() if k not in ("form", "mass", "hbar", "x_min", "x_max")}
    cls = {
        "eckart": sc.EckartBarrier,
        "gaussian": sc.GaussianBump,
        "square": sc.SquareBarrier,
        "parabolic": sc.ParabolicBarrier,
        "harmonic": sc.HarmonicWell,
    }[spec["form"]]
    return sc.ScatteringProblem(
        potential=cls(**shape),
        energy=energy,
        domain=(spec["x_min"], spec["x_max"]),
        context=sc.PhysicalContext(mass=spec["mass"], hbar=spec["hbar"]),
    )


#: Step of each coordinate of a Draws sequence: sqrt of the first primes, mod 1.
_STEPS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]) % 1.0


class Draws:
    """Seeded quasi-random draws, spread evenly over the passes of a run.

    Each label (one kind of request on one family of problems) has its own
    sequence: its i-th draw has coordinates frac(o_j + i sqrt(p_j)), with p_j
    the j-th prime and offsets o_j taken from the seed on first use (a shifted
    Richtmyer sequence).  Every draw is new, so a memo keyed on exact inputs
    cannot serve a later pass.  Unlike independent uniform draws, the points
    of any run cover each range evenly, so what a run costs depends little on
    the seed and the rates stay steady from run to run.
    """

    def __init__(self, rng):
        self.rng = rng
        self.state = {}  # label -> [offsets, draws taken]

    def __call__(self, label, *ranges):
        state = self.state.setdefault(label, [self.rng.random(len(ranges)), 0])
        offsets, i = state
        state[1] += 1
        u = (offsets + i * _STEPS[: len(ranges)]) % 1.0
        return [lo + (hi - lo) * float(x) for (lo, hi), x in zip(ranges, u)]


# Fixed problems of the `semiclassical` and `exact` workloads: m/hbar^2 = 4
# puts the smooth barriers well into the semiclassical regime (Eckart
# 8 m V0 d^2 / hbar^2 = 32) while the 20001-point oracle grid still resolves
# every wavelength (h k < 0.01).
M, HBAR = 4.0, 1.0
ECKART = dict(form="eckart", height=1.0, width=1.0, center=0.0, mass=M, hbar=HBAR, x_min=-14.0, x_max=14.0)
GAUSS = dict(form="gaussian", amplitude=1.0, width=1.0, center=0.0, mass=M, hbar=HBAR, x_min=-8.0, x_max=8.0)
SQUARE = dict(form="square", height=1.0, width=2.0, center=0.0, mass=M, hbar=HBAR, x_min=-8.0, x_max=8.0)
PARABOLIC = dict(form="parabolic", height=1.0, curvature=1.0, center=0.0, mass=M, hbar=HBAR, x_min=-3.0, x_max=3.0)
WEAK = dict(form="gaussian", amplitude=0.002, width=0.5, center=0.0, mass=M, hbar=HBAR, x_min=-8.0, x_max=8.0)
# Airy bridges of +/- one Airy length r stay inside the linearization radius
# only when r << |V'/V''|; for Eckart at E/V0 in [0.4, 0.7] that needs
# m V0 d^2 / hbar^2 >= ~30, so wave requests use a heavier particle.
ECKART_WAVE = dict(ECKART, mass=64.0)


def _harmonic(stiffness, half_width, mass=M, hbar=HBAR):
    return dict(form="harmonic", stiffness=stiffness, mass=mass, hbar=hbar,
                x_min=-half_width, x_max=half_width)


def _opacity_form(spec):
    m, hb = spec["mass"], spec["hbar"]
    if spec["form"] == "eckart":
        return lambda e: ck.sigma_eckart(spec["height"], spec["width"], e, m, hb)
    if spec["form"] == "parabolic":
        return lambda e: ck.sigma_parabolic(spec["height"], spec["curvature"], e, m, hb)
    if spec["form"] == "square":
        return lambda e: ck.sigma_square(spec["height"], spec["width"], e, m, hb)
    return None  # Gaussian: no closed form, only monotonicity


def _below_check(spec, method, reference=None):
    closed = _opacity_form(spec)

    def check(rows):
        out = ck.check_transmission_formula(rows, corrected=method != "wkb")
        out += ck.check_opacity_rows(rows, closed) if closed else ck.check_opacity_decreasing(rows)
        if reference is not None and "rows" in reference:
            out += ck.check_same_transmission(rows, reference["rows"])
        return out

    return check


def _keep(holder, check):
    """Wrap a check so the rows it passed are kept for a later cross-check."""

    def wrapped(rows):
        out = check(rows)
        if not out:
            holder["rows"] = rows
        return out

    return wrapped


def _born_check(spec):
    a, d, m, hb = spec["amplitude"], spec["width"], spec["mass"], spec["hbar"]
    rtol = ck.born_rtol(m, a, d, hb)
    return lambda rows: ck.check_born_rows(
        rows, lambda e: ck.born_r2_gaussian(a, d, e, m, hb), rtol
    )


def _level_check(spec, n_max):
    k, m, hb = spec["stiffness"], spec["mass"], spec["hbar"]
    return lambda rows: ck.check_levels(rows, lambda n: ck.harmonic_level(n, k, m, hb), n_max + 1)


def _exact_form(spec):
    m, hb = spec["mass"], spec["hbar"]
    if spec["form"] == "eckart":
        return (lambda e: ck.t_eckart(spec["height"], spec["width"], e, m, hb)), ck.EXACT_ECKART_RTOL
    if spec["form"] == "square":
        return (lambda e: ck.t_square(spec["height"], spec["width"], e, m, hb)), ck.EXACT_SQUARE_RTOL
    return None, None


def _scan(spec, e_min, e_max, steps, method):
    return ["scan", *flags(spec, e_min=e_min, e_max=e_max, steps=steps, method=method)]


def _exact_check(spec):
    closed, rtol = _exact_form(spec)
    return lambda rows: ck.check_exact_rows(rows, closed, rtol)


def below_scans(env, draw, specs, methods, steps):
    """One scan per method on each spec, from U(0.19,0.21) to U(0.79,0.81) of the top."""
    reqs = []
    for spec in specs:
        h = spec.get("height", spec.get("amplitude"))
        lo, hi = draw(f"below {spec['form']}", (0.19, 0.21), (0.79, 0.81))
        corrected = {}
        for method in methods:
            if method == "exact":
                check = _exact_check(spec)
            else:
                check = _below_check(spec, method, corrected if method == "connection" else None)
            if method == "wkb-corrected":
                check = _keep(corrected, check)
            reqs.append(cli_request(env, "below", f"scan {method} {spec['form']}",
                                    _scan(spec, h * lo, h * hi, steps, method), check))
    return reqs


def above_scans(env, draw, specs, methods, steps, ranges):
    """One scan per method on each spec, over an energy range drawn from ``ranges``."""
    reqs = []
    for spec, (lo, hi) in zip(specs, ranges):
        e_min, e_max = draw(f"above {spec['form']}", lo, hi)
        for method in methods:
            check = _exact_check(spec) if method == "exact" else _born_check(spec)
            reqs.append(cli_request(env, "above", f"scan {method} {spec['form']}",
                                    _scan(spec, e_min, e_max, steps, method), check))
    return reqs


def bound_states(env, spec, method, n_max, **options):
    argv = ["bound-states", *flags(spec, method=method, n_max=n_max, **options)]
    return cli_request(env, "level", f"bound-states {method}", argv, _level_check(spec, n_max))


def eckart_wave(env, spec, energy, n_per_region, bridge_points):
    """Patched wave plus an Airy bridge across each turning-point zone."""
    h, d, c, m, hb = (spec[k] for k in ("height", "width", "center", "mass", "hbar"))
    a, b = ck.eckart_turning_points(h, d, c, energy)
    slopes = [float(ck.eckart_dv(h, d, c, x)) for x in (a, b)]
    radii = [(hb * hb / (2 * m * abs(s))) ** (1 / 3) for s in slopes]
    prob = problem(env, spec, energy)
    connection = env.sc.connection
    bridges = [(a, slopes[0], radii[0], "ai"), (b, slopes[1], radii[1], "bi")]

    def fn():
        out = [connection.patched_barrier_solution(prob, n_per_region=n_per_region)]
        for x_c, _s, r, sol in bridges:
            xs = [x_c - r + 2 * r * i / (bridge_points - 1) for i in range(bridge_points)]
            out.append(connection.airy_local_solution(prob, x_c, xs, solution=sol))
        return out

    def k_of_x(x):
        return (2 * m * (energy - ck.eckart_v(h, d, c, x))) ** 0.5 / hb

    def check(tables):
        out = ck.check_transmitted_flux(tables[0], k_of_x, b)
        for table, (x_c, s, _r, sol) in zip(tables[1:], bridges):
            out += ck.check_airy_bridge(table, x_c, s, m, hb, sol)
        return out

    return call_request("wave", "patched + airy", fn, check, lambda ts: sum(len(t) for t in ts))


def exact_wave(env, spec, energy):
    closed, rtol = _exact_form(spec)
    prob = problem(env, spec, energy)
    x_flat = spec["x_max"] - 0.05 * (spec["x_max"] - spec["x_min"])

    def check(table):
        return ck.check_exact_wave(table, closed(energy), 1.0, 1.0, x_flat, rtol)

    return call_request("wave", f"wavefunction_exact {spec['form']}",
                        lambda: env.sc.wavefunction_exact(prob), check, len)


# --------------------------------------------------------------------------
# workloads


# Draw ranges of the fixed problems.  They are narrow on purpose: every pass
# still gets new inputs, but the cost of a request hardly depends on them, so
# the rates of runs with different seeds agree.
#: Over-barrier scan of WEAK: E from U(0.33,0.35) to U(0.93,0.95).
WEAK_RANGE = ((0.33, 0.35), (0.93, 0.95))
#: Over-barrier scans of ECKART and SQUARE: E from U(1.20,1.22) to U(1.88,1.90).
ABOVE_RANGE = ((1.20, 1.22), (1.88, 1.90))
#: Harmonic stiffness k of the spectra.
STIFFNESS = (0.95, 1.05)


def semiclassical(rng, env):
    draw = Draws(rng)
    while True:
        reqs = below_scans(env, draw, [ECKART, GAUSS, SQUARE, PARABOLIC],
                           ("wkb", "wkb-corrected", "connection"), 12)
        reqs += above_scans(env, draw, [WEAK], ("once-reflected", "born1"), 8, [WEAK_RANGE])
        (k,) = draw("harmonic", STIFFNESS)
        reqs.append(bound_states(env, _harmonic(k, 6.0), "wkb", 1))
        (e,) = draw("wave", (0.53, 0.57))
        reqs.append(eckart_wave(env, ECKART_WAVE, e, 100, 25))
        yield _interleave(reqs)


def exact(rng, env):
    draw = Draws(rng)
    while True:
        reqs = below_scans(env, draw, [ECKART, GAUSS, SQUARE], ("exact",), 12)
        reqs += above_scans(env, draw, [ECKART, SQUARE, WEAK], ("exact",), 8,
                            [ABOVE_RANGE, ABOVE_RANGE, WEAK_RANGE])
        # A 3001-point grid resolves these levels to ~3e-10; the default 20001
        # would make one request take ~12 s and leave too few per run.
        (k,) = draw("harmonic", STIFFNESS)
        reqs.append(bound_states(env, _harmonic(k, 6.0), "exact", 7, grid_points=3001))
        for spec in (ECKART, SQUARE, ECKART, SQUARE, ECKART, SQUARE):
            (e,) = draw(f"wave {spec['form']}", (0.45, 0.55))
            reqs.append(exact_wave(env, spec, spec["height"] * e))
        yield _interleave(reqs)


#: Fixed, seed-independent query that fails today: both turning points of
#: this Eckart barrier fall inside one of find_turning_points' scan panels,
#: so the opacity integral raises NoBarrierError.  The right answer is
#: sigma* = pi (sqrt 2 - sqrt(2E)) ~ 2.2e-8.
NEAR_TOP = dict(form="eckart", height=1.0, width=1.0, center=0.005, mass=1.0, hbar=1.0,
                x_min=-14.0, x_max=14.0)
NEAR_TOP_ENERGY = 1.0 - 1e-8


def _near_top(env):
    spec, e = NEAR_TOP, NEAR_TOP_ENERGY

    def check(rows):
        out = ck.check_transmission_formula(rows, corrected=True)
        return out + ck.check_opacity_rows(rows, _opacity_form(spec), ck.NEAR_TOP_SIGMA_RTOL)

    return cli_request(env, "below", "near-top eckart",
                       ["transmission", *flags(spec, energy=e, method="wkb-corrected")],
                       check, known_failure=True)


#: Range of the shape parameter of each seeded barrier: Eckart width d,
#: parabolic curvature kappa, square width w.
_SHAPE = {"eckart": (0.7, 1.5), "parabolic": (0.5, 2.0), "square": (0.5, 2.0)}


def _barrier(form, height, shape, center, mass, hbar):
    if form == "eckart":
        return dict(form=form, height=height, width=shape, center=center, mass=mass, hbar=hbar,
                    x_min=center - 14 * shape, x_max=center + 14 * shape)
    if form == "parabolic":
        half = 1.5 * math.sqrt(2 * height / shape)
        return dict(form=form, height=height, curvature=shape, center=center, mass=mass,
                    hbar=hbar, x_min=center - half, x_max=center + half)
    return dict(form=form, height=height, width=shape, center=center, mass=mass, hbar=hbar,
                x_min=center - 0.5 * shape - 4.0, x_max=center + 0.5 * shape + 4.0)


def _random_barrier(draw, form):
    """A seeded barrier of ``form`` and an energy at U(0.2, 0.8) of its top."""
    m, hb, h, c, shape, e = draw(form, (2.0, 8.0), (0.5, 1.0), (0.5, 2.0), (-1.0, 1.0),
                                 _SHAPE[form], (0.2, 0.8))
    return _barrier(form, h, shape, c, m, hb), h * e


def _random_wave_barrier(draw):
    """A seeded Eckart barrier with m V0 d^2/hbar^2 in [60, 200], E/V0 in [0.4, 0.7].

    The heavy particle keeps each Airy bridge inside its linearization radius.
    """
    g, hb, h, c, d, e = draw("wave", (60.0, 200.0), (0.5, 1.0), (0.5, 2.0), (-1.0, 1.0),
                             _SHAPE["eckart"], (0.4, 0.7))
    return _barrier("eckart", h, d, c, g * hb * hb / (h * d * d), hb), h * e


def _random_weak_bump(draw, label):
    """Weak Gaussian with k d in [1, 2] and Born correction 4 m A d^2/hbar^2 <= 0.008."""
    m, hb, d, c, kd, eps = draw(label, (1.0, 4.0), (0.5, 1.0), (0.5, 1.5), (-1.0, 1.0),
                                (1.0, 2.0), (0.001, 0.002))
    spec = dict(form="gaussian", amplitude=eps * hb * hb / (m * d * d), width=d, center=c,
                mass=m, hbar=hb, x_min=c - 12 * d, x_max=c + 12 * d)
    return spec, (kd * hb / d) ** 2 / (2 * m)


def single_shot(rng, env):
    draw = Draws(rng)
    while True:
        reqs = []
        for form, method in (("eckart", "wkb-corrected"), ("parabolic", "wkb"), ("square", "connection")):
            for _ in range(6):
                spec, e = _random_barrier(draw, form)
                reqs.append(cli_request(
                    env, "below", f"transmission {method} {form}",
                    ["transmission", *flags(spec, energy=e, method=method)],
                    _below_check(spec, method)))
        for method in ("once-reflected", "born1"):
            for _ in range(4):
                spec, e = _random_weak_bump(draw, method)
                reqs.append(cli_request(
                    env, "above", f"transmission {method} gaussian",
                    ["transmission", *flags(spec, energy=e, method=method)],
                    _born_check(spec)))
        k, m, hb = draw("harmonic", (0.5, 2.0), (1.0, 4.0), (0.5, 1.0))
        e1 = ck.harmonic_level(1, k, m, hb)
        reqs.append(bound_states(env, _harmonic(k, 4 * math.sqrt(2 * e1 / k), m, hb), "wkb", 0))
        spec, e = _random_wave_barrier(draw)
        reqs.append(eckart_wave(env, spec, e, 50, 15))
        reqs.append(_near_top(env))
        yield _interleave(reqs)


def _interleave(reqs):
    """Round-robin over kinds, so every kind is sampled all through a pass."""
    queues = [[r for r in reqs if r.kind == kind] for kind in KINDS]
    out = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


WORKLOADS = {"semiclassical": semiclassical, "exact": exact, "single-shot": single_shot}
