"""Command-line front end: config parsing, method dispatch, table output.

Configs are flat key = value text with section headers (full grammar in the
README); any file value can be overridden by a command-line flag.  Output is
deterministic: fixed 17-significant-digit formatting, '.' decimal separator,
LF line endings, rows ordered by energy.

Exit codes: 0 success, 2 config error, 3 regime error, 4 numerical failure.
Every error exit prints a one-line machine-parsable ``CODE: message`` prefix
to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import math
import re
import sys

import numpy as np

from . import connection, exact_oracle, reflection, special_fn, verify, wkb_core
from ._format import table_text
from .errors import ConfigError, SemiclassicError
from .potential import (
    EckartBarrier,
    GaussianBump,
    HarmonicWell,
    LinearRamp,
    ParabolicBarrier,
    PhysicalContext,
    ScatteringProblem,
    SquareBarrier,
    TabulatedPotential,
)

__all__ = ["main"]

TRANSMISSION_METHODS = ("wkb", "wkb-corrected", "connection", "exact")
REFLECTION_METHODS = ("born1", "once-reflected")
ALL_METHODS = TRANSMISSION_METHODS + REFLECTION_METHODS

_FORMS = {
    "square": SquareBarrier,
    "gaussian": GaussianBump,
    "eckart": EckartBarrier,
    "harmonic": HarmonicWell,
    "linear": LinearRamp,
    "parabolic": ParabolicBarrier,
}
#: One float flag per model field, in order of first appearance.
_SHAPE_FLAGS = tuple(
    dict.fromkeys(f.name for cls in _FORMS.values() for f in dataclasses.fields(cls))
)


# --------------------------------------------------------------------------
# config file + flag merging


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


#: Default of a setting that must be given.
_REQUIRED = object()

_KIND_NAMES = {float: "a number", int: "an integer"}


def _setting(sections: dict, section: str, key: str, flag=None, default=_REQUIRED, kind=float):
    """The flag if given, else ``[section] key`` read as ``kind``, else the default."""
    if flag is not None:
        return flag
    raw = sections.get(section, {}).get(key)
    if raw is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field [{section}] {key}")
        return default
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(
            f"field [{section}] {key}: {raw!r} is not {_KIND_NAMES[kind]}"
        ) from exc


def _build_potential(sections: dict, args):
    form = _setting(sections, "potential", "form", args.form, kind=str).strip().lower()
    if form == "tabulated":
        path = _setting(sections, "potential", "file", args.table_file, kind=str)
        try:
            data = np.loadtxt(path)
        except Exception as exc:
            raise ConfigError(f"cannot load tabulated potential {path}: {exc}") from exc
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigError(
                f"tabulated potential file {path} must have two columns (x V)"
            )
        return TabulatedPotential(data[:, 0], data[:, 1])
    if form not in _FORMS:
        raise ConfigError(
            f"unknown potential form {form!r}; expected one of "
            f"{sorted(_FORMS) + ['tabulated']}"
        )
    cls = _FORMS[form]
    return cls(**{
        f.name: _setting(
            sections, "potential", f.name, getattr(args, f.name),
            _REQUIRED if f.default is dataclasses.MISSING else f.default,
        )
        for f in dataclasses.fields(cls)
    })


def _build_problem(sections: dict, args, need_energy: bool = True):
    try:
        context = PhysicalContext(
            mass=_setting(sections, "context", "mass", args.mass, 1.0),
            hbar=_setting(sections, "context", "hbar", args.hbar, 1.0),
        )
        potential = _build_potential(sections, args)
        energy = _setting(
            sections, "problem", "energy", args.energy, _REQUIRED if need_energy else 0.0
        )
        x_min = _setting(sections, "problem", "x_min", args.x_min, -10.0)
        x_max = _setting(sections, "problem", "x_max", args.x_max, 10.0)
        return ScatteringProblem(
            potential=potential, energy=energy, domain=(x_min, x_max), context=context
        )
    except ConfigError:
        raise
    except SemiclassicError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc


def _build_oracle(sections: dict, args) -> exact_oracle.OracleConfig:
    grid = _setting(sections, "oracle", "grid_points", args.grid_points, 20001, int)
    try:
        return exact_oracle.OracleConfig(grid_points=grid)
    except SemiclassicError as exc:
        raise ConfigError(f"invalid oracle config: {exc}") from exc


def _build_scan(sections: dict, args):
    e_min, e_max, steps = (
        _setting(sections, "scan", key, getattr(args, key), None, kind)
        for key, kind in (("e_min", float), ("e_max", float), ("steps", int))
    )
    if e_min is None or e_max is None or steps is None:
        raise ConfigError("scan needs e_min, e_max and steps ([scan] or flags)")
    if steps < 2:
        raise ConfigError(f"scan steps must be >= 2, got {steps}")
    if not -math.inf < e_min < e_max < math.inf:
        raise ConfigError(f"scan needs finite e_min < e_max, got [{e_min}, {e_max}]")
    return e_min, e_max, steps


def _output_options(sections: dict, args):
    path = _setting(sections, "output", "path", args.output, None, str)
    fmt = _setting(sections, "output", "format", args.format, "csv", str)
    if fmt not in ("csv", "structured-text"):
        raise ConfigError(f"unknown output format {fmt!r}")
    return path, fmt


# --------------------------------------------------------------------------
# method dispatch


def _table(args, sections: dict):
    """The (columns, rows) that one table command prints, built from its flags
    and config sections; bad inputs are reported in the order read here."""
    command = args.command
    if command == "airy":
        try:
            rows = [(z, *dataclasses.astuple(special_fn.airy(z))) for z in args.z]
        except SemiclassicError as exc:
            raise ConfigError(f"invalid --z: {exc}") from exc
        return ["z", "ai", "bi", "ai_prime", "bi_prime"], rows

    oracle = _build_oracle(sections, args)
    problem = _build_problem(
        sections, args, need_energy=command in ("transmission", "wavefunction")
    )
    if command == "bound-states":
        if args.n_max < 0:
            raise ConfigError(f"--n-max must be >= 0, got {args.n_max}")
        if args.method == "exact":
            levels = exact_oracle.solve_bound_states_exact(problem, args.n_max, oracle)
        else:
            levels = wkb_core.quantize_levels(problem, args.n_max)
        return ["n", "E", "method"], [(str(n), e, args.method) for n, e in enumerate(levels)]

    if command == "wavefunction":
        amplitude = args.outgoing_amplitude
        if not math.isfinite(amplitude):
            raise ConfigError(f"--outgoing-amplitude must be finite, got {amplitude}")
        if args.method == "exact":
            table = exact_oracle.wavefunction_exact(problem, oracle)
        else:
            table = connection.patched_barrier_solution(problem, outgoing_amplitude=amplitude)
        return table.COLUMNS, table.rows()

    # A transmission is the scan of one energy.
    energies = np.linspace(*_build_scan(sections, args)) if command == "scan" else [problem.energy]
    method = args.method
    if method in REFLECTION_METHODS:
        amplitudes = (
            reflection.once_reflected_coefficients if method == "once-reflected"
            else reflection.born_amplitudes
        )(problem, energies)
        rows = [
            (float(e), amp.real, amp.imag, abs(amp) ** 2, method)
            for e, amp in zip(energies, amplitudes.tolist())
        ]
        return ["E", "re_R", "im_R", "R_squared", "method"], rows

    if method == "exact":
        reports = exact_oracle.scan_scattering_exact(problem, energies, oracle)
    else:
        # Every sigma* from one batched turning-point solve and one opacity sum.
        kind = wkb_core.Method(method)
        reports = [
            wkb_core._opacity_report(float(s), kind) for s in wkb_core.opacities(problem, energies)
        ]
    rows = [
        (float(e), r.transmission, r.reflection, r.sigma_star, method)
        for e, r in zip(energies, reports)
    ]
    return ["E", "T", "R", "sigma_star", "method"], rows


def _write(path, payload: str) -> None:
    if path:
        try:
            with open(path, "w", newline="\n") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
    else:
        sys.stdout.write(payload)


# --------------------------------------------------------------------------
# argument parsing


def _add_problem_flags(sub) -> None:
    sub.add_argument("--config", help="config file (flat key = value sections)")
    sub.add_argument("--mass", type=float, default=None)
    sub.add_argument("--hbar", type=float, default=None)
    sub.add_argument(
        "--form", choices=sorted(_FORMS) + ["tabulated"], default=None, help="potential model"
    )
    for name in _SHAPE_FLAGS:
        sub.add_argument(f"--{name}", type=float, default=None)
    sub.add_argument("--table-file", default=None, help="two-column (x V) file")
    sub.add_argument("--energy", type=float, default=None)
    sub.add_argument("--x-min", type=float, default=None)
    sub.add_argument("--x-max", type=float, default=None)
    sub.add_argument("--grid-points", type=int, default=None)
    sub.add_argument("--output", default=None)
    sub.add_argument(
        "--format", choices=["csv", "structured-text"], default=None
    )


#: A negative number in any float notation, so that argparse takes '-3e-05'
#: and '-inf' for a value, as it does '-0.00003', and not for an option.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf(inity)?|nan))$")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``E_CONFIG`` line, not as usage text."""

    def error(self, message):
        raise ConfigError(message)


@functools.lru_cache(maxsize=None)
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="semiclassic",
        description="1-D barrier scattering: WKB methods against an exact oracle",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("transmission", help="T and R at a single energy")
    _add_problem_flags(t)
    t.add_argument("--method", choices=ALL_METHODS, default="wkb-corrected")

    s = subs.add_parser("scan", help="T and R over an energy scan")
    _add_problem_flags(s)
    s.add_argument("--method", choices=ALL_METHODS, default="wkb-corrected")
    s.add_argument("--e-min", type=float, default=None)
    s.add_argument("--e-max", type=float, default=None)
    s.add_argument("--steps", type=int, default=None)

    b = subs.add_parser("bound-states", help="well levels E_0..E_n")
    _add_problem_flags(b)
    b.add_argument("--method", choices=["wkb", "exact"], default="wkb")
    b.add_argument("--n-max", type=int, default=3)

    w = subs.add_parser("wavefunction", help="sampled wavefunction CSV")
    _add_problem_flags(w)
    w.add_argument("--method", choices=["exact", "connection"], default="exact")
    w.add_argument("--outgoing-amplitude", type=float, default=1.0)

    a = subs.add_parser("airy", help="Airy function values")
    a.add_argument("--z", type=float, action="append", required=True)
    a.add_argument("--output", default=None)
    a.add_argument("--format", choices=["csv", "structured-text"], default=None)

    v = subs.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--output", default=None, help="write the results CSV here")

    for each in (parser, *subs.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        if args.command == "verify":
            results = verify.run_all()
            results.append(verify.criterion_9_determinism(results))
            sys.stdout.write(verify.format_table(results) + "\n")
            if args.output:
                _write(args.output, verify.emit_csv(results))
            return 0 if all(r.passed for r in results) else 4
        sections = _load_config_file(args.config) if getattr(args, "config", None) else {}
        path, fmt = _output_options(sections, args)
        _write(path, table_text(*_table(args, sections), fmt))
        return 0
    except SemiclassicError as exc:
        sys.stderr.write(f"{exc.code}: {exc}\n")
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostics
        sys.stderr.write(f"E_INTERNAL: {exc.__class__.__name__}: {exc}\n")
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
