"""Command-line front end: config parsing, method dispatch, CSV emission.

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
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import connection, exact_oracle, reflection, special_fn, verify, wkb_core
from ._format import format_float
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

__all__ = ["RunConfig", "run", "main"]

TRANSMISSION_METHODS = ("wkb", "wkb-corrected", "connection", "exact")
REFLECTION_METHODS = ("born1", "once-reflected")
ALL_METHODS = TRANSMISSION_METHODS + REFLECTION_METHODS

_FORM_FIELDS = {
    "square": (SquareBarrier, ("height", "width", "center")),
    "gaussian": (GaussianBump, ("amplitude", "width", "center")),
    "eckart": (EckartBarrier, ("height", "width", "center")),
    "harmonic": (HarmonicWell, ("stiffness",)),
    "linear": (LinearRamp, ("offset", "slope")),
    "parabolic": (ParabolicBarrier, ("height", "curvature", "center")),
}
_OPTIONAL_FIELDS = {"center": 0.0}


@dataclass
class RunConfig:
    """Everything one invocation needs, after config/flag merging."""

    command: str
    problem: ScatteringProblem | None = None
    method: str = "wkb-corrected"
    scan: tuple | None = None  # (e_min, e_max, steps)
    output_path: str | None = None
    output_format: str = "csv"
    oracle: exact_oracle.OracleConfig = field(
        default_factory=exact_oracle.OracleConfig
    )
    n_max: int = 3
    outgoing_amplitude: float = 1.0
    z_values: tuple = ()


# --------------------------------------------------------------------------
# config file + flag merging


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _get_float(sections: dict, section: str, key: str, override, default=None):
    if override is not None:
        return float(override)
    raw = sections.get(section, {}).get(key)
    if raw is None:
        if default is not None:
            return default
        raise ConfigError(f"missing required field [{section}] {key}")
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(
            f"field [{section}] {key}: {raw!r} is not a number"
        ) from exc


def _build_potential(sections: dict, args):
    form = args.form or sections.get("potential", {}).get("form")
    if form is None:
        raise ConfigError("missing required field [potential] form")
    form = form.strip().lower()
    if form == "tabulated":
        path = args.table_file or sections.get("potential", {}).get("file")
        if path is None:
            raise ConfigError("tabulated potential needs [potential] file")
        try:
            data = np.loadtxt(path)
        except Exception as exc:
            raise ConfigError(f"cannot load tabulated potential {path}: {exc}") from exc
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigError(
                f"tabulated potential file {path} must have two columns (x V)"
            )
        return TabulatedPotential(data[:, 0], data[:, 1])
    if form not in _FORM_FIELDS:
        raise ConfigError(
            f"unknown potential form {form!r}; expected one of "
            f"{sorted(_FORM_FIELDS) + ['tabulated']}"
        )
    cls, fields = _FORM_FIELDS[form]
    kwargs = {}
    for name in fields:
        override = getattr(args, name, None)
        default = _OPTIONAL_FIELDS.get(name)
        kwargs[name] = _get_float(sections, "potential", name, override, default)
    return cls(**kwargs)


def _build_problem(sections: dict, args, need_energy: bool = True):
    context = PhysicalContext(
        mass=_get_float(sections, "context", "mass", args.mass, 1.0),
        hbar=_get_float(sections, "context", "hbar", args.hbar, 1.0),
    )
    potential = _build_potential(sections, args)
    if need_energy:
        energy = _get_float(sections, "problem", "energy", args.energy)
    else:
        energy = _get_float(sections, "problem", "energy", args.energy, 0.0)
    x_min = _get_float(sections, "problem", "x_min", args.x_min, -10.0)
    x_max = _get_float(sections, "problem", "x_max", args.x_max, 10.0)
    try:
        return ScatteringProblem(
            potential=potential, energy=energy, domain=(x_min, x_max), context=context
        )
    except SemiclassicError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc


def _build_oracle(sections: dict, args) -> exact_oracle.OracleConfig:
    grid = args.grid_points
    if grid is None:
        raw = sections.get("oracle", {}).get("grid_points")
        grid = int(raw) if raw is not None else 20001
    v_eps_raw = sections.get("oracle", {}).get("v_eps")
    v_eps = float(v_eps_raw) if v_eps_raw is not None else 1e-10
    margin_raw = sections.get("oracle", {}).get("match_margin")
    margin = float(margin_raw) if margin_raw is not None else None
    try:
        return exact_oracle.OracleConfig(
            grid_points=int(grid), match_margin=margin, v_eps=v_eps
        )
    except SemiclassicError as exc:
        raise ConfigError(f"invalid oracle config: {exc}") from exc


def _build_scan(sections: dict, args):
    e_min = args.e_min
    e_max = args.e_max
    steps = args.steps
    scan_section = sections.get("scan", {})
    if e_min is None and "e_min" in scan_section:
        e_min = float(scan_section["e_min"])
    if e_max is None and "e_max" in scan_section:
        e_max = float(scan_section["e_max"])
    if steps is None and "steps" in scan_section:
        steps = int(scan_section["steps"])
    if e_min is None or e_max is None or steps is None:
        raise ConfigError("scan needs e_min, e_max and steps ([scan] or flags)")
    e_min, e_max, steps = float(e_min), float(e_max), int(steps)
    if steps < 2:
        raise ConfigError(f"scan steps must be >= 2, got {steps}")
    if not e_min < e_max:
        raise ConfigError(f"scan needs e_min < e_max, got [{e_min}, {e_max}]")
    return e_min, e_max, steps


def _output_options(sections: dict, args):
    path = args.output
    if path is None:
        path = sections.get("output", {}).get("path")
    fmt = args.format
    if fmt is None:
        fmt = sections.get("output", {}).get("format", "csv")
    if fmt not in ("csv", "structured-text"):
        raise ConfigError(f"unknown output format {fmt!r}")
    return path, fmt


# --------------------------------------------------------------------------
# method dispatch


def _transmission_row(problem: ScatteringProblem, method: str, oracle) -> dict:
    if method == "wkb":
        report = wkb_core.transmission_leading(problem, corrected=False)
    elif method == "wkb-corrected":
        report = wkb_core.transmission_leading(problem, corrected=True)
    elif method == "connection":
        report = connection.transmission_from_currents(problem)
    elif method == "exact":
        report = exact_oracle.solve_scattering_exact(problem, oracle)
    else:  # pragma: no cover - guarded by argparse choices
        raise ConfigError(f"unknown method {method!r}")
    return {
        "E": problem.energy,
        "T": report.transmission,
        "R": report.reflection,
        "sigma_star": report.sigma_star,
        "method": method,
    }


def _reflection_row(problem: ScatteringProblem, method: str) -> dict:
    if method == "once-reflected":
        amp = reflection.once_reflected_coefficient(problem)
    elif method == "born1":
        amp = reflection.born_first_order(problem)
    else:  # pragma: no cover
        raise ConfigError(f"unknown method {method!r}")
    return {
        "E": problem.energy,
        "re_R": amp.real,
        "im_R": amp.imag,
        "R_squared": abs(amp) ** 2,
        "method": method,
    }


def _compute_rows(config: RunConfig, energies) -> list:
    def one(e: float) -> dict:
        problem = dataclasses.replace(config.problem, energy=float(e))
        if config.method in REFLECTION_METHODS:
            return _reflection_row(problem, config.method)
        return _transmission_row(problem, config.method, config.oracle)

    return [one(e) for e in energies]


def _rows_to_csv(rows: list, columns: list) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            cells.append(value if isinstance(value, str) else format_float(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _rows_to_text(rows: list, columns: list) -> str:
    blocks = []
    for row in rows:
        lines = []
        for col in columns:
            value = row[col]
            text = value if isinstance(value, str) else format_float(value)
            lines.append(f"{col} = {text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _emit(config: RunConfig, rows: list, columns: list) -> None:
    if config.output_format == "csv":
        payload = _rows_to_csv(rows, columns)
    else:
        payload = _rows_to_text(rows, columns)
    if config.output_path:
        with open(config.output_path, "w", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    if config.command == "transmission":
        rows = _compute_rows(config, [config.problem.energy])
        cols = (
            ["E", "re_R", "im_R", "R_squared", "method"]
            if config.method in REFLECTION_METHODS
            else ["E", "T", "R", "sigma_star", "method"]
        )
        _emit(config, rows, cols)
        return 0

    if config.command == "scan":
        e_min, e_max, steps = config.scan
        energies = np.linspace(e_min, e_max, steps)
        rows = _compute_rows(config, energies)
        cols = (
            ["E", "re_R", "im_R", "R_squared", "method"]
            if config.method in REFLECTION_METHODS
            else ["E", "T", "R", "sigma_star", "method"]
        )
        _emit(config, rows, cols)
        return 0

    if config.command == "bound-states":
        if config.method == "exact":
            levels = exact_oracle.solve_bound_states_exact(
                config.problem, config.n_max, config.oracle
            )
        else:
            levels = wkb_core.quantize_levels(config.problem, config.n_max)
        rows = [
            {"n": format_float(float(n)), "E": e, "method": config.method}
            for n, e in enumerate(levels)
        ]
        _emit(config, rows, ["n", "E", "method"])
        return 0

    if config.command == "wavefunction":
        if config.method == "exact":
            table = exact_oracle.wavefunction_exact(config.problem, config.oracle)
        else:
            table = connection.patched_barrier_solution(
                config.problem, outgoing_amplitude=config.outgoing_amplitude
            )
        if config.output_path:
            table.to_csv(config.output_path)
        else:
            sys.stdout.write(table.csv_string())
        return 0

    if config.command == "airy":
        rows = []
        for z in config.z_values:
            pair = special_fn.airy(z)
            rows.append(
                {
                    "z": z,
                    "ai": pair.ai,
                    "bi": pair.bi,
                    "ai_prime": pair.ai_prime,
                    "bi_prime": pair.bi_prime,
                }
            )
        _emit(config, rows, ["z", "ai", "bi", "ai_prime", "bi_prime"])
        return 0

    if config.command == "verify":
        results = verify.run_all()
        results.append(verify.criterion_9_determinism(results))
        sys.stdout.write(verify.format_table(results) + "\n")
        if config.output_path:
            with open(config.output_path, "w", newline="\n") as fh:
                fh.write(verify.emit_csv(results))
        return 0 if all(r.passed for r in results) else 4

    raise ConfigError(f"unknown command {config.command!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# argument parsing


def _add_problem_flags(sub) -> None:
    sub.add_argument("--config", help="config file (flat key = value sections)")
    sub.add_argument("--mass", type=float, default=None)
    sub.add_argument("--hbar", type=float, default=None)
    sub.add_argument(
        "--form",
        "--potential",
        dest="form",
        choices=sorted(_FORM_FIELDS) + ["tabulated"],
        default=None,
        help="potential model",
    )
    for name in ("height", "width", "center", "amplitude", "stiffness",
                 "offset", "slope", "curvature"):
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
#: for a value, as it does '-0.00003', and not for an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.lru_cache(maxsize=None)
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
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


def _config_from_args(args) -> RunConfig:
    command = args.command
    if command == "airy":
        return RunConfig(
            command=command,
            output_path=args.output,
            output_format=args.format or "csv",
            z_values=tuple(args.z),
        )
    if command == "verify":
        return RunConfig(command=command, output_path=args.output)

    sections = _load_config_file(args.config) if args.config else {}
    output_path, output_format = _output_options(sections, args)
    oracle = _build_oracle(sections, args)

    need_energy = command in ("transmission", "wavefunction")
    problem = _build_problem(sections, args, need_energy=need_energy)

    config = RunConfig(
        command=command,
        problem=problem,
        method=getattr(args, "method", "wkb-corrected"),
        output_path=output_path,
        output_format=output_format,
        oracle=oracle,
    )
    if command == "scan":
        config.scan = _build_scan(sections, args)
    if command == "bound-states":
        if args.n_max < 0:
            raise ConfigError(f"--n-max must be >= 0, got {args.n_max}")
        config.n_max = args.n_max
    if command == "wavefunction":
        config.outgoing_amplitude = args.outgoing_amplitude
    return config


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except SemiclassicError as exc:
        sys.stderr.write(f"{exc.code}: {exc}\n")
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostics
        sys.stderr.write(f"E_INTERNAL: {exc.__class__.__name__}: {exc}\n")
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
