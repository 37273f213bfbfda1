"""Per-layer call counts and self times, recorded from outside the package.

The tracer swaps each traced public function for a wrapper in every
``semiclassic`` module namespace that holds it (so ``connection.airy`` is
traced as well as ``special_fn.airy``), and puts it back on exit.  A span's
self time is its duration minus the durations of the traced spans nested
directly inside it and minus the host-speed probes that ran inside it;
``metrics`` reports it in reference seconds, at the mean host speed sampled
while the tracer was on (see ``run.HostSpeed``).  ``ScatteringProblem.v`` is
counted (calls and points evaluated) but not timed: it runs inside
quadrature integrands, where a span per call would cost more than the work it
measures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

#: (module, function, layer name used in the metrics)
SPANS = [
    ("cli", "main", "cli"),
    ("potential", "find_turning_points", "potential.find_turning_points"),
    ("wkb_core", "barrier_integral", "wkb_core.barrier_integral"),
    ("wkb_core", "action_integral", "wkb_core.action_integral"),
    ("wkb_core", "quantize", "wkb_core.quantize"),
    ("connection", "patched_barrier_solution", "connection.patched_barrier_solution"),
    ("connection", "airy_local_solution", "connection.airy_local_solution"),
    ("connection", "classify_region", "connection.classify_region"),
    ("special_fn", "airy", "special_fn.airy"),
    ("reflection", "once_reflected_coefficient", "reflection.once_reflected_coefficient"),
    ("reflection", "matrix_element", "reflection.matrix_element"),
    ("exact_oracle", "solve_scattering_exact", "exact_oracle.solve_scattering_exact"),
    ("exact_oracle", "solve_bound_states_exact", "exact_oracle.solve_bound_states_exact"),
    ("exact_oracle", "wavefunction_exact", "exact_oracle.wavefunction_exact"),
    # Not reported, but spanned so their bodies do not count as CLI self time.
    ("wkb_core", "transmission_leading", "wkb_core.transmission_leading"),
    ("wkb_core", "quantize_levels", "wkb_core.quantize_levels"),
    ("connection", "transmission_from_currents", "connection.transmission_from_currents"),
    ("reflection", "born_first_order", "reflection.born_first_order"),
]
#: Modules whose scipy.integrate.quad calls are traced as "<module>.quad".
QUAD_CALLERS = ("wkb_core", "reflection")


class _QuadNamespace:
    """Stands in for ``scipy.integrate`` inside one module, with quad wrapped."""

    def __init__(self, integrate, quad):
        self._integrate = integrate
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._integrate, name)


class Tracer:
    """Per-layer counts and self times; enter and exit it as often as needed."""

    def __init__(self, package, host):
        self.package = package
        self.host = host  # a run.HostSpeed
        self.probes = 0  # host-speed probes taken while tracing
        self.speed_sum = 0.0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.v_calls = 0
        self.v_points = 0
        self.oracle_points = 0
        self._stack = []  # per open span: time covered by its traced children
        self._undo = []

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _span(self, name, fn):
        stack, calls, self_s, host = self._stack, self.calls, self.self_s, self.host

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            p0 = host.probe_s
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0 - (host.probe_s - p0)
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        self._mark = self.host.mark()
        modules = self._modules()
        pkg = self.package.__name__
        for mod_name, fn_name, layer in SPANS:
            orig = getattr(sys.modules[f"{pkg}.{mod_name}"], fn_name)
            fn = orig
            if layer == "exact_oracle.solve_scattering_exact":
                fn = self._counting_oracle(orig)
            wrapper = self._span(layer, fn)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    self._replace(mod, fn_name, wrapper)
        for mod_name in QUAD_CALLERS:
            mod = sys.modules[f"{pkg}.{mod_name}"]
            integrate = sys.modules["scipy.integrate"]
            quad = self._span(f"{mod_name}.quad", integrate.quad)
            if getattr(mod, "integrate", None) is integrate:
                self._replace(mod, "integrate", _QuadNamespace(integrate, quad))
            if getattr(mod, "quad", None) is integrate.quad:
                self._replace(mod, "quad", quad)
        problem_cls = sys.modules[f"{pkg}.potential"].ScatteringProblem
        self._replace(problem_cls, "v", self._counting_v(problem_cls.v))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        count, speed_sum, _ = (b - a for a, b in zip(self._mark, self.host.mark()))
        self.probes += count
        self.speed_sum += speed_sum
        return False

    def _counting_v(self, orig):
        def v(problem, x):
            self.v_calls += 1
            self.v_points += int(np.size(x))
            return orig(problem, x)

        return v

    def _counting_oracle(self, orig):
        default = sys.modules[f"{self.package.__name__}.exact_oracle"].OracleConfig()

        def solve(problem, config=None):
            self.oracle_points += (config or default).grid_points
            return orig(problem, config)

        return solve

    def metrics(self):
        """Per-layer metrics, by the names BENCHMARK.json lists."""
        out = {}
        speed = self.speed_sum / self.probes if self.probes else 1.0
        ref_s = defaultdict(float, {name: t * speed for name, t in self.self_s.items()})

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        put("cli.self_s", ref_s["cli"], "s")
        put("potential.find_turning_points.calls", self.calls["potential.find_turning_points"], "count")
        put("potential.find_turning_points.self_s", ref_s["potential.find_turning_points"], "s")
        put("potential.v.calls", self.v_calls, "count")
        put("potential.v.points", self.v_points, "count")
        for layer in ("wkb_core.barrier_integral", "wkb_core.action_integral", "wkb_core.quantize",
                      "wkb_core.quad", "connection.classify_region", "special_fn.airy",
                      "reflection.quad", "exact_oracle.solve_scattering_exact"):
            put(f"{layer}.calls", self.calls[layer], "count")
            put(f"{layer}.self_s", ref_s[layer], "s")
        for layer in ("connection.patched_barrier_solution", "connection.airy_local_solution",
                      "reflection.once_reflected_coefficient", "reflection.matrix_element",
                      "exact_oracle.solve_bound_states_exact", "exact_oracle.wavefunction_exact"):
            put(f"{layer}.self_s", ref_s[layer], "s")
        oracle_s = ref_s["exact_oracle.solve_scattering_exact"]
        put("exact_oracle.numerov_points_per_s",
            self.oracle_points / oracle_s if oracle_s > 0 else 0.0, "1/s")
        return out
