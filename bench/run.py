"""Throughput benchmark for semiclassic: one workload per invocation.

    python3 bench/run.py --workload semiclassical --seed 1 --seconds 30 --trace 0

A single-threaded closed loop with one client: each request is issued after
the previous one returned.  The loop runs whole passes (one round of every
request kind, drawn fresh from the seed) until ``--seconds`` have elapsed,
checks every output, and reports per kind the work completed over the time
spent on it, summed over all passes.  Times are in reference seconds, which
take out the host's drift in speed (see ``HostSpeed``).  ``--trace 1``
instead runs a fixed number of passes, each untraced and then traced with
the same inputs, and reports per-layer call counts and self times plus the
tracing overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
#: Passes per half of a traced run (each traced pass follows its untraced twin).
TRACE_PASSES = 3

#: Wall time between two host-speed probes (see ``HostSpeed``).
SAMPLE_PERIOD_S = 0.01
#: Duration of one probe at the reference speed.
PROBE_REF_S = 1.0e-4

RATE_METRICS = {
    "below": "below_rows_per_s",
    "above": "above_rows_per_s",
    "level": "levels_per_s",
    "wave": "wave_points_per_s",
}


def _import_package():
    """Import semiclassic from this checkout's src/, never from elsewhere."""
    if not (SRC / "semiclassic" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'semiclassic'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import semiclassic
    import semiclassic.cli

    if Path(semiclassic.__file__).resolve().parent != SRC / "semiclassic":
        sys.exit(f"error: imported semiclassic from {semiclassic.__file__}, not {SRC}")
    return semiclassic, semiclassic.cli


_PROBE_XS = np.linspace(-1.0, 1.0, 300)


def _probe():
    """A fixed slice of the program's kind of work: a scalar recurrence over
    numpy array elements, as in the Numerov sweep and in the integrands
    that quadrature calls point by point.  Of the probes tried (scalar
    Python arithmetic, vectorised numpy, dict building, random memory
    reads) this one alone slowed in step with every workload.  Nothing in it
    can raise or touch program state, since it runs inside the program's
    own calls."""
    xs, acc = _PROBE_XS, 0.0
    for i in range(1, len(xs)):
        acc = 0.5 * xs[i] * acc - xs[i - 1]
    return acc


class HostSpeed:
    """Host speed, sampled on a wall-clock timer while the benchmark runs.

    This 2-core host switches between a fast and a slow state, about 1.6x
    apart, every 10 to 100 ms, and which state dominates shifts from minute
    to minute: raw rates of one pass spread by 10-15 %.  Every
    SAMPLE_PERIOD_S a SIGALRM handler times one probe (about 0.1 ms) and
    records its speed, PROBE_REF_S / duration.  Probes fire at even
    intervals of wall time, so those that land inside the requests of one
    kind sample the host's speed over exactly the time spent on them, and
    ``reference_seconds`` turns that time into the time it would have taken
    at the speed where a probe takes PROBE_REF_S.  A change in the program's
    own speed passes through in full; most of the host's drift cancels
    (per-pass spread 3-6 %).  Slow spells that touch the program but not
    the probe remain, and are why a run lasts many passes.
    """

    def __init__(self):
        self.count = 0  # probes taken
        self.speed_sum = 0.0  # sum of their speeds
        self.probe_s = 0.0  # wall time spent in them

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        _probe()
        dt = time.perf_counter() - t0
        self.count += 1
        self.speed_sum += PROBE_REF_S / dt
        self.probe_s += dt

    def mark(self):
        return self.count, self.speed_sum, self.probe_s

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class Span:
    """One timed interval and the host-speed probes that landed in it."""

    def __init__(self, host):
        self.host = host

    def __enter__(self):
        self.start = self.host.mark()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        self.count, self.speed_sum, probe_s = (
            b - a for a, b in zip(self.start, self.host.mark()))
        # The probes ran inside the program's calls; their time is not its own.
        self.busy = self.elapsed - probe_s
        return False


def reference_seconds(spans, attr="busy"):
    """Summed time ``attr`` of ``spans`` at the mean host speed sampled in them."""
    wall = sum(getattr(s, attr) for s in spans)
    count = sum(s.count for s in spans)
    return wall * sum(s.speed_sum for s in spans) / count if count else wall


def measure_setup(host):
    """Median time of a fresh interpreter importing the package and CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import semiclassic, semiclassic.cli"]
    times = []
    for _ in range(SETUP_SAMPLES):
        with Span(host) as span:
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        # The child runs on the other core while the probes run here, so the
        # probes do not delay it: count the whole elapsed time.
        times.append(reference_seconds([span], "elapsed"))
    return statistics.median(times)


class Tally:
    """Requests attempted and failed in one run, work completed per kind, and
    the timed span of every request."""

    def __init__(self, host):
        self.host = host
        self.work = dict.fromkeys(workloads.KINDS, 0)
        self.spans = []  # (kind, Span) per request, in order
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # unexpected failures and failed checks

    def execute(self, req):
        with Span(self.host) as span:
            raw = req.run()
        self.attempted += 1
        self.spans.append((req.kind, span))
        try:
            out = req.collect(raw)
        except workloads.Failed as exc:
            self.failed += 1
            if not req.known_failure:
                self.wrong.append(f"{req.label}: {exc}")
            return
        problems = req.check(out)
        if problems:
            self.failed += 1
            self.wrong.append(f"{req.label}: " + "; ".join(problems[:3]))
            return
        self.work[req.kind] += req.work(out)

    def seconds(self, reference=True):
        """Time per kind spent on requests, in reference or wall seconds."""
        out = {}
        for kind in workloads.KINDS:
            spans = [s for k, s in self.spans if k == kind]
            out[kind] = reference_seconds(spans) if reference else sum(s.busy for s in spans)
        return out


def run_passes(passes, tally, count=None, seconds=None):
    """Whole passes: ``count`` of them, or as many as start within ``seconds``."""
    t0 = time.perf_counter()
    done = 0
    while (done < count) if count is not None else (time.perf_counter() - t0 < seconds):
        for req in next(passes):
            tally.execute(req)
        done += 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    os.environ.pop("SEMICLASSIC_THREADS", None)  # the program's default: no fan-out
    sc, cli = _import_package()
    out_dir = HERE / "out"
    work_dir = out_dir / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = workloads.Env(sc=sc, cli=cli, csv_path=str(work_dir / "request.csv"))
    build = workloads.WORKLOADS[args.workload]
    try:
        with HostSpeed() as host:
            tally = Tally(host)
            if args.trace:
                # Each traced pass follows the same pass untraced, so the two
                # see nearly the same host and their difference is the
                # tracing overhead.
                tracer = tracing.Tracer(sc, host)
                passes = {on: build(np.random.default_rng(args.seed), env) for on in (False, True)}
                halves = {False: [], True: []}  # traced? -> spans of its requests
                for _ in range(TRACE_PASSES):
                    for on in (False, True):
                        start = len(tally.spans)
                        with tracer if on else contextlib.nullcontext():
                            run_passes(passes[on], tally, count=1)
                        halves[on] += [span for _, span in tally.spans[start:]]
            else:
                setup_s = measure_setup(host)
                run_passes(build(np.random.default_rng(args.seed), env), tally, seconds=args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        untraced_s, traced_s = (reference_seconds(halves[on]) for on in (False, True))
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"calls": tracer.calls, "self_s": tracer.self_s, "untraced_s": untraced_s,
             "traced_s": traced_s, "metrics": metrics}, indent=1, sort_keys=True))
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        seconds = tally.seconds()
        for kind, name in RATE_METRICS.items():
            rate = tally.work[kind] / seconds[kind] if seconds[kind] > 0 else 0.0
            metrics[name] = {"value": rate, "unit": "1/s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MiB"}

    for line in tally.wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    raw = tally.seconds(reference=False)
    for kind in workloads.KINDS:
        print(f"{kind}: {tally.work[kind]} units in {raw[kind]:.3f} s wall, "
              f"{tally.work[kind] / raw[kind] if raw[kind] else 0.0:.4g}/s of wall time")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"attempted = {tally.attempted}, failed = {tally.failed}")
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
