"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest bench/test_checks.py -q

Each checker must pass an output built from the closed forms and fail the
same output perturbed slightly, so that a check which would pass anything is
caught.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as ck  # noqa: E402

M, HB = 4.0, 1.0


def _t_rows(sigma_of, energies, corrected):
    rows = []
    for e in energies:
        s = sigma_of(e)
        bare = math.exp(-2 * s)
        t = bare / (1 + bare / 4) ** 2 if corrected else bare
        rows.append({"E": e, "T": t, "R": 1 - t, "sigma_star": s})
    return rows


def _bump(rows, key, rel, index=-1):
    out = [dict(r) for r in rows]
    out[index][key] *= 1 + rel
    return out


ENERGIES = list(np.linspace(0.2, 0.8, 7))


@pytest.mark.parametrize("closed", [
    lambda e: ck.sigma_eckart(1.0, 1.0, e, M, HB),
    lambda e: ck.sigma_parabolic(1.0, 1.0, e, M, HB),
    lambda e: ck.sigma_square(1.0, 2.0, e, M, HB),
])
def test_opacity_closed_forms(closed):
    rows = _t_rows(closed, ENERGIES, corrected=True)
    assert ck.check_opacity_rows(rows, closed) == []
    assert ck.check_opacity_rows(_bump(rows, "sigma_star", 1e-6), closed)


def test_opacity_matches_quadrature():
    # The closed forms themselves, against direct quadrature of beta.
    from scipy.integrate import quad

    e = 0.37
    a, b = ck.eckart_turning_points(1.0, 1.3, 0.2, e)
    beta = lambda x: math.sqrt(max(2 * M * (ck.eckart_v(1.0, 1.3, 0.2, x) - e), 0.0)) / HB
    assert quad(beta, a, b, epsrel=1e-12)[0] == pytest.approx(ck.sigma_eckart(1.0, 1.3, e, M, HB), rel=1e-9)
    xt = math.sqrt(2 * (1.0 - e) / 0.7)
    beta = lambda x: math.sqrt(max(2 * M * (1.0 - 0.35 * x * x - e), 0.0)) / HB
    assert quad(beta, -xt, xt, epsrel=1e-12)[0] == pytest.approx(ck.sigma_parabolic(1.0, 0.7, e, M, HB), rel=1e-9)


def test_opacity_decreasing():
    rows = _t_rows(lambda e: 3.0 - e, ENERGIES, corrected=True)
    assert ck.check_opacity_decreasing(rows) == []
    rows[3]["sigma_star"] = rows[2]["sigma_star"]
    assert ck.check_opacity_decreasing(rows)


@pytest.mark.parametrize("corrected", [True, False])
def test_transmission_formula(corrected):
    rows = _t_rows(lambda e: 2.0 - e, ENERGIES, corrected)
    assert ck.check_transmission_formula(rows, corrected) == []
    assert ck.check_transmission_formula(_bump(rows, "T", 1e-12), corrected)
    assert ck.check_transmission_formula(rows, not corrected)


def test_connection_against_corrected():
    rows = _t_rows(lambda e: 2.0 - e, ENERGIES, corrected=True)
    assert ck.check_same_transmission(rows, rows) == []
    assert ck.check_same_transmission(_bump(rows, "T", 1e-12), rows)


def test_eckart_closed_form_limits():
    # Deep below the top T tends to the WKB value e^{-2 sigma*}; far above, to 1.
    e = 0.05
    t = ck.t_eckart(1.0, 1.0, e, 16.0, HB)
    assert t == pytest.approx(math.exp(-2 * ck.sigma_eckart(1.0, 1.0, e, 16.0, HB)), rel=0.05)
    assert ck.t_eckart(1.0, 1.0, 50.0, M, HB) == pytest.approx(1.0, abs=1e-9)


def test_square_closed_form_continuity():
    below = ck.t_square(1.0, 2.0, 1.0 - 1e-9, M, HB)
    above = ck.t_square(1.0, 2.0, 1.0 + 1e-9, M, HB)
    assert below == pytest.approx(above, rel=1e-6)
    assert below == pytest.approx(1.0 / (1.0 + M * 4.0 / 2.0), rel=1e-6)


@pytest.mark.parametrize("closed, rtol", [
    (lambda e: ck.t_eckart(1.0, 1.0, e, M, HB), ck.EXACT_ECKART_RTOL),
    (lambda e: ck.t_square(1.0, 2.0, e, M, HB), ck.EXACT_SQUARE_RTOL),
])
def test_exact_rows(closed, rtol):
    rows = [{"E": e, "T": closed(e)} for e in ENERGIES + [1.3, 1.9]]
    assert ck.check_exact_rows(rows, closed, rtol) == []
    assert ck.check_exact_rows(_bump(rows, "T", 10 * rtol), closed, rtol)
    assert ck.check_exact_rows(_bump(rows, "T", 1e-3, index=0), closed, rtol)


def test_exact_rows_unit_interval():
    assert ck.check_exact_rows([{"E": 0.5, "T": 0.3}], None, None) == []
    assert ck.check_exact_rows([{"E": 0.5, "T": 1.0 + 1e-12}], None, None)
    assert ck.check_exact_rows([{"E": 0.5, "T": -1e-300}], None, None)


def test_born_rows():
    a, d = 0.002, 0.5
    closed = lambda e: ck.born_r2_gaussian(a, d, e, M, HB)
    rtol = ck.born_rtol(M, a, d, HB)
    rows = []
    for e in (0.3, 0.6, 0.9):
        r = math.sqrt(closed(e) * (1 + 0.5 * rtol))
        rows.append({"E": e, "re_R": 0.6 * r, "im_R": -0.8 * r, "R_squared": r * r})
    assert ck.check_born_rows(rows, closed, rtol) == []
    off = _bump(rows, "R_squared", 1e-6)
    assert ck.check_born_rows(off, closed, rtol)  # no longer re^2 + im^2
    far = [dict(r, re_R=r["re_R"] * 1.05, im_R=r["im_R"] * 1.05, R_squared=r["R_squared"] * 1.05 ** 2)
           for r in rows]
    assert ck.check_born_rows(far, closed, rtol)


def test_born_closed_form_is_plane_wave_born():
    from scipy.integrate import quad

    a, d, e = 0.002, 0.5, 0.6
    k = math.sqrt(2 * M * e) / HB
    re = quad(lambda x: a * math.exp(-(x / d) ** 2) * math.cos(2 * k * x), -8, 8, epsabs=1e-14)[0]
    assert (M * re / (HB * HB * k)) ** 2 == pytest.approx(ck.born_r2_gaussian(a, d, e, M, HB), rel=1e-9)


def test_levels():
    closed = lambda n: ck.harmonic_level(n, 1.1, M, HB)
    rows = [{"n": float(n), "E": closed(n)} for n in range(4)]
    assert ck.check_levels(rows, closed, 4) == []
    assert ck.check_levels(_bump(rows, "E", 1e-6), closed, 4)
    assert ck.check_levels(rows[:3], closed, 4)


def _tags(names):
    return [SimpleNamespace(value=n) for n in names]


def test_transmitted_flux():
    h, d, c, m, e = 1.0, 1.0, 0.0, 64.0, 0.5
    a, b = ck.eckart_turning_points(h, d, c, e)
    k_of_x = lambda x: np.sqrt(2 * m * (e - ck.eckart_v(h, d, c, x))) / HB
    xs = np.linspace(b + 0.1, 14.0, 50)
    psi = 2.0 / np.sqrt(k_of_x(xs)) * np.exp(1j * xs)
    table = SimpleNamespace(xs=xs, psi=psi, region_tags=_tags(["allowed_right"] * 50))
    assert ck.check_transmitted_flux(table, k_of_x, b) == []
    psi2 = psi.copy()
    psi2[10] *= 1 + 1e-6
    assert ck.check_transmitted_flux(SimpleNamespace(xs=xs, psi=psi2, region_tags=table.region_tags), k_of_x, b)
    assert ck.check_transmitted_flux(SimpleNamespace(xs=xs, psi=psi, region_tags=_tags(["forbidden"] * 50)),
                                     k_of_x, b)


@pytest.mark.parametrize("solution, slope", [("ai", 0.7), ("bi", -0.7)])
def test_airy_bridge(solution, slope):
    a = 1.2
    xs = np.linspace(a - 0.2, a + 0.2, 15)
    z = np.cbrt(2 * M * slope / HB**2) * (xs - a)
    ai, _, bi, _ = special.airy(z)
    psi = (ai if solution == "ai" else bi).astype(complex)
    table = SimpleNamespace(xs=xs, psi=psi)
    assert ck.check_airy_bridge(table, a, slope, M, HB, solution) == []
    psi2 = psi.copy()
    psi2[3] *= 1 + 1e-8
    assert ck.check_airy_bridge(SimpleNamespace(xs=xs, psi=psi2), a, slope, M, HB, solution)
    assert ck.check_airy_bridge(table, a + 1e-6, slope, M, HB, solution)


def test_exact_wave():
    t = ck.t_eckart(1.0, 1.0, 0.5, M, HB)
    xs = np.linspace(-14, 14, 201)
    psi = np.sqrt(t) * np.exp(1j * xs)
    table = SimpleNamespace(xs=xs, psi=psi)
    assert ck.check_exact_wave(table, t, 1.0, 1.0, 12.6, ck.EXACT_ECKART_RTOL) == []
    assert ck.check_exact_wave(table, t * (1 + 1e-6), 1.0, 1.0, 12.6, ck.EXACT_ECKART_RTOL)


def test_tracer_restores_and_counts():
    import semiclassic
    import semiclassic.cli  # noqa: F401 - the tracer patches the CLI module too
    from semiclassic import connection, potential, special_fn, wkb_core

    import run
    import tracing

    originals = (potential.find_turning_points, connection.find_turning_points,
                 connection.airy, special_fn.airy, wkb_core.integrate, potential.ScatteringProblem.v)
    prob = semiclassic.ScatteringProblem(potential=semiclassic.EckartBarrier(1.0, 1.0), energy=0.4,
                                         domain=(-14.0, 14.0))
    counts = []
    for _ in range(2):
        with tracing.Tracer(semiclassic, run.HostSpeed()) as tracer:
            wkb_core.transmission_leading(prob)
            connection.airy_local_solution(prob, -math.acosh(math.sqrt(2.5)), [-1.0])
        m = tracer.metrics()
        counts.append({k: v["value"] for k, v in m.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["potential.find_turning_points.calls"] == 2
    assert counts[0]["wkb_core.barrier_integral.calls"] == 1
    assert counts[0]["special_fn.airy.calls"] == 1
    assert counts[0]["wkb_core.quad.calls"] >= 1
    assert counts[0]["potential.v.points"] > 2049
    assert (potential.find_turning_points, connection.find_turning_points, connection.airy,
            special_fn.airy, wkb_core.integrate, potential.ScatteringProblem.v) == originals


def test_draws_are_seeded_fresh_and_even():
    import workloads

    def first(seed, label, n):
        draw = workloads.Draws(np.random.default_rng(seed))
        return [draw(label, (0.0, 1.0), (2.0, 3.0)) for _ in range(n)]

    a = first(7, "x", 8)
    assert a == first(7, "x", 8)
    assert a != first(8, "x", 8)
    assert len({p[0] for p in a}) == 8  # every pass gets new inputs
    assert all(0.0 <= u < 1.0 and 2.0 <= v < 3.0 for u, v in a)
    for coord, lo in ((0, 0.0), (1, 2.0)):
        edges = sorted([lo] + [p[coord] for p in a] + [lo + 1.0])
        assert max(b - e for e, b in zip(edges, edges[1:])) < 0.25  # no big hole


def test_reference_seconds():
    import run

    span = SimpleNamespace(busy=2.0, elapsed=2.1, count=4, speed_sum=2.0)
    assert run.reference_seconds([span]) == pytest.approx(1.0)
    assert run.reference_seconds([span], "elapsed") == pytest.approx(1.05)
    assert run.reference_seconds([SimpleNamespace(busy=0.3, count=0, speed_sum=0.0)]) == 0.3


def test_host_speed_samples_and_restores():
    import signal
    import time

    import run

    before = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed() as host:
        with run.Span(host) as span:
            t_end = time.perf_counter() + 0.2
            while time.perf_counter() < t_end:
                pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert span.count >= 5 and span.speed_sum > 0
    assert 0 < span.busy < span.elapsed


def test_single_shot_keeps_one_known_failure_per_pass():
    import semiclassic
    import semiclassic.cli
    import workloads

    env = workloads.Env(sc=semiclassic, cli=semiclassic.cli, csv_path="unused.csv")
    passes = workloads.single_shot(np.random.default_rng(3), env)
    for _ in range(2):
        reqs = next(passes)
        assert len(reqs) == 29
        assert [r.label for r in reqs if r.known_failure] == ["near-top eckart"]


def test_cli_requests_pass_negative_exponent_values(tmp_path):
    import semiclassic
    import semiclassic.cli
    import workloads

    env = workloads.Env(sc=semiclassic, cli=semiclassic.cli, csv_path=str(tmp_path / "r.csv"))
    spec = dict(workloads.ECKART, center=-3e-05)
    req = workloads.cli_request(env, "below", "tiny negative centre",
                                ["transmission", *workloads.flags(spec, energy=0.5, method="wkb")],
                                workloads._below_check(spec, "wkb"))
    rows = req.collect(req.run())
    assert len(rows) == 1 and req.check(rows) == []
    # The same value as a separate argument is an argparse error: a failed
    # request, not a crash of the benchmark.
    bad = workloads.cli_request(env, "below", "split", ["transmission", "--center", "-3e-05"],
                                req.check)
    with pytest.raises(workloads.Failed, match="exit 2"):
        bad.collect(bad.run())
