"""CLI behavior: dispatch, config handling, determinism, error codes."""

import math

import mpmath
import numpy as np
import pytest

from semiclassic import cli
from semiclassic.errors import SemiclassicError


def run_cli(args):
    return cli.main(args)


def read(path):
    return path.read_bytes()


class TestAiry:
    def test_csv(self, tmp_path, capsys):
        out = tmp_path / "airy.csv"
        assert run_cli(["airy", "--z", "0", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,ai,bi,ai_prime,bi_prime"
        assert lines[1].startswith("0,0.3550280538878172")

    def test_stdout(self, capsys):
        assert run_cli(["airy", "--z", "1.0"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("z,ai,bi,ai_prime,bi_prime")

    def test_structured_text(self, capsys):
        assert run_cli(["airy", "--z", "0", "--format", "structured-text"]) == 0
        out = capsys.readouterr().out
        assert "ai = 0.3550280538878172" in out


class TestTransmission:
    PARABOLIC = [
        "--form", "parabolic", "--height", "1", "--curvature", "1",
        "--energy", "0.5", "--x-min", "-3", "--x-max", "3",
    ]

    def test_wkb_on_parabolic_barrier(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(
            ["transmission", *self.PARABOLIC, "--method", "wkb", "--output", str(out)]
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header == "E,T,R,sigma_star,method"
        cells = row.split(",")
        assert float(cells[3]) == pytest.approx(math.pi / 2.0, rel=1e-11)
        assert float(cells[1]) == pytest.approx(math.exp(-math.pi), rel=1e-10)
        assert cells[4] == "wkb"

    @pytest.mark.parametrize("method", ["wkb-corrected", "connection"])
    def test_opaque_row_keeps_its_transmission(self, capsys, method):
        # sigma* 318.75: connection once printed T = 0 past sigma* 300.
        code = run_cli([
            "transmission", "--form", "eckart", "--height", "1", "--width", "1",
            "--mass", "60000", "--energy", "0.5", "--x-min", "-14", "--x-max", "14",
            "--method", method,
        ])
        assert code == 0
        _, t, r, sigma, name = capsys.readouterr().out.splitlines()[1].split(",")
        assert (t, r, name) == ("1.3724944799871782e-277", "1", method)
        assert float(sigma) == pytest.approx(318.75, abs=5e-3)
        # sigma* = pi d sqrt(2m) (sqrt(V0) - sqrt(E)) / hbar, T = b / (1 + b/4)^2.
        with mpmath.workdps(40):
            b = mpmath.exp(-2 * mpmath.pi * mpmath.sqrt(120000) * (1 - mpmath.sqrt(0.5)))
            assert abs(float(t) / (b / (1 + b / 4) ** 2) - 1) <= 1e-13

    @pytest.mark.parametrize("form", ["eckart", "gaussian"])
    def test_peak_inside_the_first_scan_panel(self, capsys, form):
        # The peak lies 0.001 inside the domain, closer to its edge than one
        # panel of a 2048-panel scan of V.
        height = ["--height", "1"] if form == "eckart" else ["--amplitude", "1"]
        code = run_cli([
            "transmission", "--form", form, *height, "--width", "1",
            "--x-min=-0.001", "--x-max", "14", "--energy", "0.9999999",
        ])
        assert code == 0
        sigma = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
        if form == "eckart":
            exact = math.pi * (math.sqrt(2.0) - math.sqrt(2.0 * 0.9999999))
            assert sigma == pytest.approx(exact, rel=1e-8)

    def test_exact_has_empty_sigma(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(
            [
                "transmission", "--form", "eckart", "--height", "1", "--width", "1",
                "--energy", "0.5", "--x-min", "-14", "--x-max", "14",
                "--method", "exact", "--output", str(out),
            ]
        )
        assert code == 0
        row = out.read_text().splitlines()[1]
        cells = row.split(",")
        assert cells[3] == ""
        assert float(cells[1]) == pytest.approx(0.11578993, abs=1e-6)

    def test_once_reflected_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(
            [
                "transmission", "--form", "gaussian", "--amplitude", "0.01",
                "--width", "1", "--energy", "2", "--x-min", "-12", "--x-max", "12",
                "--method", "once-reflected", "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "E,re_R,im_R,R_squared,method"
        assert lines[1].endswith("once-reflected")


class TestScan:
    ARGS = [
        "scan", "--form", "parabolic", "--height", "1", "--curvature", "1",
        "--x-min", "-3", "--x-max", "3", "--method", "wkb-corrected",
        "--e-min", "0.2", "--e-max", "0.8", "--steps", "4",
    ]

    def test_rows_ordered(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli([*self.ARGS, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        energies = [float(line.split(",")[0]) for line in lines[1:]]
        assert energies == sorted(energies)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli([*self.ARGS, "--output", str(a)])
        run_cli([*self.ARGS, "--output", str(b)])
        assert read(a) == read(b)

    def test_bad_steps(self, capsys):
        assert run_cli([*self.ARGS[:-2], "--steps", "1"]) == 2
        assert capsys.readouterr().err.startswith("E_CONFIG:")

    @pytest.mark.parametrize(
        "method", ["wkb", "wkb-corrected", "connection", "once-reflected", "born1"]
    )
    def test_extrema_scanned_once(self, method, knot_scans, tmp_path):
        # A built-in model knows its extrema, so V is never sampled on the
        # scan grid; a table of the same V is scanned once for the whole scan.
        if method in ("once-reflected", "born1"):
            shape = ["--form", "gaussian", "--amplitude", "0.05", "--width", "1"]
            domain = ["--x-min", "-12", "--x-max", "12", "--e-min", "0.5", "--e-max", "3"]
            xs = np.linspace(-12.0, 12.0, 481)
            vs = 0.05 * np.exp(-xs * xs)
        else:
            shape = ["--form", "eckart", "--height", "1", "--width", "1"]
            domain = ["--x-min", "-14", "--x-max", "14", "--e-min", "0.05", "--e-max", "0.95"]
            xs = np.linspace(-14.0, 14.0, 561)
            vs = 1.0 / np.cosh(xs) ** 2
        table = tmp_path / "v.txt"
        np.savetxt(table, np.column_stack([xs, vs]))
        out = tmp_path / "scan.csv"
        for form, scans in ((shape, 0), (["--form", "tabulated", "--table-file", str(table)], 1)):
            args = [*form, *domain, "--method", method, "--steps", "12", "--output", str(out)]
            assert run_cli(["scan", *args]) == 0
            assert len(out.read_text().splitlines()) == 13
            assert knot_scans() == scans


class TestOutputFile:
    """--output replaces what the file held with the new table."""

    ARGS = TestScan.ARGS

    def test_longer_file_left_with_the_new_bytes_only(self, tmp_path):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        reused.write_bytes(b"stale row\n" * 1000)
        assert run_cli([*self.ARGS, "--output", str(fresh)]) == 0
        assert run_cli([*self.ARGS, "--output", str(reused)]) == 0
        assert read(reused) == read(fresh)

    def test_rerun_onto_the_same_file_byte_identical(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli([*self.ARGS, "--output", str(out)]) == 0
        first = read(out)
        assert run_cli([*self.ARGS, "--output", str(out)]) == 0
        assert read(out) == first and first.count(b"\n") == 5

    def test_new_path_created(self, tmp_path):
        out = tmp_path / "new.csv"
        assert not out.exists()
        assert run_cli([*self.ARGS, "--output", str(out)]) == 0
        assert read(out).startswith(b"E,T,R,sigma_star,method\n")

    def test_dev_null_exits_0(self, capsys):
        assert run_cli([*self.ARGS, "--output", "/dev/null"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_directory_exits_2(self, tmp_path, capsys):
        assert run_cli([*self.ARGS, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"E_CONFIG: cannot write output {tmp_path}: ")
        assert err.count("\n") == 1


class TestBoundStates:
    ARGS = [
        "bound-states", "--form", "harmonic", "--stiffness", "1",
        "--x-min", "-12", "--x-max", "12", "--n-max", "1",
    ]

    def test_wkb(self, tmp_path):
        out = tmp_path / "levels.csv"
        assert run_cli([*self.ARGS, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,E,method"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5, abs=1e-8)
        assert float(lines[2].split(",")[1]) == pytest.approx(1.5, abs=1e-8)

    def test_exact(self, tmp_path):
        out = tmp_path / "levels.csv"
        code = run_cli(
            [*self.ARGS, "--method", "exact", "--grid-points", "8001",
             "--output", str(out)]
        )
        assert code == 0
        assert float(out.read_text().splitlines()[1].split(",")[1]) == pytest.approx(
            0.5, abs=1e-7
        )

    def test_no_well_refused_once_for_both_methods(self, capsys):
        # A barrier has no well below its domain edges: both methods refuse
        # it from its extrema, with one message.
        barrier = ["bound-states", "--form", "eckart", "--height", "1", "--width", "1",
                   "--x-min", "-14", "--x-max", "14", "--n-max", "1"]
        errors = []
        for method in ("wkb", "exact"):
            assert run_cli([*barrier, "--method", method]) == 3
            errors.append(capsys.readouterr().err)
        assert errors == ["E_SPECTRUM: potential has no well below the domain edges\n"] * 2


class TestWavefunction:
    def test_exact_csv(self, tmp_path):
        out = tmp_path / "wave.csv"
        code = run_cli(
            [
                "wavefunction", "--form", "eckart", "--height", "1", "--width", "1",
                "--energy", "0.5", "--x-min", "-14", "--x-max", "14",
                "--grid-points", "2001", "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,re_psi,im_psi,region"
        assert len(lines) == 2002

    def test_connection_method(self, tmp_path):
        out = tmp_path / "wave.csv"
        code = run_cli(
            [
                "wavefunction", "--form", "eckart", "--height", "1", "--width", "1",
                "--energy", "0.15", "--x-min", "-14", "--x-max", "14",
                "--method", "connection", "--output", str(out),
            ]
        )
        assert code == 0
        assert "forbidden" in out.read_text()


class TestConfigFile:
    CONFIG = """
[context]
mass = 1.0
hbar = 1.0

[potential]
form = parabolic
height = 1.0
curvature = 1.0

[problem]
energy = 0.5
x_min = -3.0
x_max = 3.0
"""

    def test_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "t.csv"
        code = run_cli(
            ["transmission", "--config", str(cfg), "--method", "wkb",
             "--output", str(out)]
        )
        assert code == 0
        assert float(out.read_text().splitlines()[1].split(",")[0]) == 0.5

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "t.csv"
        run_cli(
            ["transmission", "--config", str(cfg), "--method", "wkb",
             "--energy", "0.3", "--output", str(out)]
        )
        assert float(out.read_text().splitlines()[1].split(",")[0]) == 0.3

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a section header\n")
        assert run_cli(["transmission", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:")
        assert "line" in err.lower() or "bad.cfg" in err

    def test_missing_field_exit_2(self, capsys):
        assert run_cli(["transmission", "--form", "eckart", "--height", "1",
                        "--width", "1"]) == 2
        assert "energy" in capsys.readouterr().err

    def test_percent_is_read_literally(self, tmp_path):
        # A '%' in a value is text, not the start of an interpolation.
        out = tmp_path / "out%1.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG + f"\n[output]\npath = {out}\n")
        assert run_cli(["transmission", "--config", str(cfg), "--method", "wkb"]) == 0
        assert out.read_text().startswith("E,T,R,sigma_star,method\n0.5,")

    def test_unknown_form_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[potential]\nform = morse\n\n[problem]\nenergy = 1\n")
        assert run_cli(["transmission", "--config", str(cfg)]) == 2
        assert "morse" in capsys.readouterr().err


class TestRegimeErrors:
    def test_wkb_above_barrier_exit_3(self, capsys):
        code = run_cli(
            [
                "transmission", "--form", "eckart", "--height", "1", "--width", "1",
                "--energy", "2.0", "--x-min", "-14", "--x-max", "14",
                "--method", "wkb",
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("E_NO_BARRIER:")

    def test_born_below_barrier_exit_3(self, capsys):
        code = run_cli(
            [
                "transmission", "--form", "eckart", "--height", "1", "--width", "1",
                "--energy", "0.5", "--x-min", "-14", "--x-max", "14",
                "--method", "born1",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("E_REGIME:")
        assert "below-barrier" in err or "does not exceed" in err


class TestTabulated:
    def test_table_file(self, tmp_path):
        import numpy as np

        xs = np.linspace(-8, 8, 401)
        vs = np.exp(-xs**2)
        table = tmp_path / "pot.txt"
        np.savetxt(table, np.column_stack([xs, vs]))
        out = tmp_path / "t.csv"
        code = run_cli(
            [
                "transmission", "--form", "tabulated", "--table-file", str(table),
                "--energy", "0.5", "--x-min", "-8", "--x-max", "8",
                "--method", "wkb", "--output", str(out),
            ]
        )
        assert code == 0
        sigma = float(out.read_text().splitlines()[1].split(",")[3])
        # Must agree with the analytic Gaussian model to interpolation error.
        from semiclassic import GaussianBump, ScatteringProblem, barrier_integral

        ref = barrier_integral(
            ScatteringProblem(
                potential=GaussianBump(amplitude=1.0, width=1.0),
                energy=0.5,
                domain=(-8, 8),
            )
        )
        assert sigma == pytest.approx(ref, rel=1e-6)


class TestNegativeExponentValues:
    ECKART = [
        "transmission", "--form", "eckart", "--height", "1", "--width", "1",
        "--energy", "0.5", "--x-min", "-14", "--x-max", "14",
    ]

    def test_separate_argument_matches_joined(self, tmp_path):
        apart, joined = tmp_path / "apart.csv", tmp_path / "joined.csv"
        assert run_cli([*self.ECKART, "--center", "-3e-05", "--output", str(apart)]) == 0
        assert run_cli([*self.ECKART, "--center=-3e-05", "--output", str(joined)]) == 0
        assert read(apart) == read(joined)

    def test_airy_z(self, tmp_path):
        out = tmp_path / "airy.csv"
        assert run_cli(["airy", "--z", "-1e-3", "--z", "-2E+0", "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [-1e-3, -2.0]

    def test_parser_built_once(self):
        assert cli._make_parser() is cli._make_parser()


class TestNumericalErrors:
    def test_oracle_overflow_exit_4(self, capsys):
        code = run_cli(
            [
                "transmission", "--form", "eckart", "--height", "200", "--width", "10",
                "--energy", "1", "--x-min", "-200", "--x-max", "200", "--method", "exact",
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_NUMERIC:")
        assert "log10|A| = 253." in err

    def test_patched_wave_overflow_exit_4(self, capsys):
        # sigma* ~ 1.4e4: e^sigma* overflows a float.
        code = run_cli(
            [
                "wavefunction", "--form=square", "--height=1000000", "--width=1",
                "--x-min=-1", "--x-max=14", "--mass=100", "--energy=1",
                "--method=connection",
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_NUMERIC:")
        assert "sigma* = 14142.1" in err


#: The four barriers of the benchmark, with m = 4.
BARRIER_FORMS = {
    "eckart": ["--form=eckart", "--height=1", "--width=1", "--x-min=-14", "--x-max=14"],
    "gaussian": ["--form=gaussian", "--amplitude=1", "--width=1", "--x-min=-8", "--x-max=8"],
    "square": ["--form=square", "--height=1", "--width=2", "--x-min=-8", "--x-max=8"],
    "parabolic": ["--form=parabolic", "--height=1", "--curvature=1", "--x-min=-3", "--x-max=3"],
}


class TestBatchedScan:
    """Scans solve all their energies at once; each row is what one energy gives."""

    def _rows(self, tmp_path, args):
        out = tmp_path / "rows.csv"
        assert run_cli([*args, "--mass=4", f"--output={out}"]) == 0
        return out.read_text().splitlines()

    @pytest.mark.parametrize("method", ["wkb", "wkb-corrected", "connection"])
    @pytest.mark.parametrize("form", sorted(BARRIER_FORMS))
    def test_scan_rows_match_single_energies(self, tmp_path, form, method):
        scan = self._rows(
            tmp_path,
            ["scan", *BARRIER_FORMS[form], f"--method={method}",
             "--e-min=0.2", "--e-max=0.8", "--steps=12"],
        )
        for row in scan[1:]:
            energy = row.split(",")[0]
            one = self._rows(
                tmp_path,
                ["transmission", *BARRIER_FORMS[form], f"--method={method}", f"--energy={energy}"],
            )
            assert one == [scan[0], row]

    def test_scan_longer_than_a_block(self, tmp_path, monkeypatch):
        from semiclassic import wkb_core
        from semiclassic.potential import ScatteringProblem

        # One block holds this many energies, so the scan fills two blocks.
        steps = 2 * wkb_core._BLOCK_ENERGIES
        blocks = []
        v = ScatteringProblem.v
        monkeypatch.setattr(
            ScatteringProblem, "v", lambda p, x: blocks.append(np.ndim(x) == 3) or v(p, x)
        )
        scan = self._rows(
            tmp_path,
            ["scan", *BARRIER_FORMS["eckart"], "--method=wkb-corrected",
             "--e-min=0.05", "--e-max=0.95", f"--steps={steps}"],
        )
        assert sum(blocks) >= 2  # the opacity sum took more than one block
        monkeypatch.setattr(ScatteringProblem, "v", v)
        for row in scan[1::9]:
            one = self._rows(
                tmp_path,
                ["transmission", *BARRIER_FORMS["eckart"], "--method=wkb-corrected",
                 f"--energy={row.split(',')[0]}"],
            )
            assert one[1] == row

    def test_tabulated_scan_longer_than_a_block(self, tmp_path, monkeypatch):
        from semiclassic import wkb_core

        # A table's roots are solved, not placed: each block is one solve.
        xs = np.linspace(-8.0, 8.0, 161)
        table = tmp_path / "v.txt"
        np.savetxt(table, np.column_stack([xs, 1.0 / np.cosh(xs) ** 2]))
        form = ["--form=tabulated", f"--table-file={table}", "--x-min=-8", "--x-max=8"]
        solves = []
        turning_points = wkb_core._turning_points
        monkeypatch.setattr(
            wkb_core, "_turning_points",
            lambda p, e: solves.append(len(e)) or turning_points(p, e),
        )
        steps = 2 * wkb_core._BLOCK_ENERGIES + 1
        scan = self._rows(
            tmp_path,
            ["scan", *form, "--method=wkb-corrected", "--e-min=0.05", "--e-max=0.95",
             f"--steps={steps}"],
        )
        assert solves == [wkb_core._BLOCK_ENERGIES] * 2 + [1]
        ends = [0, wkb_core._BLOCK_ENERGIES - 1, wkb_core._BLOCK_ENERGIES, steps - 1]
        for i in sorted({*ends, *range(0, steps, 17)}):
            one = self._rows(
                tmp_path,
                ["transmission", *form, "--method=wkb-corrected",
                 f"--energy={scan[1 + i].split(',')[0]}"],
            )
            assert one == [scan[0], scan[1 + i]]

    @pytest.mark.parametrize("method", ["wkb", "wkb-corrected", "connection"])
    def test_scan_over_the_top_fails_as_one_energy_would(self, capsys, method):
        code = run_cli(
            ["scan", *BARRIER_FORMS["eckart"], f"--method={method}",
             "--e-min=0.5", "--e-max=1.5", "--steps=5"]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "E_NO_BARRIER: barrier integral needs 2 turning points, found 1 "
            "(E >= max V or no barrier in the domain)\n"
        )

    def test_scan_of_a_well_fails_as_one_energy_would(self, capsys):
        code = run_cli(
            ["scan", "--form=harmonic", "--stiffness=1", "--method=wkb",
             "--e-min=0.5", "--e-max=1", "--steps=3"]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "E_NO_BARRIER: interval between turning points is classically allowed; "
            "this is a well, not a barrier\n"
        )

    @pytest.mark.parametrize("form, most", [("eckart", 50), ("square", 120)])
    def test_scan_evaluates_v_few_times(self, tmp_path, monkeypatch, form, most):
        from semiclassic.potential import ScatteringProblem

        calls = []
        v = ScatteringProblem.v
        monkeypatch.setattr(ScatteringProblem, "v", lambda p, x: calls.append(1) or v(p, x))
        self._rows(
            tmp_path,
            ["scan", *BARRIER_FORMS[form], "--method=wkb",
             "--e-min=0.2", "--e-max=0.8", "--steps=12"],
        )
        assert len(calls) <= most

    def test_eckart_far_tails_are_quiet(self, capsys):
        # |x - c| / d reaches 1400, where cosh overflows to inf and V is 0.
        code = run_cli(
            ["transmission", "--form=eckart", "--height=1", "--width=0.01", "--energy=0.5",
             "--x-min=-14", "--x-max=14", "--method=wkb"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""


#: Over-barrier scans (m = 4): the weak bump of the benchmark, Eckart above
#: its top on +/-20 and on the standard +/-14, and a Gaussian bump from 5 to
#: 200 times its top.
WEAK_FORM = ["--form=gaussian", "--amplitude=0.002", "--width=0.5", "--x-min=-8", "--x-max=8"]
REFLECTION_SCANS = {
    "weak": (WEAK_FORM, "0.34", "0.94", 8),
    "eckart-above": (
        ["--form=eckart", "--height=1", "--width=1", "--x-min=-20", "--x-max=20"],
        "1.21", "1.89", 8,
    ),
    "gaussian-support": (
        ["--form=gaussian", "--amplitude=0.01", "--width=1", "--x-min=-12", "--x-max=12"],
        "0.05", "2.0", 12,
    ),
    "eckart-14": (
        ["--form=eckart", "--height=1", "--width=1", "--x-min=-14", "--x-max=14"],
        "1.2", "1.9", 8,
    ),
}


class TestReflectionScan:
    """Over-barrier scans lay out their nodes once; each row is what one energy gives."""

    def _rows(self, tmp_path, args):
        out = tmp_path / "rows.csv"
        assert run_cli([*args, "--mass=4", f"--output={out}"]) == 0
        return out.read_text().splitlines()

    @pytest.mark.parametrize("method", ["once-reflected", "born1"])
    @pytest.mark.parametrize("scan", sorted(REFLECTION_SCANS))
    def test_scan_rows_match_single_energies(self, tmp_path, scan, method):
        form, e_min, e_max, steps = REFLECTION_SCANS[scan]
        rows = self._rows(
            tmp_path,
            ["scan", *form, f"--method={method}", f"--e-min={e_min}", f"--e-max={e_max}",
             f"--steps={steps}"],
        )
        assert len(rows) == steps + 1
        for row in rows[1:]:
            one = self._rows(
                tmp_path,
                ["transmission", *form, f"--method={method}", f"--energy={row.split(',')[0]}"],
            )
            assert one == [rows[0], row]

    @pytest.mark.parametrize(
        "method, form, err",
        [
            ("once-reflected", BARRIER_FORMS["eckart"],
             "E_REGIME: E = 0.5 does not exceed max V = 1 on the domain; "
             "below-barrier problems belong to the connection module\n"),
            ("born1", BARRIER_FORMS["eckart"],
             "E_REGIME: E = 0.5 does not exceed max V = 1 on the domain; "
             "below-barrier problems belong to the connection module\n"),
            ("born1", ["--form=linear", "--offset=0", "--slope=0.01"],
             "E_DOMAIN: E = 0.5: the integrand has not decayed at the domain edges, where the "
             "sum beyond them may reach 1.2 of |R|, more than 1%; widen the domain\n"),
            ("once-reflected", ["--form=linear", "--offset=0", "--slope=0.01"],
             "E_DOMAIN: E = 0.5: the integrand has not decayed at the domain edges, where the "
             "sum beyond them may reach 1.2 of |R|, more than 1%; widen the domain\n"),
        ],
    )
    def test_scan_over_the_top_fails_as_one_energy_would(self, capsys, method, form, err):
        code = run_cli(
            ["scan", *form, "--mass=4", f"--method={method}",
             "--e-min=0.5", "--e-max=1.5", "--steps=5"]
        )
        scan = capsys.readouterr()
        assert run_cli(["transmission", *form, "--mass=4", f"--method={method}", "--energy=0.5"]) == code
        assert (scan.out, scan.err) == ("", capsys.readouterr().err) == ("", err)
        assert code == (3 if err.startswith("E_REGIME") else 4)

    @pytest.mark.parametrize("method", ["once-reflected", "born1"])
    def test_scan_evaluates_v_on_few_points(self, tmp_path, monkeypatch, method):
        from semiclassic.potential import ScatteringProblem

        points = []
        v = ScatteringProblem.v
        monkeypatch.setattr(
            ScatteringProblem, "v", lambda p, x: points.append(np.size(x)) or v(p, x)
        )
        self._rows(tmp_path, ["transmission", *WEAK_FORM, f"--method={method}", "--energy=0.6"])
        one, points[:] = sum(points), []
        self._rows(
            tmp_path,
            ["scan", *WEAK_FORM, f"--method={method}", "--e-min=0.34", "--e-max=0.94", "--steps=8"],
        )
        assert sum(points) <= 2 * one

    @pytest.mark.parametrize("method", ["once-reflected", "born1"])
    def test_row_evaluates_v_on_its_nodes_only(self, tmp_path, monkeypatch, method):
        # The phase comes from p on the 2560 integrand nodes: V is taken there
        # and by the geometry scan.  The phase accumulator's own panels, up to
        # every node, took 37,890 points for once-reflected and 25,517 for born1.
        from semiclassic.potential import ScatteringProblem

        points = []
        v = ScatteringProblem.v
        monkeypatch.setattr(
            ScatteringProblem, "v", lambda p, x: points.append(np.size(x)) or v(p, x)
        )
        self._rows(tmp_path, ["transmission", *WEAK_FORM, f"--method={method}", "--energy=0.6"])
        assert sum(points) < 6000


class TestUnresolvedReflection:
    """A reflection amplitude that does not clear the rounding floor of its
    oscillatory sum is refused with exit 4, not printed."""

    ECKART = ["--form=eckart", "--height=1", "--width=1", "--x-min=-14", "--x-max=14"]

    @pytest.mark.parametrize(
        "mass, energy, ratio",
        # |R|^2 printed 1.68e-28 (closed form 6.09e-46) and 2.14e-26 (1.73e-28).
        [("256", "3", "0.11"), ("1024", "1.5", "0.4")],
    )
    def test_exit_4(self, capsys, mass, energy, ratio):
        code = run_cli(
            ["transmission", *self.ECKART, f"--mass={mass}", f"--energy={energy}",
             "--method=once-reflected"]
        )
        assert code == 4
        assert capsys.readouterr() == (
            "",
            f"E_NUMERIC: E = {energy}: |R| is {ratio} of the rounding floor of its oscillatory "
            "sum (eps x phase span / hbar x the sum of |integrand|); double precision cannot "
            "resolve it\n",
        )

    @pytest.mark.parametrize("method", ["once-reflected", "born1"])
    def test_unresolved_phase_exit_4(self, capsys, method):
        # 24.5 rad per panel: |R|^2 printed 4.08e-15 and 2.0e-19; the closed form is ~1e-90.
        missed = {"once-reflected": "2.7e+03", "born1": "4.1e+03"}[method]
        code = run_cli(
            ["transmission", "--form=eckart", "--height=1", "--width=1", "--x-min=-20",
             "--x-max=20", "--mass=1024", "--energy=3", f"--method={method}"]
        )
        assert code == 4
        assert capsys.readouterr() == (
            "",
            "E_NUMERIC: E = 3: the phase of the oscillatory sum winds up to 24.5 rad across one "
            f"panel, where the 10-point rule may miss {missed} of |R|, more than 1%; it cannot "
            "resolve it\n",
        )

    @pytest.mark.parametrize("method", ["once-reflected", "born1"])
    @pytest.mark.parametrize("mass", ["256", "512"])
    def test_resolved_rows_pass(self, tmp_path, method, mass):
        out = tmp_path / "rows.csv"
        code = run_cli(
            ["transmission", *self.ECKART, f"--mass={mass}", "--energy=1.5",
             f"--method={method}", f"--output={out}"]
        )
        assert code == 0
        assert float(out.read_text().splitlines()[1].split(",")[3]) > 0.0

    @pytest.mark.parametrize(
        "method, r_squared",
        [("once-reflected", 9.449552762284891e-07), ("born1", 7.225898120360513e-07)],
    )
    def test_wound_but_resolved_rows_pass(self, tmp_path, method, r_squared):
        # The phase winds 10.4 rad across the outer panels, but they carry
        # little of int |r| dx and |R| is 1e-3 of it: 2048 panels give these
        # |R|^2, 7.8e-12 and 7.1e-12 from 256 panels' values.
        out = tmp_path / "rows.csv"
        code = run_cli(
            ["transmission", *self.ECKART, "--mass=1024", "--energy=1.1",
             f"--method={method}", f"--output={out}"]
        )
        assert code == 0
        assert float(out.read_text().splitlines()[1].split(",")[3]) == pytest.approx(
            r_squared, rel=1e-10
        )

    def test_scan_fails_at_its_first_unresolved_energy(self, capsys):
        # E = 1.5 is resolved; E = 2.25 is the first energy that is not.
        args = [*self.ECKART, "--mass=256", "--method=once-reflected"]
        code = run_cli(["scan", *args, "--e-min=1.5", "--e-max=3", "--steps=3"])
        scan = capsys.readouterr()
        assert run_cli(["transmission", *args, "--energy=2.25"]) == code == 4
        assert (scan.out, scan.err) == ("", capsys.readouterr().err)
        assert scan.err.startswith("E_NUMERIC: E = 2.25: ")


class TestTruncatedDomain:
    """The sums take the domain edges for +/- infinity: once-reflected and
    born1 refuse, with exit 4, a domain where the sum past its two edges may
    reach 1 % of |R|."""

    GAUSSIAN = ["--form=gaussian", "--amplitude=0.01", "--width=1", "--energy=2"]

    @pytest.mark.parametrize(
        "problem, ratios",
        [
            # |R|^2 printed 2.155e-08, 23 % below the +/-12 row.
            ([*GAUSSIAN, "--x-min=-2", "--x-max=2"], ("0.31", "0.29")),
            # r never decays: |R|^2 printed 2.21e-07 on +/-10 and 3.97e-07 on +/-20.
            (["--form=linear", "--offset=0", "--slope=0.01", "--energy=2"], ("1.3", "1.3")),
            # r vanishes at the barrier top, just outside the left edge, so |r|
            # rises steeply inward there; the winding, not that rise, bounds
            # the sum past the edge.  |R| read 0.062 (0.12 on +/-40).
            (["--form=eckart", "--height=1", "--width=1", "--x-min=0.02", "--x-max=14",
              "--mass=1", "--energy=2"], ("0.059", "1")),
        ],
        ids=["gaussian-2", "ramp", "eckart-beside-the-top"],
    )
    def test_exit_4(self, capsys, problem, ratios):
        for method, ratio in zip(("once-reflected", "born1"), ratios):
            assert run_cli(["transmission", *problem, f"--method={method}"]) == 4
            assert capsys.readouterr() == (
                "",
                "E_DOMAIN: E = 2: the integrand has not decayed at the domain edges, where the "
                f"sum beyond them may reach {ratio} of |R|, more than 1%; widen the domain\n",
            )

    def test_both_edges_count(self, capsys):
        # Each edge of +/-6 alone stays under 1 %; |R|^2 printed 8.649e-10,
        # 1.5 % off in |R| from 8.390e-10 on +/-40.
        code = run_cli(
            ["transmission", "--form=eckart", "--height=1", "--width=1", "--x-min=-6",
             "--x-max=6", "--mass=32", "--energy=2", "--method=once-reflected"]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_DOMAIN: E = 2: the integrand has not decayed")
        assert err.count("\n") == 1

    def test_born1_on_the_standard_eckart_domain(self, tmp_path):
        # At E 1.9, +/-14 cuts Vtilde at 1.2e-12 of its peak, which a fixed cut
        # at 1e-12 refused with exit 4; the sum past the edges is 1.7e-12 of
        # |R1|, and the rows agree with +/-30 to 6.5e-13.
        rows = {}
        for reach in ("14", "30"):
            out = tmp_path / f"{reach}.csv"
            code = run_cli(
                ["scan", "--form=eckart", "--height=1", "--width=1", f"--x-min=-{reach}",
                 f"--x-max={reach}", "--mass=4", "--method=born1", "--e-min=1.2", "--e-max=1.9",
                 "--steps=8", f"--output={out}"]
            )
            assert code == 0
            rows[reach] = [float(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
        np.testing.assert_allclose(rows["14"], rows["30"], rtol=1e-9, atol=0.0)

    def test_wide_domain_row_is_kept(self, capsys):
        code = run_cli(
            ["transmission", *self.GAUSSIAN, "--x-min=-12", "--x-max=12",
             "--method=once-reflected"]
        )
        assert code == 0
        assert capsys.readouterr() == (
            "E,re_R,im_R,R_squared,method\n2,-0.00012794423334564918,0.00010854608351660455,"
            "2.8151979093199614e-08,once-reflected\n",
            "",
        )


class TestJumpRefused:
    """The reflection sums see V' and V'' only, which miss a jump of V: a
    square barrier is refused, not answered with R = 0."""

    @pytest.mark.parametrize("method", ["once-reflected", "born1"])
    @pytest.mark.parametrize(
        "command",
        [["transmission", "--energy=1.5"], ["scan", "--e-min=1.2", "--e-max=1.9", "--steps=4"]],
    )
    def test_square_barrier_exit_3(self, capsys, method, command):
        code = run_cli(
            [command[0], *BARRIER_FORMS["square"], "--mass=4", f"--method={method}", *command[1:]]
        )
        assert code == 3
        assert capsys.readouterr() == (
            "",
            "E_REGIME: V jumps at x = -1 and x = 1; the reflection sums need a smooth "
            "potential (use the exact method)\n",
        )

    def test_exact_method_still_answers(self, capsys):
        code = run_cli(
            ["transmission", *BARRIER_FORMS["square"], "--mass=4", "--method=exact",
             "--energy=1.5"]
        )
        assert code == 0
        r = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        assert r == pytest.approx(0.1603, abs=1e-4)


class TestMalformedConfigValues:
    """A config value of the wrong type is a config error, not an internal one."""

    @pytest.mark.parametrize(
        "section, key, value, flags",
        [
            ("oracle", "grid_points", "abc", ["--steps=3", "--method=exact"]),
            ("problem", "energy", "tiny", []),
            ("scan", "steps", "ten", []),
        ],
    )
    def test_exit_2(self, tmp_path, capsys, section, key, value, flags):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        args = ["scan", f"--config={cfg}", *BARRIER_FORMS["eckart"], "--e-min=0.1", "--e-max=0.5"]
        assert run_cli([*args, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:")
        assert f"[{section}] {key}: {value!r}" in err


#: The scans of the `exact` benchmark (m = 4): 12 energies below the top of
#: the Eckart, Gaussian and square barriers, 8 above the Eckart and square
#: tops and above the weak bump; and an opaque square barrier (T ~ 1e-93 to
#: 1e-47).
EXACT_SCANS = {
    "eckart-below": (BARRIER_FORMS["eckart"], "0.2", "0.8", 12),
    "gaussian-below": (BARRIER_FORMS["gaussian"], "0.2", "0.8", 12),
    "square-below": (BARRIER_FORMS["square"], "0.2", "0.8", 12),
    "eckart-above": (BARRIER_FORMS["eckart"], "1.21", "1.89", 8),
    "square-above": (BARRIER_FORMS["square"], "1.21", "1.89", 8),
    "weak-above": (
        ["--form=gaussian", "--amplitude=0.002", "--width=0.5", "--x-min=-8", "--x-max=8"],
        "0.34", "0.94", 8,
    ),
    "opaque": (
        ["--form=square", "--height=40", "--width=6", "--x-min=-12", "--x-max=12"],
        "0.5", "30", 8,
    ),
}


class TestExactScan:
    """An exact scan sets up its grid once; each row is what one energy gives."""

    def _rows(self, tmp_path, args):
        out = tmp_path / "rows.csv"
        assert run_cli([*args, "--mass=4", "--method=exact", f"--output={out}"]) == 0
        return out.read_text().splitlines()

    @pytest.mark.parametrize("scan", sorted(EXACT_SCANS))
    def test_scan_rows_match_single_energies(self, tmp_path, monkeypatch, scan):
        form, e_min, e_max, steps = EXACT_SCANS[scan]
        if scan == "opaque":
            # psi grows by ~e^107 across the barrier: three segments at a
            # bound of 1e20, where the default 1e150 leaves one.
            from semiclassic import exact_oracle

            monkeypatch.setattr(exact_oracle, "_SEGMENT_GROWTH", math.log(1e20))
        rows = self._rows(
            tmp_path, ["scan", *form, f"--e-min={e_min}", f"--e-max={e_max}", f"--steps={steps}"]
        )
        assert len(rows) == steps + 1
        for row in rows[1:]:
            one = self._rows(tmp_path, ["transmission", *form, f"--energy={row.split(',')[0]}"])
            assert one == [rows[0], row]

    def test_scan_from_a_closed_channel_fails_as_one_energy_would(self, capsys):
        code = run_cli(
            ["scan", *BARRIER_FORMS["square"], "--method=exact",
             "--e-min=-0.5", "--e-max=0.5", "--steps=4"]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "E_CHANNEL_CLOSED: E = -0.5 must exceed the edge potential by more than 1e-06 "
            "for an open scattering channel\n"
        )

    def test_scan_evaluates_v_once(self, tmp_path, monkeypatch):
        from semiclassic.potential import ScatteringProblem

        points = []
        v = ScatteringProblem.v
        monkeypatch.setattr(
            ScatteringProblem, "v", lambda p, x: points.append(np.size(x)) or v(p, x)
        )
        self._rows(
            tmp_path,
            ["scan", *BARRIER_FORMS["eckart"], "--e-min=0.2", "--e-max=0.8", "--steps=12"],
        )
        assert points == [20001]

    def test_coarse_grid_wave_exit_4(self, capsys):
        code = run_cli(
            ["wavefunction", *BARRIER_FORMS["eckart"], "--mass=20", "--energy=3",
             "--grid-points=1001", "--method=exact"]
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("E_NUMERIC: unitarity violated: T + R - 1 = ")


class TestInvalidOracleConfig:
    """A grid that would crash the oracle is a config error, reported before
    the problem is solved."""

    # V is not flat at the edges of +/-4: a valid grid raises E_MATCHING.
    UNFLAT = ["scan", "--form=gaussian", "--amplitude=1", "--width=3", "--x-min=-4",
              "--x-max=4", "--method=exact", "--e-min=0.2", "--e-max=0.5", "--steps=4"]

    @pytest.mark.parametrize(
        "key, value",
        [("grid_points", "1000"), ("grid_points", "20000"), ("grid_points", "999"),
         ("grid_points", "0"), ("grid_points", "-1")],
    )
    def test_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(f"[oracle]\n{key} = {value}\n")
        code = run_cli([*self.UNFLAT, f"--config={cfg}"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"E_CONFIG: invalid oracle config: {key} ")

    def test_unflat_edges_exit_4(self, capsys):
        assert run_cli(self.UNFLAT) == 4
        assert capsys.readouterr() == (
            "",
            "E_MATCHING: potential is not flat to 1e-10 max(1, |E|) on the outer 5% of the "
            "domain; widen the domain before asking for plane-wave matching\n",
        )


class TestReadmeConfig:
    """The README's config block drives a run, and documents no key that the
    CLI never reads."""

    def test_every_key_is_read(self, tmp_path, monkeypatch):
        from pathlib import Path

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)
        documented = {
            (section, key) for section, keys in cli._load_config_file(str(cfg)).items()
            for key in keys
        }
        read = set()
        setting = cli._setting

        def recording(sections, section, key, *args, **kwargs):
            read.add((section, key))
            return setting(sections, section, key, *args, **kwargs)

        monkeypatch.setattr(cli, "_setting", recording)
        monkeypatch.chdir(tmp_path)  # the block writes [output] path = out.csv
        assert run_cli(["scan", f"--config={cfg}", "--method=exact"]) == 0
        assert (tmp_path / "out.csv").read_text().startswith("E,T,R,sigma_star,method\n")
        assert documented
        assert documented - read == set()


class TestUsageErrorsExit2:
    """Every invalid input exits 2 with one ``E_CONFIG: message`` line."""

    ECKART = [
        "transmission", "--form=eckart", "--height=1", "--width=1", "--energy=0.5",
        "--x-min=-14", "--x-max=14",
    ]

    @pytest.mark.parametrize("flag, value, message", [
        ("--mass", "0", "invalid problem: mass must be positive and finite, got 0.0"),
        ("--mass", "-1", "invalid problem: mass must be positive and finite, got -1.0"),
        ("--hbar", "nan", "invalid problem: hbar must be positive and finite, got nan"),
        ("--width", "nan", "invalid problem: width must be strictly positive, got nan"),
        ("--height", "inf", "invalid problem: height must be finite, got inf"),
        ("--energy", "nan", "invalid problem: energy must be finite, got nan"),
        ("--x-min", "-inf", "invalid problem: domain must satisfy x_min < x_max"),
        ("--energy", "abc", "argument --energy: invalid float value: 'abc'"),
        ("--bogus", "1", "unrecognized arguments: --bogus 1"),
    ])
    def test_invalid_value(self, capsys, flag, value, message):
        assert run_cli([*self.ECKART, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"E_CONFIG: {message}")
        assert err.count("\n") == 1

    def test_missing_command(self, capsys):
        assert run_cli([]) == 2
        assert capsys.readouterr().err == (
            "E_CONFIG: the following arguments are required: command\n"
        )

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: semiclassic scan")

    def test_non_finite_table(self, tmp_path, capsys):
        table = tmp_path / "pot.txt"
        table.write_text("-2 0\n-1 nan\n0 1\n1 0.5\n2 0\n")
        code = run_cli(
            ["transmission", "--form=tabulated", f"--table-file={table}", "--energy=0.5",
             "--x-min=-2", "--x-max=2"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "E_CONFIG: invalid problem: tabulated grid: x and V must be finite\n"
        )

    def test_unwritable_output(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert run_cli([*self.ECKART, "--method=wkb", f"--output={path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"E_CONFIG: cannot write output {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_outgoing_amplitude(self, capsys, value):
        code = run_cli(
            ["wavefunction", "--form=eckart", "--height=1", "--width=1", "--mass=64",
             "--energy=0.55", "--x-min=-14", "--x-max=14", "--method=connection",
             "--outgoing-amplitude", value]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"E_CONFIG: --outgoing-amplitude must be finite, got {float(value)}\n"
        )

    @pytest.mark.parametrize("method", ["wkb", "exact", "once-reflected"])
    @pytest.mark.parametrize("bounds", [("1.5", "inf"), ("-inf", "1.5"), ("nan", "1.5")])
    def test_non_finite_scan_bounds(self, capsys, method, bounds):
        # They printed nan rows with exit 0 (once-reflected and born1), exited
        # 4 (exact) or 3 (wkb), depending on the method.
        code = run_cli(
            ["scan", "--form=gaussian", "--amplitude=0.01", "--width=1", f"--method={method}",
             f"--e-min={bounds[0]}", f"--e-max={bounds[1]}", "--steps=3"]
        )
        assert code == 2
        assert capsys.readouterr() == (
            "",
            f"E_CONFIG: scan needs finite e_min < e_max, got [{float(bounds[0])}, "
            f"{float(bounds[1])}]\n",
        )


class TestBadAiryArgument:
    """A --z value that airy rejects is a config error, like any bad flag."""

    @pytest.mark.parametrize("value", ["nan", "inf", "1e6"])
    def test_exit_2(self, capsys, value):
        assert run_cli(["airy", "--z", "1", "--z", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("E_CONFIG: invalid --z: airy: ")
        assert captured.err.count("\n") == 1


def _csv_table(text):
    header, *lines = text.splitlines()
    return header.split(","), [line.split(",") for line in lines]


def _structured_table(text):
    assert text.endswith("\n") and not text.endswith("\n\n")
    blocks = [block.split("\n") for block in text[:-1].split("\n\n")]
    columns = [line.split(" = ", 1)[0] for line in blocks[0]]
    rows = []
    for block in blocks:
        assert [line.split(" = ", 1)[0] for line in block] == columns
        rows.append([line.split(" = ", 1)[1] for line in block])
    return columns, rows


#: One invocation of every table command and method family.
TABLE_COMMANDS = {
    "transmission": ["transmission", *BARRIER_FORMS["eckart"], "--energy=0.5"],
    "scan": ["scan", *BARRIER_FORMS["square"], "--e-min=0.2", "--e-max=0.8", "--steps=5"],
    "scan-once-reflected": [
        "scan", *BARRIER_FORMS["eckart"], "--method=once-reflected",
        "--e-min=1.5", "--e-max=2", "--steps=3",
    ],
    "bound-states-wkb": ["bound-states", "--form=harmonic", "--stiffness=1", "--n-max=2"],
    "bound-states-exact": [
        "bound-states", "--form=harmonic", "--stiffness=1", "--x-min=-6", "--x-max=6",
        "--n-max=2", "--method=exact", "--grid-points=3001",
    ],
    "wavefunction-connection": [
        "wavefunction", *BARRIER_FORMS["eckart"], "--mass=4", "--energy=0.5",
        "--method=connection",
    ],
    "wavefunction-exact": [
        "wavefunction", *BARRIER_FORMS["eckart"], "--mass=4", "--energy=0.5",
        "--method=exact", "--grid-points=4001",
    ],
    "airy": ["airy", "--z=-5", "--z=0", "--z=2.5"],
}


class TestStructuredText:
    """Every table command writes the same cells in either format."""

    @pytest.mark.parametrize("name", sorted(TABLE_COMMANDS))
    def test_blocks_match_csv(self, tmp_path, name):
        texts = {}
        for fmt in ("csv", "structured-text"):
            out = tmp_path / f"{fmt}.txt"
            assert run_cli([*TABLE_COMMANDS[name], f"--format={fmt}", f"--output={out}"]) == 0
            texts[fmt] = out.read_text()
        columns, rows = _csv_table(texts["csv"])
        assert rows
        assert _structured_table(texts["structured-text"]) == (columns, rows)


class TestPatchedWaveRegime:
    def test_above_the_top_exit_3_as_transmission(self, capsys):
        args = [*BARRIER_FORMS["eckart"], "--mass=4", "--energy=1.5", "--method=connection"]
        assert run_cli(["transmission", *args]) == 3
        transmission_err = capsys.readouterr().err
        assert run_cli(["wavefunction", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == transmission_err
        assert captured.err.startswith("E_NO_BARRIER: ")


#: Argument lists that a command's own parser and the top-level parser must
#: treat alike: every command, the shared options, negative values in any
#: notation, help, and each kind of usage error.
PARSE_CASES = [
    ["transmission", *BARRIER_FORMS["eckart"], "--energy=0.5", "--method=born1"],
    ["transmission", "--config", "run.cfg", "--mass", "2", "--x-min", "-3e-05"],
    ["transmission", "--form=eckart", "--center", "-1E+0", "--x-min=-inf", "--format=csv"],
    ["scan", *BARRIER_FORMS["square"], "--e-min=0.2", "--e-max=0.8", "--steps=5",
     "--format", "structured-text", "--output", "out.txt"],
    ["bound-states", "--form=harmonic", "--stiffness=1", "--n-max", "2", "--method=exact"],
    ["wavefunction", *BARRIER_FORMS["eckart"], "--outgoing-amplitude", "-2.5"],
    ["airy", "--z", "-1e-3", "--z=2", "--format=structured-text"],
    ["verify", "--output", "verify.csv"],
    ["verify"],
    ["scan", "--help"],
    ["airy", "-h"],
    ["--help"],
    [],
    ["transmision", "--energy=0.5"],
    ["--energy=0.5", "transmission"],
    ["transmission", "--bogus", "1"],
    ["transmission", "--energy", "abc"],
    ["transmission", "--energy"],
    ["transmission", "--method=wkb", "extra"],
    ["bound-states", "--method=connection"],
    ["airy"],
    ["verify", "--x-min=1"],
]


def parse_outcome(parse, argv, capsys):
    """What ``parse(argv)`` gives: a Namespace, the stderr line and exit code
    that ``main`` reports for its error, or a help exit; with what it printed."""
    try:
        outcome = parse(argv)
    except SemiclassicError as exc:
        outcome = (f"{exc.code}: {exc}\n", exc.exit_code)
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


class TestDispatch:
    """argv[0] naming a command goes straight to that command's parser."""

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
    def test_command_parser_matches_top_level(self, capsys, argv):
        top = parse_outcome(cli._make_parser()[0].parse_args, argv, capsys)
        assert parse_outcome(cli._parse, argv, capsys) == top

    def test_command_skips_the_top_level_parser(self, monkeypatch, capsys):
        parser, calls = cli._make_parser()[0], []
        top = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: calls.append(argv) or top(argv))
        assert run_cli(["airy", "--z=0"]) == 0
        assert calls == []
        assert run_cli(["transmision"]) == 2
        assert calls == [["transmision"]]
