"""CLI behavior: dispatch, config handling, determinism, error codes."""

import math

import pytest

from semiclassic import cli


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
