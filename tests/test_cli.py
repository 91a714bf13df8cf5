"""End-to-end command line behavior: exit codes, payload shapes, file output.

Everything runs main() in process for speed; one test drives the installed
console script through a real subprocess to check the packaging wiring.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from leakywire.cli import EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, main

BROKEN = '{"segments": [], "vertices": [{"s": 0.0, "angle": 1.0}]}'
ZIGZAG = ('{"segments": [], "vertices": ['
          '{"s": -1.0, "angle": 0.7853981633974483}, '
          '{"s": 1.0, "angle": -0.7853981633974483}]}')
STRAIGHT = '{"segments": [], "vertices": []}'


@pytest.fixture()
def corner_file(tmp_path):
    path = tmp_path / "corner.json"
    path.write_text(BROKEN)
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "leakywire" in capsys.readouterr().out


class TestValidate:
    def test_ok(self, corner_file, capsys):
        rc, data = run_json(capsys, ["validate", "--curve", corner_file])
        assert rc == EXIT_OK
        assert data["ok"] is True
        assert data["chord_constant"] > 0.0
        assert data["n_samples"] > 0

    def test_overscaled_angle(self, corner_file, capsys):
        rc, data = run_json(capsys, ["validate", "--curve", corner_file,
                                     "--beta", "3.5"])
        assert rc == EXIT_INVALID
        assert data["ok"] is False
        assert data["messages"]

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["validate", "--curve", str(tmp_path / "nope.json")])
        assert rc == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_malformed_curve(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"segments": [{"a": 0, "b": 1}], "vertices": []}')
        rc = main(["validate", "--curve", str(bad)])
        assert rc == EXIT_INVALID
        assert "error:" in capsys.readouterr().err


class TestSolve:
    def test_explicit_grid(self, corner_file, capsys, tmp_path):
        out = tmp_path / "solve.json"
        rc, data = run_json(capsys, [
            "solve", "--curve", corner_file, "--n", "400", "--L", "60",
            "--json", str(out)])
        assert rc == EXIT_OK
        assert data["grid"] == {"L": 60.0, "n": 400}
        assert data["kappa_threshold"] < 0.5
        level = data["levels"][0]
        # raw lambda can land either side of -1/4 on a coarse grid; the
        # bias-corrected gap against the same-grid threshold is what counts
        assert level["kappa"] > data["kappa_threshold"]
        assert level["gap_corrected"] > 0.0
        assert level["residual"] < 1e-6
        # the root's error bar, below half the default tolerance 1e-8 alpha
        assert 0.0 <= level["kappa_error"] < 0.5e-8
        # --json mirrors stdout into the file
        assert json.loads(out.read_text()) == data

    def test_straight_line_reports_none(self, tmp_path, capsys):
        path = tmp_path / "straight.json"
        path.write_text(STRAIGHT)
        rc, data = run_json(capsys, ["solve", "--curve", str(path),
                                     "--beta", "0.0"])
        assert rc == EXIT_OK
        assert data["no_bound_state"] is True

    def test_tol_zero_is_default(self, corner_file, capsys):
        # 0 selects the default tolerance, as in the sweep commands
        grid = ["--n", "64", "--L", "20", "--maxk", "2"]
        rc, plain = run_json(capsys, ["solve", "--curve", corner_file] + grid)
        assert rc == EXIT_OK
        rc, zero = run_json(capsys, ["solve", "--curve", corner_file] + grid
                            + ["--tol", "0"])
        assert rc == EXIT_OK
        assert zero["levels"] == plain["levels"]
        assert zero["kappa_threshold"] == plain["kappa_threshold"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra, names", [
        (["--n", "1", "--L", "10"], "n >= 2"),
        (["--beta", "4"], "angle"),
        (["--n", "64", "--L", "20", "--maxk", "0"], "maxk"),
        (["--n", "64", "--L", "nan"], "L=nan"),
        (["--n", "64", "--L", "inf"], "L=inf"),
        (["--n", "64", "--L", "20", "--tol", "nan"], "tol must"),
        (["--n", "64", "--L", "20", "--tol", "-1"], "tol must"),
    ], ids=["grid_too_small", "angle_over_pi", "maxk_zero", "L_nan", "L_inf",
            "tol_nan", "tol_negative"])
    def test_bad_numeric_input(self, corner_file, capsys, extra, names):
        rc = main(["solve", "--curve", corner_file] + extra)
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        # the message names the argument at fault
        assert names in err


class TestCoef:
    def test_corner_coefficient(self, corner_file, capsys):
        rc, data = run_json(capsys, ["coef", "--curve", corner_file,
                                     "--rel-tol", "1e-4", "--beta", "0.8"])
        assert rc == EXIT_OK
        assert data["integral"] == pytest.approx(1 / (6 * math.pi), rel=1e-3)
        assert data["predicted_gap"] == pytest.approx(
            data["gap_coefficient"] * 0.8 ** 4, rel=1e-12)
        assert data["predicted_eigenvalue"] == pytest.approx(
            -0.25 - data["predicted_gap"], rel=1e-12)


class TestSweeps:
    def test_sweep_beta_files(self, corner_file, capsys, tmp_path):
        prefix = str(tmp_path / "sweep")
        rc = main(["sweep-beta", "--curve", corner_file,
                   "--betas", "0.9,1.1", "--n", "300", "--L", "40",
                   "--workers", "1", "--out", prefix])
        assert rc == EXIT_OK
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["kind"] == "sweep_beta"
        assert len(data["rows"]) == 2
        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 3
        dat_lines = (tmp_path / "sweep.dat").read_text().splitlines()
        assert dat_lines[0].startswith("# ")

    def test_sweep_phi_stdout(self, tmp_path, capsys):
        path = tmp_path / "zig.json"
        path.write_text(ZIGZAG)
        rc, data = run_json(capsys, [
            "sweep-phi", "--curve", str(path), "--phis=-0.04,0,0.04",
            "--n", "300", "--L", "40"])
        assert rc == EXIT_OK
        assert data["kind"] == "sweep_phi"
        ratio = data["extras"]["slopes"][0]["slope_ratio"]
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_converge(self, corner_file, capsys):
        rc, data = run_json(capsys, ["converge", "--curve", corner_file,
                                     "--n", "200", "--L", "30",
                                     "--beta", "1.0"])
        assert rc == EXIT_OK
        assert data["kind"] == "convergence"
        assert len(data["rows"]) == 4

    def test_converge_straight_is_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "straight.json"
        path.write_text(STRAIGHT)
        rc = main(["converge", "--curve", str(path)])
        assert rc == EXIT_NUMERICAL
        assert "error:" in capsys.readouterr().err

    def test_bad_tol_rejected(self, corner_file, capsys):
        # a sweep must not run silently at the default tolerance
        rc = main(["sweep-beta", "--curve", corner_file, "--betas", "1.0",
                   "--n", "64", "--L", "20", "--tol", "-1"])
        assert rc == EXIT_INVALID
        assert "tol must" in capsys.readouterr().err

    def test_empty_number_list_rejected(self, corner_file, capsys):
        # a shell quoting slip like --betas= must not sweep nothing
        with pytest.raises(SystemExit) as exc:
            main(["sweep-beta", "--curve", corner_file, "--betas="])
        assert exc.value.code == 2
        assert "empty number list" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        (tmp_path / "corner.json").write_text(BROKEN)
        cfg = {"curve_file": "corner.json", "beta_list": [1.0],
               "n": 300, "L": 40, "workers": 1}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        rc, data = run_json(capsys, [
            "sweep-beta", "--config", str(cfg_path), "--betas", "1.1"])
        assert rc == EXIT_OK
        # the flag replaced the config's beta list; grid still from config
        assert [row["beta"] for row in data["rows"]] == [1.1]
        assert data["rows"][0]["n"] == 300


class TestConsoleScript:
    def test_installed_entry_point(self, corner_file):
        proc = subprocess.run(
            [sys.executable, "-m", "leakywire", "validate",
             "--curve", corner_file],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_cold_import_leaves_out_integrate(self):
        # a fresh interpreter, since the test modules load scipy.integrate
        # themselves; only the coefficient commands need it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, leakywire, leakywire.cli; "
             "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_coef_loads_integrate_on_use(self, corner_file):
        proc = subprocess.run(
            [sys.executable, "-m", "leakywire", "coef", "--curve", corner_file],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["integral"] == pytest.approx(
            1 / (6 * math.pi), rel=1e-3)

    def test_closed_stdout_is_quiet(self, corner_file):
        # as in `leakywire solve ... | head`: the reader is gone before the
        # payload is printed
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "leakywire", "solve", "--curve",
                 corner_file, "--n", "64", "--L", "20"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""
