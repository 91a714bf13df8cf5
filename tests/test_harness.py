"""Experiment configs, grid sizing, fits, reports, and sweep smoke runs.

Sweep smoke tests pin small explicit grids so they stay fast; the acceptance
suite exercises the automatic sizing at production scale.
"""

import csv
import json
import math

import numpy as np
import pytest

from leakywire import geometry as geo
from leakywire import harness
from leakywire.harness import (
    ConfigError,
    ExperimentConfig,
    SweepReport,
    auto_grid,
    config_from_json,
    convergence,
    fit_power_law,
    max_workers,
    sweep_beta,
    sweep_phi,
)
from leakywire.spectrum import NumericalError

BROKEN_JSON = '{"segments": [], "vertices": [{"s": 0.0, "angle": 1.0}]}'


def make_config(curve, **kw):
    return ExperimentConfig(curve=curve, **kw)


class TestConfig:
    def test_from_json_inline_curve(self):
        text = json.dumps({
            "curve": json.loads(BROKEN_JSON),
            "alpha": 2.0,
            "beta_list": [0.5, 1.0],
            "n": 300,
            "L": 40,
        })
        cfg = config_from_json(text)
        assert cfg.alpha == 2.0
        assert cfg.beta_list == (0.5, 1.0)
        assert cfg.n == 300 and cfg.L == 40.0
        assert cfg.curve.vertices[0].angle == 1.0

    def test_from_json_curve_file(self, tmp_path):
        (tmp_path / "corner.json").write_text(BROKEN_JSON)
        cfg = config_from_json('{"curve_file": "corner.json"}',
                               base_dir=str(tmp_path))
        assert cfg.curve.vertices[0].s == 0.0

    @pytest.mark.parametrize("text", [
        '{"curve": {"segments": [], "vertices": []}, "bogus": 1}',
        '{"alpha": 1.0}',
        '{"curve": {"segments": [], "vertices": []}, "curve_file": "x.json"}',
        '[1, 2]',
        'not json',
        '{"curve": {"segments": [], "vertices": []}, "beta_list": 0.5}',
        '{"curve": {"segments": [], "vertices": []}, "maxk": 0}',
        '{"curve": {"segments": [], "vertices": []}, "tol": -1}',
        '{"curve": {"segments": [], "vertices": []}, "tol": NaN}',
        '{"curve": {"segments": [], "vertices": []}, "tol": Infinity}',
        '{"curve": {"segments": [], "vertices": []}, "seed": 3}',
    ])
    def test_from_json_rejects(self, text):
        with pytest.raises(ConfigError):
            config_from_json(text)

    @pytest.mark.parametrize("key, value, match", [
        ("n_cap", 0, "n_cap"),
        ("n_cap", 1, "n_cap"),
        ("L", "1e400", "L=inf"),
        ("L", "NaN", "L=nan"),
        ("nodes_per_unit", "1e400", "nodes_per_unit=inf"),
        ("decay_multiplier", "1e400", "decay_multiplier=inf"),
        ("n", 3.7, "n must be an integer"),
        ("n_cap", 800.5, "n_cap must be an integer"),
        ("maxk", 1.5, "maxk must be an integer"),
        ("workers", 2.5, "workers must be an integer"),
        ("n", "1e400", "n must be an integer"),
        ("maxk", '"2"', "maxk must be an integer"),
    ])
    def test_from_json_rejects_value(self, key, value, match):
        # 1e400 parses as inf, which no grid can use; a fractional count is
        # refused, not truncated
        text = f'{{"curve": {BROKEN_JSON}, "{key}": {value}}}'
        with pytest.raises(ConfigError, match=match):
            config_from_json(text)

    def test_from_json_integral_float_count(self):
        cfg = config_from_json(f'{{"curve": {BROKEN_JSON}, "n": 300.0, "maxk": 2}}')
        assert (cfg.n, cfg.maxk) == (300, 2)
        assert isinstance(cfg.n, int)

    def test_validation(self, broken):
        with pytest.raises(ConfigError):
            make_config(broken, alpha=-1.0)
        with pytest.raises(ConfigError):
            make_config(broken, phi_list=(3.5,))
        with pytest.raises(ConfigError):
            make_config(broken, beta_list=(0.0,))
        with pytest.raises(ConfigError):
            make_config(broken, nodes_per_unit=0.0)
        with pytest.raises(ConfigError, match="maxk"):
            make_config(broken, maxk=0)
        # tol = 0 is the default sentinel; anything else must be a real tolerance
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="tol"):
                make_config(broken, tol=tol)

    def test_tol_or_none(self, broken):
        assert make_config(broken).tol_or_none() is None
        assert make_config(broken, tol=1e-7).tol_or_none() == 1e-7


class TestAutoGrid:
    def test_sizing_from_decay(self, broken):
        cfg = make_config(broken, decay_multiplier=8.0, nodes_per_unit=4.0)
        grid = auto_grid(cfg, 0.05)
        assert grid.L == pytest.approx(160.0)
        assert grid.n == math.ceil(2 * grid.L * 4.0)

    def test_explicit_overrides(self, broken):
        cfg = make_config(broken, n=500, L=77.0)
        grid = auto_grid(cfg, 0.001)
        assert (grid.L, grid.n) == (77.0, 500)

    def test_cap_coarsens_then_guards_spacing(self, broken):
        # mild cap: L stays, h grows a little
        cfg = make_config(broken, n_cap=5000, nodes_per_unit=8.0)
        grid = auto_grid(cfg, 0.01)
        assert grid.n == 5000
        assert grid.L == pytest.approx(800.0)
        # harsh cap: L gives way before the spacing passes 1/alpha
        cfg = make_config(broken, n_cap=1000, nodes_per_unit=8.0)
        grid = auto_grid(cfg, 0.01)
        assert grid.n == 1000
        assert grid.L == pytest.approx(500.0)
        assert grid.h <= 1.0

    def test_floor_for_fat_decay(self, broken):
        # even with a huge decay rate L never collapses under the deformation
        cfg = make_config(broken, alpha=1.0)
        grid = auto_grid(cfg, 5.0)
        assert grid.L >= 10.0


class TestFitPowerLaw:
    def test_exact_recovery(self):
        x = np.array([0.5, 0.8, 1.1, 1.6])
        fit = fit_power_law(x, 2.8e-3 * x ** 4)
        assert fit["exponent"] == pytest.approx(4.0, abs=1e-12)
        assert fit["prefactor"] == pytest.approx(2.8e-3, rel=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert fit["n_points"] == 4 and fit["excluded"] == 0

    def test_excludes_bad_points(self):
        x = [0.5, 1.0, 2.0, 4.0]
        y = [0.25, 1.0, -3.0, 16.0]
        fit = fit_power_law(x, y)
        assert fit["excluded"] == 1
        assert fit["n_points"] == 3
        assert fit["exponent"] == pytest.approx(2.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(NumericalError):
            fit_power_law([1.0, 2.0], [1.0, -1.0])


class TestMaxWorkers:
    def test_default_small(self, broken, monkeypatch):
        monkeypatch.delenv("LEAKYWIRE_MAX_WORKERS", raising=False)
        assert max_workers(make_config(broken), njobs=5) == 2
        assert max_workers(make_config(broken), njobs=1) == 1

    def test_config_request(self, broken, monkeypatch):
        monkeypatch.delenv("LEAKYWIRE_MAX_WORKERS", raising=False)
        assert max_workers(make_config(broken, workers=6), njobs=4) == 4
        assert max_workers(make_config(broken, workers=3), njobs=9) == 3

    def test_env_cap(self, broken, monkeypatch):
        monkeypatch.setenv("LEAKYWIRE_MAX_WORKERS", "1")
        assert max_workers(make_config(broken, workers=6), njobs=9) == 1

    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_env_cap_malformed(self, broken, monkeypatch, value):
        monkeypatch.setenv("LEAKYWIRE_MAX_WORKERS", value)
        with pytest.raises(ConfigError, match="LEAKYWIRE_MAX_WORKERS"):
            max_workers(make_config(broken), njobs=3)


class TestSweepReport:
    @pytest.fixture()
    def report(self):
        rows = ({"beta": 0.5, "gap": 1.5e-4}, {"beta": 1.0, "gap": 2.5e-3})
        return SweepReport(kind="demo", alpha=1.0, curve={"segments": []},
                           rows=rows, fit={"exponent": 4.0},
                           extras={"note": 1}, generated_at="2026-08-19T00:00:00+00:00")

    def test_json_round_trip(self, report, tmp_path):
        p = tmp_path / "r.json"
        report.write_json(p)
        data = json.loads(p.read_text())
        assert data["kind"] == "demo"
        assert data["rows"][1]["gap"] == 2.5e-3
        assert data["fit"]["exponent"] == 4.0
        # identical report serializes byte-identically
        p2 = tmp_path / "r2.json"
        report.write_json(p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_csv_parse_back(self, report, tmp_path):
        p = tmp_path / "r.csv"
        report.write_csv(p)
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["beta"] == "0.5"
        assert float(rows[1]["gap"]) == 2.5e-3

    def test_dat_layout(self, report, tmp_path):
        p = tmp_path / "r.dat"
        report.write_dat(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "# beta gap"
        assert len(lines) == 3
        assert [float(v) for v in lines[2].split()] == [1.0, 2.5e-3]


class TestSweepBeta:
    def test_smoke(self, broken):
        cfg = make_config(broken, beta_list=(0.9, 1.1), n=400, L=60.0,
                          tol=1e-8, workers=1)
        rep = sweep_beta(cfg)
        assert rep.kind == "sweep_beta"
        assert [r["beta"] for r in rep.rows] == [0.9, 1.1]
        for row in rep.rows:
            assert row["outcome"] == "bound_state"
            assert row["gap_corrected"] > 0.0
            assert row["kappa_threshold"] < 0.5
            assert row["L"] == 60.0 and row["n"] == 400
            # the solve's error bar rides along, below the tolerance
            assert 0.0 < row["kappa_error"] < 1e-8
        # on a shared grid both points reuse one threshold solve
        assert rep.rows[0]["kappa_threshold"] == rep.rows[1]["kappa_threshold"]
        assert rep.fit["n_points"] == 2
        # crude grid, two points: only a loose quartic check makes sense
        assert 3.0 < rep.fit["exponent"] < 5.0
        assert rep.extras["gap_coefficient"] == pytest.approx(1 / (36 * math.pi**2),
                                                              rel=2e-5)

    def test_single_point_gives_no_fit(self, broken):
        cfg = make_config(broken, beta_list=(1.0,), n=300, L=40.0, workers=1)
        rep = sweep_beta(cfg)
        assert rep.rows[0]["outcome"] == "bound_state"
        assert rep.fit is None

    def test_parallel_matches_serial(self, broken):
        cfg1 = make_config(broken, beta_list=(0.9, 1.1), n=300, L=40.0, workers=1)
        cfg2 = make_config(broken, beta_list=(0.9, 1.1), n=300, L=40.0, workers=2)
        r1 = sweep_beta(cfg1)
        r2 = sweep_beta(cfg2)
        assert [row["kappa"] for row in r1.rows] == [row["kappa"] for row in r2.rows]


class TestSweepPhi:
    def test_smoke(self, zigzag):
        cfg = make_config(zigzag, phi_list=(-0.04, 0.0, 0.04), n=360, L=40.0,
                          maxk=1, tol=1e-9)
        rep = sweep_phi(cfg)
        assert rep.kind == "sweep_phi"
        assert len(rep.extras["levels"]) == 1
        assert len(rep.rows) == 3
        assert all(0.0 < row["kappa_error"] < 1e-9 for row in rep.rows)
        lam = {row["phi"]: row["lambda"] for row in rep.rows}
        slope_info = rep.extras["slopes"][0]
        assert lam[0.0] == pytest.approx(slope_info["lambda0"], abs=1e-12)
        # the three-point secant and the kernel prediction agree closely
        assert slope_info["slope_ratio"] == pytest.approx(1.0, abs=0.05)
        fd = (lam[0.04] - lam[-0.04]) / 0.08
        assert slope_info["slope_fitted"] == pytest.approx(fd, rel=1e-6)

    def test_zero_angle_reuses_levels(self, zigzag, monkeypatch):
        # phi = 0 is the unperturbed curve: its rows are the base levels,
        # not a second solve of the same curve on the same grid
        calls = []
        real = harness.solve_all

        def counting(curve, *args, **kw):
            calls.append(curve)
            return real(curve, *args, **kw)

        monkeypatch.setattr(harness, "solve_all", counting)
        cfg = make_config(zigzag, phi_list=(-0.04, 0.0, 0.04), n=240, L=30.0,
                          maxk=1, tol=1e-9)
        rep = sweep_phi(cfg)
        assert len(calls) == 3
        row = next(r for r in rep.rows if r["phi"] == 0.0)
        assert row["lambda"] == rep.extras["levels"][0]


class TestConvergence:
    def test_grid_ladder(self, broken):
        cfg = make_config(broken, n=240, L=30.0, tol=1e-8)
        rep = convergence(cfg, beta=1.0)
        assert rep.kind == "convergence"
        assert [row["grid"] for row in rep.rows] == ["h,L", "h/2,L", "h,2L", "h/2,2L"]
        assert [row["n"] for row in rep.rows] == [240, 480, 480, 960]
        for row in rep.rows:
            assert row["gap_corrected"] > 0.0
            assert row["residual"] < 1e-6
            assert 0.0 < row["kappa_error"] < 1e-8
        ex = rep.extras
        assert ex["error_estimate"] > 0.0
        assert ex["extrapolated"] < -0.25
        # threshold subtraction cancels the h-bias: halving h at fixed L
        # moves the corrected gap far less than the raw eigenvalue
        assert abs(ex["gap_h_difference"]) < 0.1 * abs(ex["h_difference"])
