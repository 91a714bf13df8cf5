"""Root finding on the spectral condition alpha * eta(kappa) = 1.

Level counts are cross-checked against the independent oracle "number of
kernel eigenvalues above 1/alpha just over the threshold", which is what the
monotonicity of eta in kappa reduces the counting problem to.
"""

import math

import numpy as np
import pytest
import scipy.optimize

from leakywire import geometry as geo
from leakywire import spectrum
from leakywire.bs_core import Grid, assemble, top_eigenpairs
from leakywire.spectrum import (
    NoBoundState,
    SpectralResult,
    eta,
    solve_all,
    solve_ground,
    solve_threshold,
)


@pytest.fixture(scope="module")
def bent_result():
    sc = geo.ScaledCurve(geo.broken_line(1.0), 1.0)
    grid = Grid.uniform(100.0, 1000)
    return sc, grid, solve_ground(sc, 1.0, grid)


class TestStraightLine:
    def test_no_bound_state(self):
        straight = geo.ScaledCurve(geo.CurveSpec(), 0.0)
        out = solve_ground(straight, 1.0, Grid.uniform(60.0, 600))
        assert isinstance(out, NoBoundState)
        assert not out
        assert out.margin < 0.0

    def test_eta_near_half_alpha_over_kappa(self):
        # alpha * eta_1(kappa) for the straight line approaches
        # alpha / (2 kappa); at kappa = alpha the discrete value on a long
        # grid sits just under 1/2
        straight = geo.ScaledCurve(geo.CurveSpec(), 0.0)
        val = eta(straight, 1.0, Grid.uniform(120.0, 1600))
        assert 0.49 < val < 0.50

    def test_threshold_below_nominal(self):
        for L, n in ((60.0, 600), (100.0, 1600)):
            thr = solve_threshold(1.0, Grid.uniform(L, n))
            assert thr < 0.5
            assert thr > 0.47
        # finer grid pulls the threshold toward alpha/2
        coarse = solve_threshold(1.0, Grid.uniform(60.0, 400))
        fine = solve_threshold(1.0, Grid.uniform(60.0, 1600))
        assert abs(fine - 0.5) < abs(coarse - 0.5)


class TestGroundState:
    def test_bent_line_binds(self, bent_result):
        sc, grid, res = bent_result
        assert isinstance(res, SpectralResult)
        assert res.eigenvalue < -0.25
        assert res.residual < 1e-6
        assert res.level == 1

    def test_spectral_condition_holds(self, bent_result):
        sc, grid, res = bent_result
        assert eta(sc, res.kappa, grid) == pytest.approx(1.0, abs=1e-7)

    def test_eigenfunction_normalized_and_localized(self, bent_result):
        sc, grid, res = bent_result
        f = res.eigenfunction
        assert float(grid.h * np.sum(f * f)) == pytest.approx(1.0, rel=1e-10)
        # mass concentrates near the corner, tails die off
        inner = np.abs(grid.nodes) < 20.0
        assert grid.h * np.sum(f[inner] ** 2) > 0.5
        edge = np.abs(grid.nodes) > 0.9 * grid.L
        assert np.max(np.abs(f[edge])) < np.max(np.abs(f)) * 0.2

    def test_to_dict_contract(self, bent_result):
        _, grid, res = bent_result
        d = res.to_dict()
        assert set(d) == {"kappa", "lambda", "delta", "residual", "grid",
                          "curve_hash"}
        assert set(d["grid"]) == {"L", "n"}
        assert d["lambda"] == -d["kappa"] ** 2

    def test_deterministic(self):
        sc = geo.ScaledCurve(geo.broken_line(1.0), 1.0)
        grid = Grid.uniform(60.0, 700)
        a = solve_ground(sc, 1.0, grid)
        b = solve_ground(sc, 1.0, grid)
        assert a.kappa == b.kappa
        assert np.array_equal(a.eigenfunction, b.eigenfunction)


class TestRootFinding:
    def test_each_kappa_assembled_once(self, monkeypatch):
        sc = geo.ScaledCurve(geo.broken_line(1.5), 1.0)
        grid = Grid.uniform(30.0, 300)
        assembled = []
        real_assemble = spectrum.assemble
        monkeypatch.setattr(
            spectrum, "assemble",
            lambda curve, kappa, grid:
                assembled.append(kappa) or real_assemble(curve, kappa, grid))
        brent = {}
        real_brentq = scipy.optimize.brentq

        def counted_brentq(f, a, b, **kw):
            brent["before"] = len(assembled)
            out = real_brentq(f, a, b, **kw)
            brent["calls"] = out[1].function_calls
            brent["after"] = len(assembled)
            return out

        monkeypatch.setattr(scipy.optimize, "brentq", counted_brentq)
        res = spectrum.solve_ground(sc, 1.0, grid)

        assert isinstance(res, SpectralResult)
        assert len(set(assembled)) == len(assembled)
        # 1 margin check + bracket-end probes before Brent; Brent's first two
        # calls are the bracket ends, already assembled; result() adds none
        bracket_steps = brent["before"] - 1
        assert bracket_steps >= 1
        assert len(assembled) == 1 + bracket_steps + brent["calls"] - 2
        assert brent["after"] == len(assembled)
        assert len(assembled) <= 12

    @pytest.mark.parametrize("which", ["ground", "threshold"])
    def test_root_brackets_sign_change(self, which):
        grid = Grid.uniform(30.0, 300)
        tol = 1e-8
        if which == "ground":
            curve = geo.ScaledCurve(geo.broken_line(1.5), 1.0)
            kappa = solve_ground(curve, 1.0, grid, tol=tol).kappa
        else:
            curve = geo.ScaledCurve(geo.CurveSpec(), 0.0)
            kappa = solve_threshold(1.0, grid, tol=tol)
        assert eta(curve, kappa - tol, grid) - 1.0 > 0.0 > eta(curve, kappa + tol, grid) - 1.0


class TestMonotonicity:
    def test_eta_strictly_decreasing(self, zigzag, broken):
        grid = Grid.uniform(30.0, 300)
        kappas = np.linspace(0.3, 1.5, 7)
        for curve, beta in ((zigzag, 1.0), (broken, 0.7), (geo.CurveSpec(), 0.0)):
            sc = geo.ScaledCurve(curve, beta)
            vals = [eta(sc, float(k), grid) for k in kappas]
            assert np.all(np.diff(vals) < 0.0)

    def test_second_level_also_decreasing(self, twin_corners):
        sc = geo.ScaledCurve(twin_corners, 1.0)
        grid = Grid.uniform(60.0, 400)
        vals = [eta(sc, k, grid, j=2) for k in (0.4, 0.6, 0.9)]
        assert vals[0] > vals[1] > vals[2]


class TestMultiLevel:
    def test_twin_corner_doublet(self, twin_corners):
        sc = geo.ScaledCurve(twin_corners, 1.0)
        grid = Grid.uniform(120.0, 1000)
        levels = solve_all(sc, 1.0, grid, maxk=4)
        assert len(levels) == 2
        assert levels[0].eigenvalue < levels[1].eigenvalue < -0.25
        assert levels[0].level == 1 and levels[1].level == 2

        # independent count oracle: eigenvalues above 1/alpha at the floor
        mat = assemble(sc, 0.5 * (1 + 1e-9), grid)
        vals, _ = top_eigenpairs(mat, 4)
        assert int(np.sum(vals > 1.0)) == 2

        # eigenfunctions of distinct levels are orthogonal in the grid norm
        f1, f2 = levels[0].eigenfunction, levels[1].eigenfunction
        overlap = float(grid.h * np.sum(f1 * f2))
        assert abs(overlap) < 1e-8

    def test_cluster_flagging(self, twin_corners):
        sc = geo.ScaledCurve(twin_corners, 1.0)
        grid = Grid.uniform(120.0, 1000)
        # with a loose tolerance the doublet is one near-degenerate cluster
        levels = solve_all(sc, 1.0, grid, maxk=2, cluster_tol=1e-2)
        assert [r.near_degenerate for r in levels] == [True, True]
        strict = solve_all(sc, 1.0, grid, maxk=2)
        assert [r.near_degenerate for r in strict] == [False, False]

    def test_maxk_respected(self, twin_corners):
        sc = geo.ScaledCurve(twin_corners, 1.0)
        grid = Grid.uniform(120.0, 1000)
        levels = solve_all(sc, 1.0, grid, maxk=1)
        assert len(levels) == 1


class TestThresholdAnchoring:
    def test_weakly_bound_state_recovered(self):
        # on this grid the discretization bias pushes kappa* below alpha/2:
        # the nominal floor misses the state, the anchored floor finds it
        sc = geo.ScaledCurve(geo.broken_line(1.0), 1.0)
        grid = Grid.uniform(150.8, 1207)
        plain = solve_ground(sc, 1.0, grid)
        assert isinstance(plain, NoBoundState)
        thr = solve_threshold(1.0, grid)
        anchored = solve_ground(sc, 1.0, grid, kappa_floor=thr)
        assert isinstance(anchored, SpectralResult)
        gap = anchored.kappa ** 2 - thr ** 2
        assert 0.0 < gap < 0.01
        assert gap == pytest.approx(2.66e-3, rel=0.1)

    def test_floor_validation(self):
        sc = geo.ScaledCurve(geo.broken_line(1.0), 1.0)
        grid = Grid.uniform(30.0, 200)
        for bad in (0.0, -1.0, 3.0):
            with pytest.raises(ValueError):
                solve_ground(sc, 1.0, grid, kappa_floor=bad)


class TestScalingCovariance:
    def test_doubling_alpha_quarters_lambda(self):
        # alpha -> 2 alpha with the grid shrunk by 2 maps the kernel matrix
        # to exactly half itself, so lambda scales by 4 to root-finding accuracy
        sc = geo.ScaledCurve(geo.broken_line(1.0), 1.0)
        r1 = solve_ground(sc, 1.0, Grid.uniform(60.0, 600), tol=1e-10)
        r2 = solve_ground(sc, 2.0, Grid.uniform(30.0, 600), tol=2e-10)
        assert r2.eigenvalue / r1.eigenvalue == pytest.approx(4.0, rel=1e-8)


class TestValidation:
    def test_bad_alpha(self):
        sc = geo.ScaledCurve(geo.broken_line(1.0), 1.0)
        with pytest.raises(ValueError):
            solve_ground(sc, -1.0, Grid.uniform(10.0, 50))
        with pytest.raises(ValueError):
            solve_ground(sc, math.nan, Grid.uniform(10.0, 50))
