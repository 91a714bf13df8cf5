"""Root finding on the spectral condition alpha * eta(kappa) = 1.

Level counts are cross-checked against the independent oracle "number of
kernel eigenvalues above 1/alpha just over the threshold", which is what the
monotonicity of eta in kappa reduces the counting problem to.
"""

import math

import numpy as np
import pytest
from conftest import eta

from leakywire import geometry as geo
from leakywire import spectrum
from leakywire.bs_core import Grid, assemble, top_eigenpairs
from leakywire.spectrum import (
    NoBoundState,
    SpectralResult,
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
        assert set(d) == {"kappa", "lambda", "delta", "residual", "kappa_error",
                          "grid", "curve_hash"}
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
    def test_newton_assembles_each_kappa_once(self, monkeypatch):
        sc = geo.ScaledCurve(geo.broken_line(1.5), 1.0)
        grid = Grid.uniform(30.0, 300)
        assembled = []
        real_assemble = spectrum.assemble
        monkeypatch.setattr(
            spectrum, "assemble",
            lambda curve, kappa, grid, **kw:
                assembled.append(kappa) or real_assemble(curve, kappa, grid, **kw))
        res = spectrum.solve_ground(sc, 1.0, grid)
        assert isinstance(res, SpectralResult)
        # the margin check, then root steps; the result adds none
        assert len(set(assembled)) == len(assembled) <= 3
        assembled.clear()
        spectrum.solve_threshold(1.0, grid)
        assert len(set(assembled)) == len(assembled) <= 4

    def test_no_slope_at_failing_margin_check(self, monkeypatch):
        # one bound level: level 2's margin comes from the evaluation at
        # the floor that level 1 starts from, so its failing check costs no
        # assembly and no slope, and later evaluations ask for level 1 alone
        sc = geo.ScaledCurve(geo.broken_line(1.5), 1.0)
        grid = Grid.uniform(30.0, 300)
        assembled, slopes = [], []
        real_assemble, real_slope = spectrum.assemble, spectrum.slope_form
        monkeypatch.setattr(
            spectrum, "assemble",
            lambda curve, kappa, grid, parities=None:
                assembled.append((kappa, parities))
                or real_assemble(curve, kappa, grid, parities))
        monkeypatch.setattr(
            spectrum, "slope_form",
            lambda curve, kappa, grid, vecs:
                slopes.append((kappa, vecs.shape[1]))
                or real_slope(curve, kappa, grid, vecs))
        levels = solve_all(sc, 1.0, grid, maxk=2)
        assert len(levels) == 1
        kappas = [kappa for kappa, _ in assembled]
        assert kappas[0] == spectrum._Solver(sc, 1.0, grid).kappa_lo()
        assert len(set(kappas)) == len(kappas)
        # both blocks once, at the floor; the even block alone after it
        assert [p for _, p in assembled] == [(1, -1)] + [(1,)] * (len(kappas) - 1)
        # one single-column slope pass per evaluated kappa, all for level 1
        assert slopes == [(kappa, 1) for kappa in kappas]

    def test_levels_share_evaluations(self, twin_corners, monkeypatch):
        # the wiggle frame breaks the mirror symmetry, so every evaluation
        # is one full assembly that serves both levels of the doublet
        sc = geo.ScaledCurve(geo.to_wiggle_frame(twin_corners), 1.0)
        grid = Grid.uniform(60.0, 400)
        assembled = []
        real_assemble = spectrum.assemble
        monkeypatch.setattr(
            spectrum, "assemble",
            lambda curve, kappa, grid, **kw:
                assembled.append(kappa) or real_assemble(curve, kappa, grid, **kw))
        levels = solve_all(sc, 1.0, grid, maxk=2)
        assert len(levels) == 2
        assert len(set(assembled)) == len(assembled) <= 4

    def test_error_bar_bounds_true_error(self):
        sc = geo.ScaledCurve(geo.broken_line(1.0), 1.0)
        grid = Grid.uniform(40.0, 400)
        tol = 1e-6
        loose = solve_ground(sc, 1.0, grid, tol=tol)
        tight = solve_ground(sc, 1.0, grid, tol=1e-13)
        assert 0.0 < loose.kappa_error < 0.5 * tol
        assert abs(loose.kappa - tight.kappa) <= 2.0 * loose.kappa_error
        assert tight.kappa_error < 0.5e-13

    def test_error_bar_bounds_true_error_of_doublet(self, twin_corners):
        sc = geo.ScaledCurve(twin_corners, 1.0)
        grid = Grid.uniform(60.0, 400)
        tol = 1e-6
        loose = solve_all(sc, 1.0, grid, maxk=2, tol=tol)
        tight = solve_all(sc, 1.0, grid, maxk=2, tol=1e-13)
        assert len(loose) == len(tight) == 2
        for a, b in zip(loose, tight):
            assert 0.0 < a.kappa_error < 0.5 * tol
            assert abs(a.kappa - b.kappa) <= 2.0 * a.kappa_error
            assert b.kappa_error < 0.5e-13

    def test_no_sign_change_below_cap(self):
        # g stays positive up to the unevaluated upper end: the bracket
        # closes onto it and the search gives up
        with pytest.raises(spectrum.NumericalError, match="no sign change"):
            spectrum._newton(lambda x: 1.0 - x / 100.0, lambda x: -0.01,
                             0.5, 0.5, 10.0, 1e-8)

    def test_bisects_when_slope_unusable(self):
        # a nonnegative slope gives no Newton step: bisection alone closes
        # the bracket around the root, and its width is the error bar
        kappa, error = spectrum._newton(lambda x: 0.3 - x, lambda x: 1.0,
                                        0.5, 0.0, 1.0, 1e-6)
        assert 0.0 < error < 0.5e-6
        assert abs(kappa - 0.3) <= error

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


def on_full_matrix(monkeypatch, solve, *args, **kwargs):
    """Run a solve with the curve's mirror symmetry hidden, so every level
    comes from the whole n x n matrix."""
    with monkeypatch.context() as patch:
        patch.setattr(geo, "mirror_symmetric", lambda curve: False)
        return solve(*args, **kwargs)


def record_assemblies(monkeypatch):
    """Wrap spectrum.assemble; returns the list of parities it was asked for."""
    seen = []
    real_assemble = spectrum.assemble
    monkeypatch.setattr(
        spectrum, "assemble",
        lambda curve, kappa, grid, parities=None:
            seen.append(parities) or real_assemble(curve, kappa, grid, parities))
    return seen


class TestMirrorFold:
    @pytest.mark.parametrize("case", ["corner_odd", "corner_even", "zigzag"])
    def test_ground_matches_full_path(self, case, broken, zigzag, monkeypatch):
        curve = geo.ScaledCurve(zigzag if case == "zigzag" else broken, 1.0)
        grid = Grid.uniform(30.0, 300 if case == "corner_even" else 301)
        thr = solve_threshold(1.0, grid)
        seen = record_assemblies(monkeypatch)
        folded = solve_ground(curve, 1.0, grid, kappa_floor=thr)
        assert seen and set(seen) == {(1,)}
        count = len(seen)
        full = on_full_matrix(monkeypatch, solve_ground, curve, 1.0, grid,
                              kappa_floor=thr)
        assert set(seen[count:]) == {None}
        assert abs(folded.kappa - full.kappa) <= 1e-12
        assert abs(folded.residual - full.residual) <= 1e-12
        f, g = folded.eigenfunction, full.eigenfunction
        assert len(f) == grid.n
        assert np.max(np.abs(f - np.sign(f @ g) * g)) <= 1e-11 * np.max(np.abs(g))
        # the ground state is even under s -> -s
        assert np.array_equal(f[::-1], f)

    @pytest.mark.parametrize("n", [301, 300])
    def test_threshold_matches_full_path(self, n, monkeypatch):
        grid = Grid.uniform(30.0, n)
        seen = record_assemblies(monkeypatch)
        folded = solve_threshold(1.0, grid)
        assert set(seen) == {(1,)}
        full = on_full_matrix(monkeypatch, solve_threshold, 1.0, grid)
        assert abs(folded - full) <= 1e-12

    def test_twin_levels_match_full_path(self, twin_corners, monkeypatch):
        sc = geo.ScaledCurve(twin_corners, 1.0)
        grid = Grid.uniform(60.0, 401)
        for cluster_tol in (None, 1e-2):
            folded = solve_all(sc, 1.0, grid, maxk=3, cluster_tol=cluster_tol)
            full = on_full_matrix(monkeypatch, solve_all, sc, 1.0, grid, maxk=3,
                                  cluster_tol=cluster_tol)
            assert len(folded) == len(full) == 2
            for a, b in zip(folded, full):
                assert abs(a.kappa - b.kappa) <= 1e-12
                assert a.near_degenerate == b.near_degenerate == (cluster_tol is not None)
        # the upper level of the doublet comes from the odd block
        f1, f2 = folded[0].eigenfunction, folded[1].eigenfunction
        assert np.array_equal(f1[::-1], f1)
        assert np.array_equal(f2[::-1], -f2)
        # level 3 does not bind; at the floor the merged blocks give the
        # full matrix's top three values
        solver = spectrum._Solver(sc, 1.0, grid)
        kappa = solver.kappa_lo()
        assert solver.g(kappa, 3) < 0.0
        for j in (1, 2, 3):
            assert solver.eigen(kappa, j)[0] == pytest.approx(
                eta(sc, kappa, grid, j), rel=1e-14)

    @pytest.mark.parametrize("case", ["unequal", "off_centre", "wiggle_frame"])
    def test_asymmetric_curves_take_full_path(self, case, twin_corners, monkeypatch):
        curve = {
            "unequal": geo.CurveSpec(vertices=((-2.0, 1.2), (2.0, 1.1))),
            "off_centre": geo.shift(geo.broken_line(1.5), 0.3),
            "wiggle_frame": geo.to_wiggle_frame(twin_corners),
        }[case]
        seen = record_assemblies(monkeypatch)
        res = solve_ground(geo.ScaledCurve(curve, 1.0), 1.0, Grid.uniform(30.0, 200))
        assert isinstance(res, SpectralResult)
        assert seen and set(seen) == {None}


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
