"""Kernel matrix assembly and the symmetric eigensolver layer.

The diagonal reference values were computed with mpmath quadrature of the cell
average of K0 at 30 digits and are frozen here; the small Jacobi sweep in
TestEigensolver is an independent oracle for the packaged solver.  The
piecewise assembly is checked against a dense matrix built entry by entry in
this file.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from leakywire import bs_core
from leakywire import geometry as geo
from leakywire.bs_core import (
    DENSE_CUTOFF,
    EigensolverError,
    Grid,
    assemble,
    diag_correction,
    q_kernel,
    slope_form,
    top_eigenpairs,
    unfold,
)
from leakywire.specfun import bessel_k0

# cases whose cross blocks are large enough for cross approximation: the
# unit corner with its vertex on a cell edge (even n) and on a node (odd n),
# twin corners in the wiggle frame, a zigzag and an arc segment
LARGE_CASES = ["corner_1504", "corner_1503", "twin_1200", "zigzag_1000",
               "arc_1000"]



class TestGrid:
    def test_uniform_midpoint(self):
        g = Grid.uniform(2.0, 4)
        assert g.nodes == pytest.approx([-1.5, -0.5, 0.5, 1.5])
        assert g.h == pytest.approx(1.0)

    def test_even_n_avoids_origin(self):
        # even node counts keep cell centers off a vertex at arc length 0;
        # odd counts put one there, which is fine (positions stay defined)
        for n in (4, 256):
            g = Grid.uniform(10.0, n)
            assert np.abs(g.nodes).min() > 1e-12
        assert np.abs(Grid.uniform(10.0, 101).nodes).min() == 0.0

    def test_invariants(self):
        for L, n in ((-1.0, 10), (1.0, 0), (math.nan, 10), (math.inf, 10)):
            with pytest.raises(ValueError, match="0 < L < inf and n >= 2"):
                Grid.uniform(L, n)


class TestDiagCorrection:
    def test_frozen_reference(self):
        assert diag_correction(1.0, 0.1) == pytest.approx(
            0.654539015356, rel=1e-11)
        # kappa h / 2 = 2, the widest cell auto_grid builds below kappa = 4 alpha
        assert diag_correction(1.0, 4.0) == pytest.approx(
            0.117271388815551, rel=1e-14)
        # far past the cell's decay length the K0 integral is pi/2, also
        # where the modified Struve functions would overflow (kappa h / 2 > 713)
        for kh in (200.0, 2000.0):
            assert diag_correction(1.0, kh) == pytest.approx(0.5 / kh, rel=1e-15)

    def test_depends_on_product_only(self):
        # the cell average is a function of kappa * h alone
        assert diag_correction(2.0, 0.05) == pytest.approx(
            diag_correction(1.0, 0.1), rel=1e-13)
        assert diag_correction(0.25, 0.4) == pytest.approx(
            diag_correction(1.0, 0.1), rel=1e-13)

    def test_small_product_expansion(self):
        # (1/2pi)(log(2/(kappa h)) + 1 - gamma + log 2) as kappa h -> 0
        kh = 1e-6
        expect = (math.log(2.0 / kh) + 1.0 - 0.5772156649015329
                  + math.log(2.0)) / (2.0 * math.pi)
        assert diag_correction(1.0, kh) == pytest.approx(expect, rel=1e-9)

    def test_exceeds_neighbor_value(self):
        # the averaged singular cell dominates the adjacent plain kernel value
        h = 0.05
        assert diag_correction(1.0, h) > bessel_k0(h) / (2.0 * math.pi)

    def test_domain(self):
        for bad in ((0.0, 0.1), (1.0, 0.0), (-1.0, 0.1), (math.nan, 0.1)):
            with pytest.raises(ValueError):
                diag_correction(*bad)


class TestQKernel:
    def test_straight_reference(self):
        straight = geo.ScaledCurve(geo.CurveSpec(), 0.0)
        assert q_kernel(straight, 1.0, 0.0, 1.0) == pytest.approx(
            0.42102443824070833 / (2.0 * math.pi), rel=1e-12)

    def test_bent_uses_chord(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        rho = math.sqrt(2.0 + 2.0 * math.cos(1.0))
        assert q_kernel(sc, 1.0, -1.0, 1.0) == pytest.approx(
            bessel_k0(rho) / (2.0 * math.pi), rel=1e-12)

    def test_diagonal_rejected(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        with pytest.raises(ValueError):
            q_kernel(sc, 1.0, 0.5, 0.5)


class TestAssemble:
    def test_matches_entries(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        grid = Grid.uniform(5.0, 10)
        mat = assemble(sc, 0.8, grid)
        h = grid.h
        for i in (0, 3, 9):
            for j in (1, 5, 8):
                if i == j:
                    continue
                expect = h * q_kernel(sc, 0.8, grid.nodes[i], grid.nodes[j])
                assert mat[i, j] == pytest.approx(expect, rel=1e-12)
        assert mat[4, 4] == pytest.approx(h * diag_correction(0.8, h), rel=1e-12)

    def test_symmetric(self, zigzag):
        sc = geo.ScaledCurve(zigzag, 1.0)
        mat = assemble(sc, 0.7, Grid.uniform(8.0, 64))
        assert np.array_equal(mat, mat.T)

    @pytest.mark.parametrize("case", LARGE_CASES + ["corner_odd", "corner_even",
                                                    "wiggle", "arc"])
    def test_matches_dense_reference(self, case, broken, zigzag, twin_corners,
                                     monkeypatch):
        curve, grid = reference_case(case, broken, zigzag, twin_corners)
        factored = spy_aca(monkeypatch)
        ref = dense_reference(curve, 0.7, grid)
        mat = assemble(curve, 0.7, grid)
        assert np.max(np.abs(mat - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(mat, mat.T)
        # the large cases take the low-rank path, the small ones do not
        assert any(f is not None for f in factored) == (case in LARGE_CASES)

    def test_cross_blocks_from_few_values(self, broken, monkeypatch):
        # a bent unit corner at n = 1504: the 752 x 752 cross block from
        # its cross approximation factors, the Toeplitz rows and the
        # sampled check, together under a tenth of the block's entries,
        # in assemble (K0) and in slope_form (K1)
        evals = []
        for name in ("bessel_k0", "bessel_k1"):
            real = getattr(bs_core, name)
            monkeypatch.setattr(bs_core, name, lambda x, real=real:
                                evals.append(np.size(x)) or real(x))
        n = 1504
        sc = geo.ScaledCurve(broken, 1.0)
        grid = Grid.uniform(94.0, n)
        assemble(sc, 0.55, grid)
        assert sum(evals) <= 0.1 * (n // 2) ** 2
        evals.clear()
        # K1 values, and one K0 value for the diagonal term
        slope_form(sc, 0.55, grid, np.ones((n, 1)))
        assert sum(evals) <= 0.1 * (n // 2) ** 2

    def test_missed_check_falls_back_to_direct(self, broken, monkeypatch):
        # a kernel with a spike on the chords beyond 120, the far corner of
        # the cross block where K0 is below 1e-28 of its values near the
        # vertex: the pivots stay near the vertex and never see it, the
        # sampled entries do, and the block is evaluated directly
        kappa = 0.55
        real = bs_core.bessel_k0

        def spiked(x):
            return real(x) + 1e-6 * (np.asarray(x) > kappa * 120.0)

        sc = geo.ScaledCurve(broken, 1.0)
        grid = Grid.uniform(94.0, 1504)
        factored = spy_aca(monkeypatch)
        assemble(sc, kappa, grid)
        assert [f is not None for f in factored] == [True]
        factored.clear()
        monkeypatch.setattr(bs_core, "bessel_k0", spiked)
        mat = assemble(sc, kappa, grid)
        assert factored == [None]
        ref = dense_reference(sc, kappa, grid, k0=spiked)
        assert np.max(np.abs(mat - ref)) <= 1e-13 * np.max(np.abs(ref))
        spike = np.max(np.abs(mat - dense_reference(sc, kappa, grid)))
        assert spike == pytest.approx(1e-6 * grid.h / (2.0 * math.pi), rel=1e-6)

    @pytest.mark.parametrize("n", [41, 40])
    def test_toeplitz_straight_line(self, n):
        # odd n puts a node on s = 0, even n a cell edge
        straight = geo.ScaledCurve(geo.CurveSpec(), 0.0)
        grid = Grid.uniform(7.0, n)
        ref = dense_reference(straight, 0.6, grid)
        fast = assemble(straight, 0.6, grid)
        assert np.max(np.abs(fast - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_k0_evaluated_once_per_distinct_entry(self, broken, monkeypatch):
        evals = []
        real = bs_core.bessel_k0
        monkeypatch.setattr(bs_core, "bessel_k0",
                            lambda x: evals.append(np.size(x)) or real(x))
        n = 40
        cases = (
            # one Toeplitz run: one row
            (geo.ScaledCurve(geo.CurveSpec(), 0.0), Grid.uniform(5.0, n), n - 1),
            (geo.ScaledCurve(broken, 0.0), Grid.uniform(5.0, n), n - 1),
            # a zero-curvature segment is no break
            (geo.CurveSpec(segments=((-1.0, 1.0, 0.0),)), Grid.uniform(5.0, n), n - 1),
            # two tails: two rows and the cross block
            (geo.ScaledCurve(broken, 0.5), Grid.uniform(5.0, n),
             2 * (n // 2 - 1) + (n // 2) ** 2),
        )
        for curve, grid, expect in cases:
            evals.clear()
            assemble(curve, 0.8, grid)
            assert sum(evals) == expect

    def test_bent_peak_memory(self, broken):
        n = 1200
        sc = geo.ScaledCurve(broken, 1.0)
        grid = Grid.uniform(75.0, n)
        tracemalloc.start()
        try:
            assemble(sc, 0.5, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n * n

    def test_entry_decay(self):
        # far off-diagonal entries fall below the exponential envelope
        straight = geo.ScaledCurve(geo.CurveSpec(), 0.0)
        grid = Grid.uniform(40.0, 200)
        mat = assemble(straight, 1.0, grid)
        h = grid.h
        i = 0
        dist = np.abs(grid.nodes - grid.nodes[i])
        far = dist > 5.0
        bound = h * np.exp(-dist[far]) / np.sqrt(dist[far])
        assert np.all(mat[i, far] <= bound)

    def test_refinement_converges(self, broken):
        # the raw top eigenvalue converges first order in h (the midpoint
        # rule misses O(h) on the cells adjacent to the log diagonal, the
        # same amount for every curve, which is what the threshold
        # subtraction in the solver layer cancels)
        sc = geo.ScaledCurve(broken, 1.0)
        vals = []
        for n in (200, 400, 800):
            v, _ = top_eigenpairs(assemble(sc, 0.6, Grid.uniform(30.0, n)), 1)
            vals.append(v[0])
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < 0.65 * d1

    def test_alpha_grid_covariance(self, broken):
        # shrinking the grid by 2 at doubled kappa halves every entry
        sc = geo.ScaledCurve(broken, 1.0)
        g1 = Grid.uniform(16.0, 128)
        g2 = Grid.uniform(8.0, 128)
        m1 = assemble(sc, 0.7, g1)
        m2 = assemble(sc, 1.4, g2)
        assert m2 == pytest.approx(0.5 * m1, rel=1e-12)


class TestFold:
    @pytest.fixture
    def cases(self, broken, zigzag):
        straight = geo.ScaledCurve(geo.CurveSpec(), 0.0)
        corner = geo.ScaledCurve(broken, 1.0)
        return [(corner, Grid.uniform(6.0, 41)), (corner, Grid.uniform(6.0, 40)),
                (geo.ScaledCurve(zigzag, 1.0), Grid.uniform(6.0, 41)),
                (straight, Grid.uniform(6.0, 41)), (straight, Grid.uniform(6.0, 40))]

    def test_blocks_share_full_spectrum(self, cases):
        # the even and odd blocks together carry every eigenvalue of M
        for curve, grid in cases:
            full = np.linalg.eigvalsh(assemble(curve, 0.7, grid))
            even, odd = assemble(curve, 0.7, grid, parities=(1, -1))
            assert (len(even), len(odd)) == ((grid.n + 1) // 2, grid.n // 2)
            # symmetric up to the rounding in M's centrosymmetry
            for block in (even, odd):
                assert np.max(np.abs(block - block.T)) <= 1e-15 * np.max(block)
            folded = np.sort(np.concatenate((np.linalg.eigvalsh(even),
                                             np.linalg.eigvalsh(odd))))
            assert np.max(np.abs(folded - full)) <= 1e-14 * np.max(np.abs(full))

    def test_block_residual_is_full_residual(self, cases):
        for curve, grid in cases:
            mat = assemble(curve, 0.7, grid)
            blocks = assemble(curve, 0.7, grid, parities=(1, -1))
            for parity, block in zip((1, -1), blocks):
                vals, vecs = top_eigenpairs(block, 2)
                full = unfold(vecs[:, 0], grid.n, parity)
                assert np.linalg.norm(full) == pytest.approx(1.0, rel=1e-14)
                assert np.array_equal(full[::-1], parity * full)
                # the identity holds for any vector, not only eigenvectors
                u = vecs[:, 0] + 0.1 * vecs[:, 1]
                for vec in (vecs[:, 0], u):
                    block_res = np.linalg.norm(block @ vec - vals[0] * vec)
                    v = unfold(vec, grid.n, parity)
                    full_res = np.linalg.norm(mat @ v - vals[0] * v)
                    assert abs(block_res - full_res) <= 1e-14 * max(full_res, vals[0])
                assert np.linalg.norm(mat @ full - vals[0] * full) <= 1e-13 * vals[0]

    @pytest.mark.parametrize("case", ["corner_1504", "corner_1503"])
    def test_low_rank_blocks(self, case, broken, zigzag, twin_corners, monkeypatch):
        # the cross block B = U @ V is centrosymmetric only to the sampled
        # check's bound, so A + parity*BJ is symmetric to twice that, not
        # to rounding; the blocks still carry the dense reference's spectrum
        curve, grid = reference_case(case, broken, zigzag, twin_corners)
        factored = spy_aca(monkeypatch)
        even, odd = assemble(curve, 0.7, grid, parities=(1, -1))
        assert factored and all(f is not None for f in factored)
        ref = dense_reference(curve, 0.7, grid)
        scale = np.max(np.abs(ref))
        for block in (even, odd):
            assert np.max(np.abs(block - block.T)) <= 2 * bs_core._ACA_CHECK * scale
        full = np.linalg.eigvalsh(ref)
        folded = np.sort(np.concatenate((np.linalg.eigvalsh(even),
                                         np.linalg.eigvalsh(odd))))
        assert np.max(np.abs(folded - full)) <= 1e-13 * np.max(np.abs(full))

    def test_asymmetric_curve_not_folded(self, broken):
        for curve in (geo.CurveSpec(vertices=((-2.0, 0.6), (2.0, 0.5))),
                      geo.shift(broken, 0.3)):
            with pytest.raises(ValueError, match="mirror-symmetric"):
                assemble(curve, 0.7, Grid.uniform(6.0, 40), parities=(1,))

    def test_folded_peak_memory(self, broken):
        # the first ceil(n/2) rows and the blocks, no n x n matrix: below
        # the 1.5 matrices the unfolded bent assembly peaks at
        n = 1200
        sc = geo.ScaledCurve(broken, 1.0)
        grid = Grid.uniform(75.0, n)
        tracemalloc.start()
        try:
            assemble(sc, 0.5, grid, parities=(1, -1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n


class TestSlopeForm:
    @pytest.mark.parametrize("case", ["corner_odd", "corner_even", "zigzag",
                                      "twin", "straight"])
    def test_matches_central_difference(self, case, broken, zigzag,
                                        twin_corners, rng):
        curve, grid, m = {
            "corner_odd": (geo.ScaledCurve(broken, 1.0), Grid.uniform(20.0, 201), 1),
            "corner_even": (geo.ScaledCurve(broken, 1.0), Grid.uniform(20.0, 200), 1),
            "zigzag": (geo.ScaledCurve(zigzag, 1.0), Grid.uniform(20.0, 200), 1),
            "twin": (geo.ScaledCurve(twin_corners, 1.0), Grid.uniform(40.0, 300), 2),
            "straight": (geo.ScaledCurve(geo.CurveSpec(), 0.0), Grid.uniform(20.0, 200), 1),
        }[case]
        kappa, eps = 0.55, 1e-5
        vecs = rng.standard_normal((grid.n, m))
        diff = assemble(curve, kappa + eps, grid) - assemble(curve, kappa - eps, grid)
        fd = vecs.T @ (diff / (2.0 * eps)) @ vecs
        form = slope_form(curve, kappa, grid, vecs)
        assert form.shape == (m, m)
        assert np.array_equal(form, form.T)
        # central differences carry an O(eps^2) error of about 1e-10 here
        assert np.max(np.abs(form - fd)) <= 1e-9 * np.max(np.abs(fd))

    def test_eigenvalue_slope_negative(self, broken):
        # Hellmann-Feynman: for the unit top eigenvector the form is
        # d eta / d kappa, negative since eta decreases in kappa
        sc = geo.ScaledCurve(broken, 1.0)
        grid = Grid.uniform(20.0, 200)
        _, vecs = top_eigenpairs(assemble(sc, 0.55, grid), 1)
        eps = 1e-5
        fd = (top_eigenpairs(assemble(sc, 0.55 + eps, grid), 1)[0][0]
              - top_eigenpairs(assemble(sc, 0.55 - eps, grid), 1)[0][0]) / (2 * eps)
        slope = slope_form(sc, 0.55, grid, vecs)[0, 0]
        assert slope < 0.0
        assert slope == pytest.approx(fd, rel=1e-8)

    def test_bad_input(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        grid = Grid.uniform(5.0, 10)
        with pytest.raises(ValueError):
            slope_form(sc, 0.0, grid, np.ones((10, 1)))
        with pytest.raises(ValueError):
            slope_form(sc, 0.5, grid, np.ones(10))

    def test_peak_memory(self, broken):
        # cross blocks from their low-rank factors: far below one n x n matrix
        n = 1200
        sc = geo.ScaledCurve(broken, 1.0)
        grid = Grid.uniform(75.0, n)
        vecs = np.ones((n, 1)) / math.sqrt(n)
        tracemalloc.start()
        try:
            slope_form(sc, 0.5, grid, vecs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 8 * n * n


    @pytest.mark.parametrize("case", LARGE_CASES)
    def test_matches_direct_evaluation(self, case, broken, zigzag, twin_corners,
                                       rng, monkeypatch):
        # the low-rank cross blocks against the same walk with every block
        # evaluated directly in row chunks
        curve, grid = reference_case(case, broken, zigzag, twin_corners)
        vecs = rng.standard_normal((grid.n, 2))
        factored = spy_aca(monkeypatch)
        form = slope_form(curve, 0.7, grid, vecs)
        assert any(f is not None for f in factored)
        monkeypatch.setattr(bs_core, "_aca", lambda fn, pa, pb: None)
        direct = slope_form(curve, 0.7, grid, vecs)
        assert np.array_equal(form, form.T)
        assert np.max(np.abs(form - direct)) <= 1e-13 * np.max(np.abs(direct))


def reference_case(case, broken, zigzag, twin_corners):
    """(curve, grid) of a named assembly case."""
    corner = geo.ScaledCurve(broken, 1.0)
    arc = geo.ScaledCurve(
        geo.CurveSpec(segments=((-2.0, 0.5, 0.5),), vertices=((0.5, 1.0),)), 0.8)
    return {
        "corner_1504": (corner, Grid.uniform(60.0, 1504)),
        "corner_1503": (corner, Grid.uniform(60.0, 1503)),
        "twin_1200": (geo.ScaledCurve(geo.with_wiggle(
            geo.to_wiggle_frame(twin_corners), 0.04), 1.0), Grid.uniform(60.0, 1200)),
        "zigzag_1000": (geo.ScaledCurve(zigzag, 1.0), Grid.uniform(40.0, 1000)),
        "arc_1000": (arc, Grid.uniform(40.0, 1000)),
        "corner_even": (corner, Grid.uniform(5.0, 40)),
        "corner_odd": (corner, Grid.uniform(5.0, 41)),
        # vertices at -2 and at the pivot 0, where the wiggle composes
        "wiggle": (geo.ScaledCurve(
            geo.with_wiggle(geo.to_wiggle_frame(zigzag), 0.1), 1.0),
            Grid.uniform(5.0, 40)),
        "arc": (arc, Grid.uniform(5.0, 40)),
    }[case]


def spy_aca(monkeypatch):
    """Record what each cross approximation returns: factors or None."""
    out = []
    real = bs_core._aca
    monkeypatch.setattr(bs_core, "_aca", lambda fn, pa, pb:
                        out.append(real(fn, pa, pb)) or out[-1])
    return out


def pairwise_distances(curve, nodes):
    """Full chord-distance matrix between grid nodes on the scaled curve."""
    pts = geo.point(curve, np.asarray(nodes, dtype=float))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def dense_reference(curve, kappa, grid, k0=bessel_k0):
    """Every off-diagonal entry h K0(kappa rho_ij) / 2pi from the full chord
    matrix, and h times the cell average on the diagonal."""
    rho = pairwise_distances(curve, grid.nodes)
    np.fill_diagonal(rho, 1.0)
    ref = grid.h * k0(kappa * rho) / (2.0 * math.pi)
    np.fill_diagonal(ref, grid.h * diag_correction(kappa, grid.h))
    return ref


def jacobi_eigen(matrix, sweeps=30):
    """Plain cyclic Jacobi rotations; slow, independent of LAPACK/ARPACK."""
    a = matrix.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-15:
                    continue
                off += a[p, q] ** 2
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rp = c * a[p, :] - s * a[q, :]
                rq = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rp, rq
                cp = c * a[:, p] - s * a[:, q]
                cq = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = cp, cq
        if off < 1e-30:
            break
    return np.sort(np.diag(a))[::-1]


class TestEigensolver:
    def test_against_jacobi(self, zigzag):
        sc = geo.ScaledCurve(zigzag, 1.0)
        mat = assemble(sc, 0.8, Grid.uniform(6.0, 24))
        vals, vecs = top_eigenpairs(mat, 3)
        ref = jacobi_eigen(mat)
        assert vals == pytest.approx(ref[:3], rel=1e-12)
        # orthonormality
        assert vecs.T @ vecs == pytest.approx(np.eye(3), abs=1e-12)
        # the m >= n - 1 case returns the whole spectrum
        every, _ = top_eigenpairs(mat, len(mat))
        assert every == pytest.approx(ref, abs=1e-12 * ref[0])

    def test_dense_and_arpack_agree(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        mat = assemble(sc, 0.55, Grid.uniform(40.0, DENSE_CUTOFF + 40))
        vals_arpack, _ = top_eigenpairs(mat, 2)
        vals_dense = np.linalg.eigvalsh(mat)[::-1][:2]
        assert vals_arpack == pytest.approx(vals_dense, rel=1e-10)

    def test_descending_order(self, zigzag):
        sc = geo.ScaledCurve(zigzag, 1.0)
        mat = assemble(sc, 0.7, Grid.uniform(10.0, 80))
        vals, _ = top_eigenpairs(mat, 5)
        assert np.all(np.diff(vals) <= 0)

    def test_warm_start_same_answer(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        mat = assemble(sc, 0.55, Grid.uniform(40.0, DENSE_CUTOFF + 40))
        v1, w1 = top_eigenpairs(mat, 1)
        v2, w2 = top_eigenpairs(mat, 1, v0=w1[:, 0])
        assert v2[0] == pytest.approx(v1[0], rel=1e-12)

    def test_arpack_failure_falls_back_to_dense(self, broken, monkeypatch):
        sc = geo.ScaledCurve(broken, 1.0)
        mat = assemble(sc, 0.55, Grid.uniform(40.0, DENSE_CUTOFF + 40))

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("forced", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        vals, vecs = top_eigenpairs(mat, 2)
        n = len(mat)
        ref_vals, ref_vecs = scipy.linalg.eigh(mat, subset_by_index=[n - 2, n - 1])
        assert vals == pytest.approx(ref_vals[::-1], rel=1e-12)
        # eigenvectors agree up to sign
        overlap = np.abs(np.sum(vecs * ref_vecs[:, ::-1], axis=0))
        assert overlap == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            top_eigenpairs(np.zeros((3, 4)), 1)
        with pytest.raises(ValueError):
            top_eigenpairs(np.eye(3), 4)

    def test_residual_contract(self):
        class Lying(np.ndarray):
            pass
        # a nonsymmetric matrix breaks the symmetric residual contract
        mat = np.array([[0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0],
                        [1e3, 0.0, 0.0]])
        with pytest.raises(EigensolverError):
            top_eigenpairs(mat, 1)

