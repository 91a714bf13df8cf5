"""Gap coefficient quadrature and first-order wiggle slopes.

The coefficient tests lean on the closed form for the single corner, where
the double integral collapses to elementary one-dimensional integrals.  The
wiggle tests are adjudicated by central finite differences of the actual
solver, so they check the formula end to end rather than a frozen number.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from leakywire import geometry as geo
from leakywire.asymptotics import (
    AsymptoticCoefficient,
    a_coefficient,
    a_kernel,
    predicted_eigenvalue,
    predicted_gap,
    wiggle_kernel,
    wiggle_slope,
)
from leakywire.bs_core import Grid, assemble
from leakywire.specfun import bessel_k0, bessel_k1
from leakywire.spectrum import solve_all, solve_ground, solve_threshold

SINGLE_CORNER_INTEGRAL = 1.0 / (6.0 * math.pi)


def q_kernel(curve, kappa, s, s2):
    """Off-diagonal kernel value (1/2pi) K0(kappa |gamma(s) - gamma(s')|)."""
    return bessel_k0(kappa * geo.distance(curve, s, s2)) / (2.0 * math.pi)


class TestAKernel:
    def test_frozen_value(self, broken):
        # alpha = 2, points at unit distance from the corner on either side:
        # rho = 2 sin(1/2) wedge chord, bracket = -1/2, prefactor 16/(32 pi)
        got = a_kernel(broken, 2.0, 1.0, -1.0)
        assert got == pytest.approx(0.011130173230503197, rel=1e-12)

    def test_symmetry(self, zigzag, rng):
        pts = rng.uniform(-6.0, 6.0, size=(40, 2))
        a = a_kernel(zigzag, 1.0, pts[:, 0], pts[:, 1])
        b = a_kernel(zigzag, 1.0, pts[:, 1], pts[:, 0])
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_nonnegative(self, zigzag, broken, rng):
        for curve in (zigzag, broken):
            pts = rng.uniform(-8.0, 8.0, size=(10000, 2))
            vals = a_kernel(curve, 1.0, pts[:, 0], pts[:, 1])
            assert np.all(vals >= 0.0)

    def test_zero_without_bending(self, broken):
        # both points past the corner on the same side: the tangent angle is
        # constant on the interval, the variance bracket vanishes
        assert a_kernel(broken, 1.0, 2.0, 7.0) == 0.0
        assert a_kernel(broken, 1.0, -0.5, -9.0) == 0.0

    def test_decay(self, broken):
        near = a_kernel(broken, 1.0, 1.0, -1.0)
        far = a_kernel(broken, 1.0, 12.0, -12.0)
        assert far < near * math.exp(-8.0)


@pytest.fixture(scope="module")
def coef(broken):
    return a_coefficient(broken, 1.0)


class TestCoefficient:
    def test_single_corner_value(self, coef):
        assert coef.integral == pytest.approx(SINGLE_CORNER_INTEGRAL, rel=1e-5)
        assert coef.gap_coefficient == pytest.approx(coef.integral ** 2, rel=1e-12)
        assert coef.gap_coefficient == pytest.approx(1.0 / (36.0 * math.pi ** 2),
                                                     rel=2e-5)

    def test_error_estimate_honest(self, coef):
        assert abs(coef.integral - SINGLE_CORNER_INTEGRAL) < 10.0 * coef.error_estimate
        assert coef.error_estimate < 1e-4

    def test_bookkeeping(self, coef):
        assert coef.alpha == 1.0
        assert coef.panels > 0
        assert coef.tail_cut > 0.0

    def test_alpha_linearity(self, broken, coef):
        double = a_coefficient(broken, 2.0)
        assert double.integral == pytest.approx(2.0 * coef.integral, rel=1e-4)

    def test_rejects_scaled_curve(self, broken):
        with pytest.raises(ValueError):
            a_coefficient(geo.ScaledCurve(broken, 0.5), 1.0)

    def test_twin_corners_add(self):
        # corners 24 apart interact only through e^{-12}-small cross terms,
        # so the integral is the sum of two single-corner closed forms
        twin = geo.CurveSpec(vertices=(geo.Vertex(-12.0, 1.2), geo.Vertex(12.0, 1.2)))
        got = a_coefficient(twin, 1.0, rel_tol=1e-6)
        exact = 2.0 * 1.2 ** 2 * SINGLE_CORNER_INTEGRAL
        assert got.integral == pytest.approx(exact, rel=1e-5)
        assert abs(got.integral - exact) < 10.0 * got.error_estimate
        # split at the corners, no rule straddles a kink of the kernel; a
        # cubature left to find them ends with about 2500 rectangles here
        assert a_coefficient(twin, 1.0).panels < 500

    @pytest.mark.parametrize("curve, reference", [
        # references from an independent adaptive tensor Gauss cubature
        # (16x15 / 8x7 point pairs per rectangle) at rel_tol 1e-5
        (geo.CurveSpec(vertices=(geo.Vertex(-1.0, 0.5), geo.Vertex(1.0, -0.5))),
         0.021666849334881912),
        (geo.CurveSpec(segments=(geo.CurvatureSegment(-1.5, 1.5, 0.4),)),
         0.036432497843351744),
    ], ids=["zigzag", "arc"])
    def test_matches_reference(self, curve, reference):
        got = a_coefficient(curve, 1.0)
        assert got.integral == pytest.approx(reference, rel=1e-5)

    def test_predictions(self, coef):
        beta = 0.7
        gap = predicted_gap(coef, beta)
        assert gap == pytest.approx(coef.gap_coefficient * beta ** 4, rel=1e-14)
        lam = predicted_eigenvalue(coef, beta)
        assert lam == pytest.approx(-0.25 * coef.alpha ** 2 - gap, rel=1e-14)


class TestReducedIntegral:
    def test_factors(self, reduced_integral):
        red = reduced_integral
        assert red.radial == pytest.approx(2.0, rel=1e-9)
        assert red.angular == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert red.product == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert red.product == pytest.approx(red.radial * red.angular, rel=1e-14)


class TestWiggleKernel:
    def test_requires_wiggle_frame(self, zigzag, broken):
        with pytest.raises(ValueError):
            wiggle_kernel(zigzag, 1.0, 0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            wiggle_kernel(geo.ScaledCurve(broken, 1.0), 1.0, 0.5, -1.0, 1.0)
        frame = geo.to_wiggle_frame(zigzag)
        assert frame.support[1] <= 0.0
        wiggle_kernel(frame, 1.0, 0.5, -1.0, 1.0)

    def test_same_side_zero(self, broken):
        assert wiggle_kernel(broken, 1.0, 0.5, 1.0, 3.0) == 0.0
        assert wiggle_kernel(broken, 1.0, 0.5, -2.0, -0.5) == 0.0

    def test_symmetric(self, broken, rng):
        s = rng.uniform(-5.0, 0.0, 30)
        s2 = rng.uniform(0.1, 5.0, 30)
        np.testing.assert_allclose(wiggle_kernel(broken, 1.0, 0.5, s, s2),
                                   wiggle_kernel(broken, 1.0, 0.5, s2, s),
                                   rtol=1e-12)

    def test_matches_derivative_of_kernel(self, zigzag):
        # D1 / alpha must be the phi-derivative of the resolvent kernel under
        # an actual tail rotation; central differences adjudicate
        frame = geo.to_wiggle_frame(zigzag)
        kappa, eps = 0.6, 1e-6
        for s, s2 in ((-1.5, 0.7), (-3.0, 2.2), (-0.4, 4.0)):
            plus = geo.with_wiggle(frame, eps)
            minus = geo.with_wiggle(frame, -eps)
            fd = (q_kernel(plus, kappa, s, s2) - q_kernel(minus, kappa, s, s2)) / (2 * eps)
            pred = wiggle_kernel(frame, 1.0, kappa, s, s2)
            assert pred == pytest.approx(fd, rel=5e-6)


@pytest.fixture(scope="module")
def wiggle_setup(zigzag):
    frame = geo.to_wiggle_frame(zigzag)
    grid = Grid.uniform(60.0, 520)
    thr = solve_threshold(1.0, grid)
    ground = solve_ground(geo.ScaledCurve(frame, 1.0), 1.0, grid,
                          kappa_floor=thr)
    return frame, grid, thr, ground


def pairwise_distances(curve, nodes):
    """Full chord-distance matrix between grid nodes on the scaled curve."""
    pts = geo.point(curve, np.asarray(nodes, dtype=float))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def dense_slopes(frame, alpha, cluster, grid):
    """Slopes from the n x n D1 matrix of wiggle_kernel on all node pairs."""
    nu = float(np.mean([r.kappa for r in cluster]))
    nodes, h = grid.nodes, grid.h
    dmat = wiggle_kernel(frame, alpha, nu, nodes[:, None], nodes[None, :]) * h
    rho = pairwise_distances(frame, nodes)
    safe = np.where(rho > 0, rho, 1.0)
    bmat = safe / (4 * math.pi * nu) * bessel_k1(nu * safe)
    np.fill_diagonal(bmat, 1.0 / (4 * math.pi * nu ** 2))
    vecs = np.column_stack([r.eigenfunction for r in cluster])
    form = vecs.T @ dmat @ vecs * h
    norm = vecs.T @ (bmat * h) @ vecs * h
    return scipy.linalg.eigh(-0.5 * (form + form.T) / alpha,
                             0.5 * (norm + norm.T), eigvals_only=True)


class TestWiggleSlope:
    def test_matches_dense_reference(self, wiggle_setup, twin_corners):
        frame, grid, thr, ground = wiggle_setup
        np.testing.assert_allclose(wiggle_slope(frame, 1.0, ground, grid),
                                   dense_slopes(frame, 1.0, [ground], grid),
                                   rtol=1e-12)
        # a two-level cluster; its small split slope is a near-cancellation,
        # so the tolerance scales with the larger one
        twin = geo.to_wiggle_frame(twin_corners)
        grid = Grid.uniform(70.0, 391)
        levels = solve_all(geo.ScaledCurve(twin, 1.0), 1.0, grid, maxk=2,
                           kappa_floor=solve_threshold(1.0, grid))
        assert len(levels) == 2
        got = wiggle_slope(twin, 1.0, levels, grid)
        ref = dense_slopes(twin, 1.0, levels, grid)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_norm_kernel_identity(self, wiggle_setup):
        # entrywise: d/dkappa of the assembled matrix equals -2 kappa B with
        # B the squared-resolvent kernel (rho / 4 pi kappa) K1(kappa rho)
        frame, grid, thr, ground = wiggle_setup
        sub = Grid.uniform(8.0, 48)
        kappa, eps = 0.8, 1e-5
        sc = geo.ScaledCurve(frame, 1.0)
        fd = (assemble(sc, kappa + eps, sub)
              - assemble(sc, kappa - eps, sub)) / (2 * eps)
        rho = pairwise_distances(sc, sub.nodes)
        safe = np.where(rho > 0, rho, 1.0)
        bmat = safe / (4 * math.pi * kappa) * bessel_k1(kappa * safe)
        np.fill_diagonal(bmat, 1.0 / (4 * math.pi * kappa ** 2))
        bmat *= sub.h
        off = ~np.eye(sub.n, dtype=bool)
        np.testing.assert_allclose(fd[off], (-2 * kappa * bmat)[off], rtol=1e-5)
        # the diagonal quadrature correction carries its own O((kappa h)^2)
        # term, so the match there is only to correction order
        diag = np.diag(fd) / np.diag(-2 * kappa * bmat)
        assert np.all(np.abs(diag - 1.0) < 2e-2)

    def test_slope_matches_finite_difference(self, wiggle_setup):
        frame, grid, thr, ground = wiggle_setup
        slopes = wiggle_slope(frame, 1.0, ground, grid)
        assert slopes.shape == (1,)
        phi = 0.05
        lam = {}
        for sign in (1.0, -1.0):
            wig = geo.with_wiggle(frame, sign * phi)
            res = solve_ground(geo.ScaledCurve(wig, 1.0), 1.0, grid,
                               kappa_floor=thr, tol=1e-10)
            lam[sign] = res.eigenvalue
        fd = (lam[1.0] - lam[-1.0]) / (2 * phi)
        assert slopes[0] == pytest.approx(fd, rel=0.05)
        # the zigzag tilts so that one sign of phi straightens it: slope != 0
        assert abs(slopes[0]) > 1e-4

    def test_list_matches_scalar(self, wiggle_setup):
        frame, grid, thr, ground = wiggle_setup
        a = wiggle_slope(frame, 1.0, ground, grid)
        b = wiggle_slope(frame, 1.0, [ground], grid)
        assert np.array_equal(a, b)
        # grids compare by (L, n): an equal grid built anew is accepted,
        # any other grid is rejected
        c = wiggle_slope(frame, 1.0, ground, Grid.uniform(grid.L, grid.n))
        assert np.array_equal(a, c)
        with pytest.raises(ValueError):
            wiggle_slope(frame, 1.0, ground, Grid.uniform(grid.L, grid.n + 2))
