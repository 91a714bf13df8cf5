"""Top-level acceptance gate.

Each test checks one headline guarantee of the package at its stated
tolerance and records a PASS/FAIL line; the collected lines are printed in
the terminal summary.  Tolerances here are deliberately wide where finite
grids or finite beta leave genuine model error (the quartic band), and tight
where an exact identity is available (scaling covariance, closed forms).

The full set takes a few minutes; the beta sweep dominates.
"""

import math
import os

import numpy as np
import pytest

from leakywire import geometry as geo
from leakywire.asymptotics import (
    a_coefficient,
    a_kernel,
    wiggle_slope,
)
from leakywire.bs_core import Grid, assemble
from leakywire.harness import ExperimentConfig, fit_power_law, sweep_beta
from leakywire.specfun import bessel_k0, bessel_k1
from leakywire.spectrum import (
    NoBoundState,
    eta,
    solve_ground,
    solve_threshold,
)

GAP_COEFFICIENT = 1.0 / (36.0 * math.pi ** 2)


def record(request, num, label, passed, detail):
    lines = getattr(request.config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        request.config._acceptance_lines = lines
    word = "PASS" if passed else "FAIL"
    lines.append(f"criterion {num} [{label}]: {word} ({detail})")


def test_criterion_1_special_functions(request, bessel_table):
    by_x = {float(row["x"]): row for row in bessel_table["points"]}
    err = 0.0
    for x in (1.0,):
        err = max(err, abs(bessel_k0(x) / float(by_x[x]["k0"]) - 1.0))
        err = max(err, abs(bessel_k1(x) / float(by_x[x]["k1"]) - 1.0))
    # scipy's K0/K1 switch expansions at x = 2: continuity across it
    lo = np.nextafter(2.0, 0.0)
    jump = max(abs(bessel_k0(lo) / bessel_k0(2.0) - 1.0),
               abs(bessel_k1(lo) / bessel_k1(2.0) - 1.0))
    ok = err <= 1e-12 and jump <= 1e-11
    record(request, 1, "special functions", ok,
           f"K0/K1 at 1 rel err {err:.1e} <= 1e-12, "
           f"jump at x = 2 {jump:.1e} <= 1e-11")
    assert err <= 1e-12
    assert jump <= 1e-11


def test_criterion_2_straight_line(request):
    straight = geo.ScaledCurve(geo.CurveSpec(), 0.0)
    grid = Grid.uniform(200.0, 2000)
    val = eta(straight, 1.0, grid)
    out = solve_ground(straight, 1.0, grid)
    unbound = isinstance(out, NoBoundState)
    ok = 0.49 <= val <= 0.50 and unbound
    record(request, 2, "straight line", ok,
           f"alpha*eta1(kappa=1) = {val:.6f} in [0.49, 0.50], "
           f"solve_ground -> {'no bound state' if unbound else 'BOUND STATE'}")
    assert 0.49 <= val <= 0.50
    assert unbound


def test_criterion_3_corner_coefficient(request, broken, reduced_integral):
    red = reduced_integral
    coef = a_coefficient(broken, 1.0)
    red_err = abs(abs(red.product) - 2.0 / 3.0)
    int_err = abs(coef.integral / (1.0 / (6.0 * math.pi)) - 1.0)
    gap_err = abs(coef.gap_coefficient / GAP_COEFFICIENT - 1.0)
    ok = red_err <= 1e-6 and int_err <= 1e-4 and gap_err <= 2e-4
    record(request, 3, "corner coefficient", ok,
           f"|reduced| - 2/3 = {red_err:.1e} <= 1e-6, integral rel err "
           f"{int_err:.1e} <= 1e-4, gap coefficient rel err {gap_err:.1e} <= 2e-4")
    assert red_err <= 1e-6
    assert int_err <= 1e-4
    assert gap_err <= 2e-4


def test_criterion_4_quartic_law(request, broken):
    # moderate resolution: the band is wide and the runtime matters here;
    # nodes_per_unit=8 with a 6400 cap reproduces the coefficient ~2% closer
    # but takes four times longer for the same verdict
    cfg = ExperimentConfig(curve=broken, alpha=1.0,
                           beta_list=(0.6, 0.8, 1.0, 1.2),
                           nodes_per_unit=4.0, n_cap=3200)
    rep = sweep_beta(cfg)
    outcomes = [row["outcome"] for row in rep.rows]
    exp = rep.fit["exponent"] if rep.fit else float("nan")
    ratio = rep.fit["prefactor_ratio"] if rep.fit else float("nan")
    ok = (outcomes == ["bound_state"] * 4 and 3.7 <= exp <= 4.3
          and abs(ratio - 1.0) <= 0.25)
    record(request, 4, "quartic gap law", ok,
           f"exponent {exp:.3f} in [3.7, 4.3], prefactor/expected {ratio:.3f} "
           f"within 25%, r^2 {rep.fit['r_squared']:.5f}" if rep.fit else
           f"fit unavailable, outcomes {outcomes}")
    assert outcomes == ["bound_state"] * 4
    assert 3.7 <= exp <= 4.3
    assert abs(ratio - 1.0) <= 0.25


def test_criterion_5_scaling_covariance(request, broken):
    r1 = solve_ground(geo.ScaledCurve(broken, 1.0), 1.0,
                      Grid.uniform(100.0, 1000), tol=1e-10)
    r2 = solve_ground(geo.ScaledCurve(broken, 1.0), 2.0,
                      Grid.uniform(50.0, 1000), tol=2e-10)
    ratio = r2.eigenvalue / r1.eigenvalue
    ok = abs(ratio - 4.0) <= 0.04
    record(request, 5, "scaling covariance", ok,
           f"lambda(alpha=2)/lambda(alpha=1) = {ratio:.10f}, within 1% of 4")
    assert abs(ratio - 4.0) <= 0.04


def test_criterion_6_wiggle_slope(request, zigzag):
    frame = geo.to_wiggle_frame(zigzag)
    grid = Grid.uniform(80.0, 1280)
    thr = solve_threshold(1.0, grid)
    ground = solve_ground(geo.ScaledCurve(frame, 1.0), 1.0, grid,
                          kappa_floor=thr, tol=1e-10)
    pred = float(wiggle_slope(frame, 1.0, ground, grid)[0])
    phi = 0.05
    lam = {}
    for sign in (1.0, -1.0):
        wig = geo.with_wiggle(frame, sign * phi)
        lam[sign] = solve_ground(geo.ScaledCurve(wig, 1.0), 1.0, grid,
                                 kappa_floor=thr, tol=1e-10).eigenvalue
    fd = (lam[1.0] - lam[-1.0]) / (2.0 * phi)
    ok = abs(pred / fd - 1.0) <= 0.10
    record(request, 6, "wiggle slope", ok,
           f"prediction {pred:.6e} vs central difference {fd:.6e}, "
           f"ratio {pred / fd:.4f} within 10%")
    assert abs(pred / fd - 1.0) <= 0.10


def test_criterion_7_property_suites(request, zigzag, broken, rng):
    checks = []

    pts = rng.uniform(-8.0, 8.0, size=(10000, 2))
    vals = a_kernel(zigzag, 1.0, pts[:, 0], pts[:, 1])
    checks.append(("kernel nonnegative", bool(np.all(vals >= 0.0))))

    grid = Grid.uniform(30.0, 300)
    mono = True
    for curve, beta in ((zigzag, 1.0), (broken, 0.7)):
        sc = geo.ScaledCurve(curve, beta)
        for j in (1, 2):
            seq = [eta(sc, k, grid, j=j) for k in np.linspace(0.3, 1.4, 6)]
            mono = mono and bool(np.all(np.diff(seq) < 0.0))
    checks.append(("eta monotone", mono))

    mat = assemble(geo.ScaledCurve(zigzag, 1.0), 0.7, Grid.uniform(30.0, 240))
    sym = bool(np.array_equal(mat, mat.T))
    pos = bool(np.min(np.linalg.eigvalsh(mat)) > 0.0)
    checks.append(("matrix symmetric", sym))
    checks.append(("matrix positive", pos))

    import scipy.integrate
    sc = geo.ScaledCurve(zigzag, 1.0)
    brk = [v.s for v in zigzag.vertices]
    for s in (2.7, -3.1):
        qx, _ = scipy.integrate.quad(
            lambda t: math.cos(geo.tangent_angle(sc, t)), 0.0, s, points=brk,
            epsabs=1e-13, limit=200)
        qy, _ = scipy.integrate.quad(
            lambda t: math.sin(geo.tangent_angle(sc, t)), 0.0, s, points=brk,
            epsabs=1e-13, limit=200)
        px, py = geo.point(sc, s)
        checks.append((f"geometry quadrature s={s}",
                       math.hypot(px - qx, py - qy) <= 1e-10))

    x = np.array([0.3, 0.6, 0.9, 1.3])
    fit = fit_power_law(x, 0.125 * x ** 3.5)
    checks.append(("power-law fit exact",
                   abs(fit["exponent"] - 3.5) < 1e-10
                   and abs(fit["prefactor"] / 0.125 - 1.0) < 1e-10))

    failed = [name for name, good in checks if not good]
    record(request, 7, "property suites", not failed,
           f"{len(checks)} properties checked"
           + (f", failed: {failed}" if failed else ", all hold"))
    assert not failed
