"""Modified Bessel functions against a high-precision reference table.

The fixture file was generated offline with mpmath at 25 significant digits
(tools/gen_bessel_fixture.py); these tests only read it.
"""

import math

import numpy as np
import pytest

from leakywire.specfun import bessel_k0, bessel_k1


def test_k0_against_reference(bessel_table):
    for pt in bessel_table["points"]:
        x = float(pt["x"])
        ref = float(pt["k0"])
        got = bessel_k0(x)
        assert got == pytest.approx(ref, rel=1e-12), f"x={x}"


def test_k1_against_reference(bessel_table):
    for pt in bessel_table["points"]:
        x = float(pt["x"])
        ref = float(pt["k1"])
        got = bessel_k1(x)
        assert got == pytest.approx(ref, rel=1e-12), f"x={x}"


def test_branches_match_in_overlap():
    # scipy.special.k0/k1, which the package wraps, switch between two
    # Chebyshev expansions at x = 2; the values must be continuous across it
    xs = np.linspace(1.5, 3.0, 301)
    v = bessel_k0(xs)
    d2 = np.abs(np.diff(v, 2))
    assert np.all(np.isfinite(v))
    assert d2.max() < 1e-4
    # a finite difference straddling x = 2 matches the true derivative, so
    # any jump between scipy's two expansions would have to be below ~1e-14
    eps = 1e-6
    fd0 = (bessel_k0(2.0 - eps) - bessel_k0(2.0 + eps)) / (2 * eps)
    assert fd0 == pytest.approx(bessel_k1(2.0), rel=1e-7)
    fd1 = (bessel_k1(2.0 - eps) - bessel_k1(2.0 + eps)) / (2 * eps)
    assert fd1 == pytest.approx(bessel_k0(2.0) + bessel_k1(2.0) / 2.0, rel=1e-7)


def test_small_argument_log_growth():
    # K0(x) ~ -log(x/2) - gamma for tiny x
    x = 1e-10
    expected = -math.log(x / 2.0) - 0.5772156649015329
    assert bessel_k0(x) == pytest.approx(expected, rel=1e-12)
    # K1(x) ~ 1/x
    assert bessel_k1(x) == pytest.approx(1.0 / x, rel=1e-9)


def test_underflow_is_zero_not_warning():
    with np.errstate(all="raise"):
        v = bessel_k0(np.array([750.0, 2000.0, 1e5]))
    assert np.all(v == 0.0)
    assert bessel_k1(800.0) == 0.0


def test_positive_and_decreasing():
    xs = np.geomspace(1e-6, 600.0, 500)
    v0 = bessel_k0(xs)
    v1 = bessel_k1(xs)
    assert np.all(v0 > 0.0) and np.all(v1 > 0.0)
    assert np.all(np.diff(v0) < 0.0) and np.all(np.diff(v1) < 0.0)
    # K1 > K0 everywhere on the positive axis
    assert np.all(v1 > v0)


def test_scalar_and_array_forms():
    assert isinstance(bessel_k0(1.0), float)
    out = bessel_k0(np.array([[0.5, 1.0], [2.0, 4.0]]))
    assert out.shape == (2, 2)
    assert out[0, 1] == pytest.approx(bessel_k0(1.0), rel=0, abs=0)


def test_domain_errors():
    for bad in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            bessel_k0(bad)
        with pytest.raises(ValueError):
            bessel_k1(bad)
    with pytest.raises(ValueError):
        bessel_k0(np.array([1.0, -1.0]))


def test_derivative_consistency():
    # central differences of K0 against -K1 at moderate arguments
    for x in (0.3, 1.0, 2.5, 7.0):
        h = 1e-6 * x
        fd = (bessel_k0(x + h) - bessel_k0(x - h)) / (2 * h)
        assert fd == pytest.approx(-bessel_k1(x), rel=1e-8)


def test_wronskian_like_recurrence():
    # K2(x) = K0(x) + 2 K1(x)/x; check the recurrence via a second
    # derivative identity: K0'' = K0 + K1/x
    for x in (0.5, 1.0, 3.0, 10.0):
        h = 1e-5 * x
        d2 = (bessel_k0(x + h) - 2 * bessel_k0(x) + bessel_k0(x - h)) / (h * h)
        assert d2 == pytest.approx(bessel_k0(x) + bessel_k1(x) / x, rel=1e-5)
