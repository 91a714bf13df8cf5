import json
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.integrate

from leakywire import geometry
from leakywire.specfun import bessel_k1


@pytest.fixture(scope="session")
def bessel_table():
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        "bessel_reference.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def broken():
    """Single unit corner at the origin."""
    return geometry.broken_line(1.0)


@pytest.fixture(scope="session")
def zigzag():
    """Corner pair +pi/4 at -1, -pi/4 at +1; straight far tails."""
    return geometry.CurveSpec(vertices=(geometry.Vertex(-1.0, math.pi / 4),
                                        geometry.Vertex(1.0, -math.pi / 4)))


@pytest.fixture(scope="session")
def twin_corners():
    """Two well separated 1.2 rad corners; binds a two-level doublet."""
    return geometry.CurveSpec(vertices=(geometry.Vertex(-20.0, 1.2),
                                        geometry.Vertex(20.0, 1.2)))


@dataclass(frozen=True)
class ReducedIntegral:
    """Factorized single-corner integral: product = radial * angular = 2/3."""

    radial: float
    angular: float
    product: float


@pytest.fixture(scope="session")
def reduced_integral():
    """Oracle of the single-corner coefficient: quadrature of the two
    elementary factors its double integral reduces to, exact values 2 and 1/3
    (see the leakywire.asymptotics docstring)."""
    radial, _ = scipy.integrate.quad(lambda t: t * t * bessel_k1(t), 0.0, 40.0,
                                     epsabs=1e-13, epsrel=1e-12, limit=200)
    angular, _ = scipy.integrate.quad(
        lambda p: math.sin(2.0 * p) / (math.cos(p) + math.sin(p)) ** 4,
        0.0, 0.5 * math.pi, epsabs=1e-13, epsrel=1e-12)
    return ReducedIntegral(radial=float(radial), angular=float(angular),
                           product=float(radial * angular))


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def pytest_terminal_summary(terminalreporter):
    lines = getattr(terminalreporter.config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
