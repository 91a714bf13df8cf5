"""Discrete spectrum of a two-dimensional Schroedinger operator with an
attractive delta interaction supported by an asymptotically straight planar
curve, computed through the Birman-Schwinger reduction to an integral
operator on the curve."""

__version__ = "0.1.0"

from .specfun import bessel_k0, bessel_k1, k0_prime
from .geometry import (
    CurvatureSegment,
    CurveSpec,
    ScaledCurve,
    Vertex,
    bending,
    curve_from_json,
    distance,
    point,
    total_bending,
    validate,
)
from .bs_core import Grid, assemble, diag_correction, top_eigenpairs
from .spectrum import (NoBoundState, SpectralResult, eta, solve_all,
                       solve_ground, solve_threshold)
from .asymptotics import (
    a_coefficient,
    a_kernel,
    predicted_gap,
    wiggle_kernel,
    wiggle_slope,
)

__all__ = [
    "bessel_k0", "bessel_k1", "k0_prime",
    "CurvatureSegment", "CurveSpec", "ScaledCurve", "Vertex",
    "bending", "curve_from_json", "distance", "point", "total_bending", "validate",
    "Grid", "assemble", "diag_correction", "top_eigenpairs",
    "NoBoundState", "SpectralResult", "eta", "solve_all", "solve_ground",
    "solve_threshold",
    "a_coefficient", "a_kernel", "predicted_gap", "wiggle_kernel", "wiggle_slope",
]
