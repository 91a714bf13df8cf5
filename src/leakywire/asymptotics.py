"""Weak-bending and wiggling asymptotics of the ground-state gap.

Weak bending.  For the scaled family with profile beta*theta the gap below
the essential-spectrum edge -alpha^2/4 opens like

    gap(beta) = ( II )^2 * beta^4 + o(beta^4),
    II = integral over the plane of A(s, s'),

with the positive kernel

    A(s, s') = (alpha^4 / 32 pi) * K0'(alpha |s - s'| / 2)
               * [ (1/(s - s')) (int phi)^2 - int phi^2 ],

where the bracket integrates the unscaled bending phi over (s', s).  The
bracket equals minus the interval length times the variance of the tangent
angle over the interval (geometry.bending_bracket), so it is symmetric,
nonpositive and O(|s - s'|) near the diagonal, and A >= 0 with exponential
decay e^{-alpha(|s| + |s'|)/2} away from the deformation.

For the single corner of unit angle the double integral reduces to
alpha/(4 pi) times the product of two elementary integrals,

    int_0^infty t^2 K1(t) dt = 2,     int_0^{pi/2} sin(2 psi) / (cos psi + sin psi)^4 dpsi = 1/3,

giving II = alpha/(6 pi) and gap coefficient alpha^2/(36 pi^2); the quadrature
route must reproduce that.

Wiggling.  With the deformation confined to s <= 0 and the straight tail on
s >= 0 rotated by a small angle phi about the origin, each eigenvalue moves
linearly,

    lambda_k(phi) = lambda_k - alpha * (D1(nu_k) f_k, f_k) * phi + o(phi),

where nu_k = sqrt(-lambda_k), f_k is the kernel eigenfunction, and D1 acts
only between the two sides of the pivot:

    D1(s, s') = -(alpha kappa / 2 pi) K0'(kappa rho(s, s')) s' ybar(s) / rho(s, s')

for s <= 0 < s', with the arguments swapped for s' <= 0 < s and zero when
both lie on the same side.  ybar is the height of the curve over the tail
axis (geometry.tail_frame_height).  For a cluster of near-degenerate levels
the quadratic form becomes an m x m matrix whose eigenvalues are the split
slopes.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import geometry
from .bs_core import _slope_diagonal, slope_form
from .spectrum import NumericalError
from .specfun import bessel_k1

__all__ = [
    "AsymptoticCoefficient",
    "a_coefficient",
    "a_kernel",
    "predicted_eigenvalue",
    "predicted_gap",
    "wiggle_kernel",
    "wiggle_slope",
]


def a_kernel(curve, alpha, s, s2):
    """Weak-bending kernel A(s, s'); vectorized, symmetric, >= 0, 0 on the diagonal."""
    if alpha <= 0 or not math.isfinite(alpha):
        raise ValueError("alpha must be positive and finite")
    s = np.asarray(s, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    d = np.abs(s - s2)
    bracket = geometry.bending_bracket(curve, s, s2)  # <= 0
    live = (d > 0.0) & (bracket < 0.0)
    z = np.where(live, 0.5 * alpha * d, 1.0)
    pref = alpha**4 / (32.0 * math.pi)
    out = np.where(live, pref * bessel_k1(z) * (-bracket), 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AsymptoticCoefficient:
    """Double integral of the weak-bending kernel and derived quantities.

    gap_coefficient multiplies beta^4 in the predicted gap.  error_estimate
    combines the cubature error estimate with the analytic tail bound for
    the truncated domain [lo - T, hi + T]^2.  panels counts the rectangles
    the cubature ended with.
    """

    alpha: float
    integral: float
    gap_coefficient: float
    error_estimate: float
    tail_cut: float
    panels: int


def a_coefficient(curve, alpha, rel_tol=1e-5):
    """Adaptive double integral of the weak-bending kernel.

    One scipy.integrate.cubature call (tensor 21-point Gauss-Kronrod) over
    [lo - T, hi + T]^2, split first at every pair of support ends and
    breakpoints so that no rule straddles a kink of the kernel, refined until
    its error estimate falls below rel_tol times the integral.  The tail cut
    T comes from the decay bound C (r) e^{-alpha r/2}, r = |s| + |s'|, with C
    estimated from kernel samples on a mid-distance ring; the bound at T is
    added to the cubature error in error_estimate.  Raises NumericalError
    when the cubature does not converge.
    """
    # imported here, not with the module: it pulls in scipy.optimize,
    # scipy.sparse, scipy.fft and scipy.spatial, about 0.3 s of a cold
    # start that only the coefficient commands need
    import scipy.integrate

    if isinstance(curve, geometry.ScaledCurve):
        raise ValueError("a_coefficient expects the unscaled CurveSpec")
    lo, hi = curve.support

    def f(S, S2):
        return a_kernel(curve, alpha, S, S2)

    # estimate the tail constant from samples at moderate ring distance
    r0 = 6.0 / alpha
    ss = np.linspace(lo - r0, hi + r0, 41)
    S, S2 = np.meshgrid(ss, ss, indexing="ij")
    vals = f(S, S2)
    r = np.abs(S - np.clip(S, lo, hi)) + np.abs(S2 - np.clip(S2, lo, hi))
    mask = r > 2.0 / alpha
    c_est = 0.0
    if mask.any():
        with np.errstate(over="ignore"):
            c_est = float(np.max(vals[mask] * np.exp(0.5 * alpha * r[mask])
                                 / np.maximum(r[mask], 1e-3)))
    rough = max(float(np.max(vals)), 1e-300)

    # tail cut: bound C (2 + alpha T) T e^{-alpha T/2} (per unit of transverse
    # integration, crude constants) below a slice of the error budget
    T = 12.0 / alpha
    if c_est > 0.0:
        budget = 0.01 * rel_tol * rough
        while T < 400.0 / alpha:
            bound = c_est * (2.0 + alpha * T) * T * math.exp(-0.5 * alpha * T)
            if bound <= budget:
                break
            T += 2.0 / alpha
    tail_bound = c_est * (2.0 + alpha * T) * T * math.exp(-0.5 * alpha * T) * (4.0 / alpha**2)

    pts = np.unique(np.concatenate([[lo, hi], geometry.breaks(curve)]))
    res = scipy.integrate.cubature(
        lambda x: f(x[:, 0], x[:, 1]), [lo - T, lo - T], [hi + T, hi + T],
        rule="gk21", rtol=rel_tol,
        points=[np.array([p, q]) for p in pts for q in pts])
    if res.status != "converged":
        raise NumericalError(f"cubature did not converge: error {float(res.error):.2e} "
                             f"(integral {float(res.estimate):.6e})")

    integral = float(res.estimate)
    return AsymptoticCoefficient(alpha=float(alpha), integral=integral,
                                 gap_coefficient=integral * integral,
                                 error_estimate=float(res.error) + tail_bound,
                                 tail_cut=float(T), panels=len(res.regions))


def predicted_gap(coefficient, beta):
    """Leading-order gap below the essential spectrum edge: (II)^2 beta^4."""
    return coefficient.gap_coefficient * float(beta) ** 4


def predicted_eigenvalue(coefficient, beta):
    """-alpha^2/4 - predicted gap."""
    return -0.25 * coefficient.alpha**2 - predicted_gap(coefficient, beta)


def wiggle_kernel(curve, alpha, kappa, s, s2):
    """First-order wiggle kernel D1(s, s'); vectorized, symmetric.

    Nonzero only when the arguments straddle the pivot at 0; requires the
    curve in the wiggle frame (deformation confined to s <= 0).
    """
    if isinstance(curve, geometry.ScaledCurve):
        raise ValueError("wiggle_kernel expects the unscaled CurveSpec")
    if curve.support[1] > 0.0:
        raise ValueError("deformation must lie in s <= 0; use to_wiggle_frame")
    if alpha <= 0 or kappa <= 0:
        raise ValueError("alpha and kappa must be positive")
    s = np.asarray(s, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    region1 = (s <= 0.0) & (s2 > 0.0)
    region2 = (s2 <= 0.0) & (s > 0.0)

    rho = geometry.distance(curve, s, s2)
    rho_safe = np.where(rho > 0.0, rho, 1.0)
    # heights on each argument's own shape, not on the broadcast pair
    height = np.where(region2, geometry.tail_frame_height(curve, s2),
                      geometry.tail_frame_height(curve, s))
    outer = np.where(region2, s, s2)
    pref = alpha * kappa / (2.0 * math.pi)
    vals = pref * bessel_k1(kappa * rho_safe) * outer * height / rho_safe
    out = np.where(region1 | region2, vals, 0.0)
    return float(out) if out.ndim == 0 else out


def wiggle_slope(curve, alpha, cluster, grid):
    """First-order eigenvalue slopes d lambda / d phi for a cluster of levels.

    cluster is one SpectralResult or a list of near-degenerate ones computed
    on this same grid for the scaled curve at beta = 1; the curve must be in
    the wiggle frame, as for wiggle_kernel.

    Differentiating alpha eta(kappa, phi) = 1 gives
        d lambda / d phi = -(f, dQ/dphi f) / ||psi||^2,
    where psi is the plane eigenfunction generated by the kernel eigenfunction
    f.  Its norm has a closed-form kernel, the squared-resolvent identity
        (f, dQ/dkappa f) = -2 kappa ||psi||^2,
    with ||psi||^2 = h^2 sum f_i f_j (rho_ij / 4 pi kappa) K1(kappa rho_ij)
    and diagonal limit 1 / (4 pi kappa^2).  For a cluster both quadratic forms
    become m x m matrices and the slopes solve the generalized symmetric
    eigenproblem, returned ascending; the central finite difference check in
    the acceptance suite pins the convention down.
    """
    results = [cluster] if not isinstance(cluster, (list, tuple)) else list(cluster)
    if not results:
        raise ValueError("cluster must contain at least one level")
    for r in results:
        if r.grid != grid:
            raise ValueError("cluster levels must be computed on the given grid")

    nu = float(np.mean([r.kappa for r in results]))
    nodes = grid.nodes
    vecs = np.column_stack([r.eigenfunction for r in results]) * math.sqrt(grid.h)

    # D1 couples only the two sides of the pivot: the left x right block and
    # its transpose carry the whole form
    left = nodes <= 0.0
    block = wiggle_kernel(curve, alpha, nu, nodes[left][:, None],
                          nodes[~left][None, :]) * grid.h
    cross = vecs[left].T @ block @ vecs[~left]
    form = cross + cross.T

    # norm kernel of the generated plane eigenfunction (squared resolvent):
    # -(1/2 nu) dM/dkappa off the diagonal, so slope_form's form with its
    # diagonal term swapped for the point limit h / (4 pi nu^2)
    h = grid.h
    gram = vecs.T @ vecs
    off = slope_form(curve, nu, grid, vecs) - _slope_diagonal(nu, h) * gram
    norm = -off / (2.0 * nu) + h / (4.0 * math.pi * nu * nu) * gram
    slopes = scipy.linalg.eigh(-form / alpha, 0.5 * (norm + norm.T),
                               eigvals_only=True)
    return np.asarray(slopes)
