"""Independent check of the roots leakywire returns.

Nothing here imports leakywire.  The Nystrom matrix of the kernel
K0(kappa * chord) / 2 pi on the uniform midpoint grid over [-L, L] is built
from closed-form chords of the broken line, ``scipy.special.k0`` and a
``scipy.integrate.quad`` cell average on the diagonal; its top eigenvalues
come from ``scipy.linalg.eigh``.  A returned root kappa of level j passes
when ``alpha * eta_j - 1`` is positive at ``kappa - tol`` and negative at
``kappa + tol``: eta_j decreases strictly in kappa, so the sign change pins
the root of the same discretization inside that window.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.special


def grid_nodes(L, n):
    h = 2.0 * L / n
    return -L + (np.arange(n) + 0.5) * h, h


def chords(vertices, s):
    """Chord matrix of the polyline with corners ``vertices`` = [(s_k, angle_k)].

    The curve is straight with unit speed between corners and turns by
    angle_k at s_k.  Across a single corner at s_0 the law of cosines gives
    u^2 + u'^2 - 2 u u' cos(angle) with u = s - s_0 (signed); several
    corners are summed as straight pieces in the complex plane.
    """
    s = np.asarray(s, dtype=float)
    if not vertices:
        return np.abs(s[:, None] - s[None, :])
    if len(vertices) == 1:
        (s0, angle), = vertices
        u = s - s0
        a, b = u[:, None], u[None, :]
        across = a * b < 0.0
        d2 = np.where(across, a * a + b * b - 2.0 * a * b * math.cos(angle),
                      (a - b) ** 2)
        return np.sqrt(d2)
    knots = sorted(vertices)
    s_k = np.array([k for k, _ in knots])
    heading = np.concatenate([[0.0], np.cumsum([a for _, a in knots])])
    z_k = np.concatenate([[0j], np.cumsum(np.diff(s_k) * np.exp(1j * heading[1:-1]))])
    idx = np.searchsorted(s_k, s, side="right")
    first = np.maximum(idx - 1, 0)
    z = z_k[first] + (s - s_k[first]) * np.exp(1j * heading[idx])
    return np.abs(z[:, None] - z[None, :])


def cell_average(kappa, h):
    """Diagonal entry h * (1/h) int_{-h/2}^{h/2} K0(kappa |t|) / 2 pi dt."""
    val, _ = scipy.integrate.quad(scipy.special.k0, 0.0, 0.5 * kappa * h,
                                  epsabs=1e-15, epsrel=1e-13, limit=200)
    return val / (math.pi * kappa)


def nystrom(vertices, kappa, L, n, rho=None):
    s, h = grid_nodes(L, n)
    if rho is None:
        rho = chords(vertices, s)
    off = rho.copy()
    np.fill_diagonal(off, 1.0)
    mat = h * scipy.special.k0(kappa * off) / (2.0 * math.pi)
    np.fill_diagonal(mat, cell_average(kappa, h))
    return mat


def eta(vertices, kappa, L, n, level=1, rho=None):
    mat = nystrom(vertices, kappa, L, n, rho)
    vals = scipy.linalg.eigh(mat, eigvals_only=True,
                             subset_by_index=[n - level, n - 1])
    return float(vals[0])


def brackets_root(vertices, alpha, kappa, tol, L, n, level=1):
    """True when alpha * eta_level - 1 changes sign from + to - across
    [kappa - tol, kappa + tol]."""
    rho = chords(vertices, grid_nodes(L, n)[0])
    below = alpha * eta(vertices, kappa - tol, L, n, level, rho) - 1.0
    above = alpha * eta(vertices, kappa + tol, L, n, level, rho) - 1.0
    return below > 0.0 > above
