"""Assembly and eigensolves for the resolvent-trace integral operator.

The object of interest is the integral operator on the curve with kernel

    q(s, s') = (1/2pi) K0( kappa * |gamma(s) - gamma(s')| ),      kappa > 0,

whose top eigenvalues decide where bound states sit.  The operator is
discretized on a symmetric uniform grid over [-L, L] by a Nystrom rule in
symmetrized form

    M_ij = sqrt(w_i w_j) q(s_i, s_j),   i != j,

so M stays symmetric and its eigenvalues approximate the operator's.  The
logarithmic singularity on the diagonal is integrable; the diagonal entry
replaces the undefined q(s_i, s_i) by the exact cell average

    M_ii = w_i * (1/w_i) int_{|t| <= w_i/2} (1/2pi) K0(kappa |t|) dt,

computed from the antiderivative of K0 with the log part split off
analytically.  The correction obeys the exact scaling value(kappa, h) =
value(1, kappa*h).

Off the diagonal, assembly follows the curve's pieces.  The grid splits into
runs of consecutive nodes on one constant-curvature piece (straight tail,
arc, or segment between vertices).  Inside a run every chord depends on
|s - s'| alone, so on equally spaced, equally weighted nodes the run's
diagonal block is a Toeplitz matrix built from one row of K0 values.  Each
block between two runs is evaluated once from the chords of its node points
and mirrored, so M is exactly symmetric.  The straight line is a single run:
n K0 values instead of n^2.  A single corner needs fresh values only on the
cross block, about n^2/4 entries.

Eigensolves go dense (scipy.linalg.eigh restricted to the wanted pairs) up
to 1500 nodes and through ARPACK (scipy.sparse.linalg.eigsh, largest
algebraic) above, with a deterministic start vector and a residual check
||Mv - eta v|| <= 1e-10 ||M|| either way.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.integrate
import scipy.linalg
import scipy.sparse.linalg

from .specfun import EULER_GAMMA, bessel_k0
from . import geometry

__all__ = [
    "EigensolverError",
    "Grid",
    "KernelMatrix",
    "assemble",
    "diag_correction",
    "pairwise_distances",
    "q_kernel",
    "top_eigenpairs",
]

DENSE_CUTOFF = 1500
_RESIDUAL_FACTOR = 1e-10


class EigensolverError(RuntimeError):
    """An eigenpair missed the residual contract, after the dense retry if
    ARPACK did not converge."""


@dataclass(frozen=True)
class Grid:
    """Quadrature grid on [-L, L]: nodes, positive weights summing to 2L."""

    L: float
    n: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.L <= 0 or self.n < 2:
            raise ValueError("grid needs L > 0 and n >= 2")
        if self.nodes.shape != (self.n,) or self.weights.shape != (self.n,):
            raise ValueError("nodes/weights must have shape (n,)")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(np.abs(self.nodes) > self.L):
            raise ValueError("nodes must lie in [-L, L]")
        if abs(float(np.sum(self.weights)) - 2.0 * self.L) > 1e-9 * self.L:
            raise ValueError("weights must sum to 2L")

    @classmethod
    def uniform(cls, L, n):
        """Midpoint rule: cell width h = 2L/n, nodes at cell centers.

        Symmetric about 0 and endpoint-free, so every node owns the cell
        [s_i - h/2, s_i + h/2] that the diagonal correction averages over.
        """
        L = float(L)
        n = int(n)
        if n < 2 or L <= 0:
            raise ValueError("grid needs L > 0 and n >= 2")
        h = 2.0 * L / n
        nodes = -L + (np.arange(n) + 0.5) * h
        weights = np.full(n, h)
        return cls(L=L, n=n, nodes=nodes, weights=weights)

    @property
    def h(self):
        return 2.0 * self.L / self.n


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric Nystrom matrix and the data it was assembled from."""

    matrix: np.ndarray = field(repr=False)
    kappa: float
    grid: Grid
    curve_digest: str
    beta: float

    @property
    def dim(self):
        return self.matrix.shape[0]


def q_kernel(curve, kappa, s, s2):
    """Off-diagonal kernel value (1/2pi) K0(kappa |gamma(s) - gamma(s')|).

    The diagonal is logarithmically singular; s == s2 raises ValueError
    (assembly replaces it by the cell average, see diag_correction).
    """
    if kappa <= 0 or not math.isfinite(kappa):
        raise ValueError("kappa must be positive and finite")
    if s == s2:
        raise ValueError("kernel is singular on the diagonal; use diag_correction")
    rho = geometry.distance(curve, s, s2)
    return bessel_k0(kappa * rho) / (2.0 * math.pi)


def _k0_antiderivative(z):
    """int_0^z K0(u) du with the log singularity handled analytically.

    Splits K0(u) = [K0(u) + log(u/2) + gamma] - log(u/2) - gamma; the bracket
    is smooth and vanishes at 0, the rest integrates in closed form.  For
    z >= 30 the remaining mass is below 1e-14 and the full-line value pi/2
    is returned.
    """
    if z <= 0:
        return 0.0
    if z >= 30.0:
        return 0.5 * math.pi

    def smooth(u):
        if u < 1e-12:
            return 0.0
        return bessel_k0(u) + math.log(0.5 * u) + EULER_GAMMA

    regular, _ = scipy.integrate.quad(smooth, 0.0, z, epsabs=1e-14, epsrel=1e-12)
    return regular - z * (math.log(0.5 * z) - 1.0 + EULER_GAMMA)


def diag_correction(kappa, h):
    """Cell average (1/h) int_{-h/2}^{h/2} (1/2pi) K0(kappa |t|) dt.

    Exact scaling: diag_correction(kappa, h) == diag_correction(1, kappa*h).
    For kappa*h -> 0 it grows like (1/2pi)(log(2/(kappa h)) + 1 - gamma + log 2).
    """
    if kappa <= 0 or h <= 0 or not (math.isfinite(kappa) and math.isfinite(h)):
        raise ValueError("kappa and h must be positive and finite")
    z = 0.5 * kappa * h
    return _k0_antiderivative(z) / (math.pi * kappa * h)


def pairwise_distances(curve, nodes):
    """Full chord-distance matrix between grid nodes on the scaled curve."""
    pts = geometry.point(curve, np.asarray(nodes, dtype=float))
    return _chords(pts, pts)


def _runs(curve, grid):
    """(start, stop) index ranges of the node runs whose diagonal blocks are
    Toeplitz.

    Consecutive nodes share a run while they lie on one constant-curvature
    piece: a run ends where the tangent jumps or the curvature changes.  A
    node on a break belongs to the piece on its left, as in geometry.point.
    A run whose nodes are not equally spaced with equal weights is split into
    single nodes, so its entries are evaluated one by one as cross blocks.
    """
    sc = geometry._as_scaled(curve)
    ext, _, psi, curv, _ = sc._frame
    # region r covers ext[r-1] < s <= ext[r]; tangent with which it ends
    leaving = psi[:-1] + curv[:-1] * np.diff(ext, prepend=ext[0])
    breaks = ext[(curv[1:] != curv[:-1]) | (psi[1:] != leaving)]
    nodes, w = grid.nodes, grid.weights
    piece = np.searchsorted(breaks, nodes, side="left")
    edges = np.concatenate(([0], np.flatnonzero(np.diff(piece)) + 1, [grid.n]))
    tol = 16.0 * np.finfo(float).eps * grid.L
    runs = []
    for start, stop in zip(edges[:-1], edges[1:]):
        step = np.diff(nodes[start:stop])
        if (np.all(w[start:stop] == w[start])
                and (step.size == 0 or float(np.ptp(step)) <= tol)):
            runs.append((start, stop))
        else:
            runs.extend((i, i + 1) for i in range(start, stop))
    return runs


def _chords(pa, pb):
    """Chord lengths between two point sets of shape (m, 2) and (k, 2)."""
    rho = np.subtract.outer(pa[:, 0], pb[:, 0])
    dy = np.subtract.outer(pa[:, 1], pb[:, 1])
    return np.hypot(rho, dy, out=rho)


def assemble(curve, kappa, grid):
    """Symmetrized Nystrom matrix of the kernel at spectral parameter kappa.

    kappa > alpha/2 is the intended regime but is not enforced here.  K0 is
    evaluated once per distinct entry: one row per Toeplitz run (see _runs),
    written into the matrix through a strided view, and each block between a
    run and all later nodes, mirrored into its transpose.  No n x n
    temporary is made beyond the largest cross block and its chords.
    """
    if kappa <= 0 or not math.isfinite(kappa):
        raise ValueError("kappa must be positive and finite")
    w = grid.weights
    sw = np.sqrt(w) / math.sqrt(2.0 * math.pi)
    pts = geometry.point(curve, grid.nodes)
    mat = np.empty((grid.n, grid.n))
    for start, stop in _runs(curve, grid):
        m = stop - start
        rho = np.hypot(*(pts[start + 1:stop] - pts[start]).T)
        row = np.zeros(m)  # row[0] is the diagonal, filled in below
        row[1:] = bessel_k0(kappa * rho) * (w[start] / (2.0 * math.pi))
        mat[start:stop, start:stop] = sliding_window_view(
            np.concatenate((row[:0:-1], row)), m)[::-1]
        if stop == grid.n:
            continue
        block = _chords(pts[start:stop], pts[stop:])
        block *= kappa
        block = bessel_k0(block)
        block *= sw[start:stop, None]
        block *= sw[None, stop:]
        mat[start:stop, stop:] = block
        mat[stop:, start:stop] = block.T
        del block  # before the next run's chords are allocated

    if np.allclose(w, w[0]):
        diag = w[0] * diag_correction(kappa, float(w[0]))
        np.fill_diagonal(mat, diag)
    else:
        np.fill_diagonal(mat, w * np.array([diag_correction(kappa, float(wi)) for wi in w]))

    beta = curve.beta if isinstance(curve, geometry.ScaledCurve) else 1.0
    return KernelMatrix(matrix=mat, kappa=float(kappa), grid=grid,
                        curve_digest=geometry.curve_digest(curve), beta=float(beta))


def _dense_top(matrix, m):
    n = matrix.shape[0]
    vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=[n - m, n - 1])
    return vals[::-1], vecs[:, ::-1]


def top_eigenpairs(mat, m=1, v0=None):
    """Largest m eigenvalues (descending) and orthonormal eigenvectors.

    Dense eigh of the top m pairs only up to DENSE_CUTOFF nodes, ARPACK
    largest-algebraic beyond, always with a deterministic start vector;
    inside root-finding loops the previous eigenvector makes a good v0 and
    cuts the iteration count.  When ARPACK does not converge the dense
    solve takes over.
    Every returned pair must pass ||Mv - eta v|| <= 1e-10 ||M||; a miss
    raises EigensolverError.
    """
    matrix = mat.matrix if isinstance(mat, KernelMatrix) else np.asarray(mat)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    m = int(m)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got {m}")

    if n <= DENSE_CUTOFF or m >= n - 1:
        vals, vecs = _dense_top(matrix, m)
    else:
        if v0 is None or v0.shape != (n,):
            v0 = np.full(n, 1.0 / math.sqrt(n))
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(matrix, k=m, which="LA", v0=v0)
        except scipy.sparse.linalg.ArpackNoConvergence:
            vals, vecs = _dense_top(matrix, m)
        else:
            order = np.argsort(vals)[::-1]
            vals, vecs = vals[order], vecs[:, order]

    scale = max(float(np.max(np.abs(vals))), np.finfo(float).tiny)
    resid = np.linalg.norm(matrix @ vecs - vecs * vals[None, :], axis=0)
    worst = float(np.max(resid))
    if worst > _RESIDUAL_FACTOR * scale:
        raise EigensolverError(
            f"residual {worst:.3e} exceeds {_RESIDUAL_FACTOR:.0e} * ||M|| = "
            f"{_RESIDUAL_FACTOR * scale:.3e} (n={n}, m={m})")
    return vals.copy(), vecs.copy()
