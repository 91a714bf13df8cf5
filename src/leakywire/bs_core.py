"""Assembly and eigensolves for the resolvent-trace integral operator.

The object of interest is the integral operator on the curve with kernel

    q(s, s') = (1/2pi) K0( kappa * |gamma(s) - gamma(s')| ),      kappa > 0,

whose top eigenvalues decide where bound states sit.  The operator is
discretized by the midpoint rule on a Grid, which is nothing but (L, n):
n cells of width h = 2L/n over [-L, L], a node at each cell center.  With
equal weights the Nystrom matrix

    M_ij = h q(s_i, s_j),   i != j,

is symmetric and its eigenvalues approximate the operator's.  The
logarithmic singularity on the diagonal is integrable; the diagonal entry
replaces the undefined q(s_i, s_i) by the exact cell average

    M_ii = int_{|t| <= h/2} (1/2pi) K0(kappa |t|) dt
         = int_0^{kappa h/2} K0(u) du / (pi kappa),

the same for every node, with the K0 integral in closed form from scipy's
Bessel and modified Struve functions (see diag_correction).

Off the diagonal, assembly follows the curve's pieces.  The grid splits into
runs of consecutive nodes on one constant-curvature piece (straight tail,
arc, or segment between vertices), cut at the arc lengths geometry.breaks
reads from the curve's piece table.  Inside a run every chord depends on
|s - s'| alone, so on the equally spaced nodes the run's diagonal block is a
Toeplitz matrix built from one row of K0 values.  Each block between two
runs is evaluated once from the chords of its node points and mirrored, so
M is exactly symmetric.  The straight line is a single run: n K0 values
instead of n^2.  A single corner needs fresh values only on the cross
block, about n^2/4 entries.  assemble returns M as a plain ndarray.
slope_form walks the same runs and blocks with K1 in place of K0 to give
the quadratic form of dM/dkappa, the exact slope of an eigenvalue, without
building that matrix.

A curve that s -> -s maps onto itself (geometry.mirror_symmetric: the unit
corner, the straight line, a zigzag about 0) has, on the midpoint grid, a
centrosymmetric M, M_ij = M_{n-1-i, n-1-j}.  Its spectrum is the union of
an even and an odd block of about n/2 rows each, and assemble can return
those blocks instead of M, built from the first ceil(n/2) rows of M alone;
no n x n matrix is made.  unfold maps a block eigenvector back to all n
nodes.

Eigensolves go dense (scipy.linalg.eigh restricted to the wanted pairs) up
to DENSE_CUTOFF = 500 rows and through ARPACK (scipy.sparse.linalg.eigsh,
largest algebraic) above, with a deterministic start vector and a residual
check ||Mv - eta v|| <= 1e-10 ||M|| either way, on whichever matrix or block
is solved.  For an exactly folded block that residual equals the residual
of the unfolded vector against M.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.linalg
import scipy.sparse.linalg
import scipy.special

from .specfun import bessel_k0, bessel_k1
from . import geometry

__all__ = [
    "EigensolverError",
    "Grid",
    "assemble",
    "diag_correction",
    "pairwise_distances",
    "q_kernel",
    "slope_form",
    "top_eigenpairs",
    "unfold",
]

# dimension up to which top_eigenpairs solves dense: above it warm-started
# ARPACK is faster for one pair (twice as fast at 752 rows), below it the
# dense subset solve wins when two sweep threads share the cores
DENSE_CUTOFF = 500
_RESIDUAL_FACTOR = 1e-10
# entries per row chunk of a cross block in slope_form (512 kB of float64)
_CHUNK_ENTRIES = 1 << 16


class EigensolverError(RuntimeError):
    """An eigenpair missed the residual contract, after the dense retry if
    ARPACK did not converge."""


@dataclass(frozen=True)
class Grid:
    """Midpoint grid on [-L, L]: n cells of width h = 2L/n, one node at each
    cell center, every node weighted h.

    Symmetric about 0 and endpoint-free, so every node owns the cell
    [s_i - h/2, s_i + h/2] that the diagonal correction averages over.
    Grids compare equal when L and n do.
    """

    L: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.L < math.inf or self.n < 2:
            raise ValueError(
                f"grid needs 0 < L < inf and n >= 2, got L={self.L}, n={self.n}")

    @classmethod
    def uniform(cls, L, n):
        """The grid of n cells over [-L, L], with L as float and n as int."""
        return cls(L=float(L), n=int(n))

    @property
    def h(self):
        return 2.0 * self.L / self.n

    @property
    def nodes(self):
        return -self.L + (np.arange(self.n) + 0.5) * self.h


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


def diag_correction(kappa, h):
    """Cell average (1/h) int_{-h/2}^{h/2} (1/2pi) K0(kappa |t|) dt.

    Equal to int_0^z K0(u) du / (pi kappa h) with z = kappa h / 2, and the
    integral in closed form (Abramowitz & Stegun 11.1.8) from the modified
    Struve functions L_0 and L_{-1} = L_1 + 2/pi:

        int_0^z K0(u) du = (pi z / 2) (K0(z) L_{-1}(z) + K1(z) L_0(z)).

    Against mpmath at 30 digits this is within 7e-16 relative for z <= 12
    and 2e-13 up to z = 40; scipy.special.iti0k0 is off by up to 9e-15 for
    z <= 2 and 1.5e-11 near z = 12.  Past z = 40 the integral is pi/2 to
    double precision, and past z ~ 713 L_0 overflows, so z is capped at 40.

    Exact scaling: diag_correction(kappa, h) == diag_correction(1, kappa*h).
    For kappa*h -> 0 it grows like (1/2pi)(log(2/(kappa h)) + 1 - gamma + log 2).
    """
    if kappa <= 0 or h <= 0 or not (math.isfinite(kappa) and math.isfinite(h)):
        raise ValueError("kappa and h must be positive and finite")
    z = min(0.5 * kappa * h, 40.0)
    int_k0 = 0.5 * math.pi * z * (
        scipy.special.k0(z) * (scipy.special.modstruve(1, z) + 2.0 / math.pi)
        + scipy.special.k1(z) * scipy.special.modstruve(0, z))
    return float(int_k0) / (math.pi * kappa * h)


def pairwise_distances(curve, nodes):
    """Full chord-distance matrix between grid nodes on the scaled curve."""
    pts = geometry.point(curve, np.asarray(nodes, dtype=float))
    return _chords(pts, pts)


def _runs(curve, grid):
    """(start, stop) index ranges of the node runs whose diagonal blocks are
    Toeplitz.

    Consecutive nodes share a run while they lie on one constant-curvature
    piece: a run ends at each of geometry.breaks, where a vertex turns the
    tangent or the curvature changes.  A node on a break belongs to the
    piece on its left, as in geometry.point.
    """
    piece = np.searchsorted(geometry.breaks(curve), grid.nodes, side="left")
    edges = np.concatenate(([0], np.flatnonzero(np.diff(piece)) + 1, [grid.n]))
    return list(zip(edges[:-1], edges[1:]))


def _chords(pa, pb):
    """Chord lengths between two point sets of shape (m, 2) and (k, 2)."""
    rho = np.subtract.outer(pa[:, 0], pb[:, 0])
    dy = np.subtract.outer(pa[:, 1], pb[:, 1])
    return np.hypot(rho, dy, out=rho)


def assemble(curve, kappa, grid, parities=None):
    """Symmetric Nystrom matrix (ndarray) of the kernel at spectral
    parameter kappa, or its folded blocks.

    kappa > alpha/2 is the intended regime but is not enforced here.  K0 is
    evaluated once per distinct entry: one row per Toeplitz run (see _runs),
    written into the matrix through a strided view, and each block between a
    run and all later nodes, mirrored into its transpose.  No n x n
    temporary is made beyond the largest cross block and its chords.

    With parities, a tuple of +1 (even) and -1 (odd), the curve must be
    geometry.mirror_symmetric, and the list of the wanted blocks of M in
    that order is returned instead (see _fold).  Only the first ceil(n/2)
    rows of M are built.
    """
    if kappa <= 0 or not math.isfinite(kappa):
        raise ValueError("kappa must be positive and finite")
    n = grid.n
    rows = n
    if parities is not None:
        if not geometry.mirror_symmetric(curve):
            raise ValueError("folding needs a mirror-symmetric curve")
        rows = (n + 1) // 2
    h = grid.h
    scale = h / (2.0 * math.pi)
    pts = geometry.point(curve, grid.nodes)
    mat = np.empty((rows, n))
    for start, stop in _runs(curve, grid):
        if start >= rows:
            break
        m = stop - start
        built = min(stop, rows) - start
        rho = np.hypot(*(pts[start + 1:stop] - pts[start]).T)
        row = np.zeros(m)  # row[0] is the diagonal, filled in below
        row[1:] = bessel_k0(kappa * rho) * scale
        mat[start:start + built, start:stop] = sliding_window_view(
            np.concatenate((row[:0:-1], row)), m)[::-1][:built]
        if stop == n:
            continue
        block = _chords(pts[start:start + built], pts[stop:])
        block *= kappa
        block = bessel_k0(block)
        block *= scale
        mat[start:start + built, stop:] = block
        if stop < rows:
            mat[stop:, start:stop] = block[:, :rows - stop].T
        del block  # before the next run's chords are allocated

    np.fill_diagonal(mat, h * diag_correction(kappa, h))
    if parities is None:
        return mat
    return [_fold(mat, parity) for parity in parities]


def _fold(top, parity):
    """Even (parity +1) or odd (-1) block of a centrosymmetric M from its
    first ceil(n/2) rows.

    With m = n // 2, A the leading m x m block of M, B the block to its
    right and J the reversal, M maps even vectors (x, Jx) to even ones and
    odd vectors (x, -Jx) to odd ones, acting on x as A + BJ and A - BJ
    (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  For odd n the axis
    node m is part of every even vector and of no odd one; in the even block
    its coupling carries a factor sqrt(2), which keeps the block symmetric
    and its eigenvectors orthonormal.  unfold maps them back.
    """
    n = top.shape[1]
    m = n // 2
    folded = top[:m, :m] + parity * top[:m, ::-1][:, :m]
    if parity < 0 or n == 2 * m:
        return folded
    out = np.empty((m + 1, m + 1))
    out[:m, :m] = folded
    out[:m, m] = out[m, :m] = math.sqrt(2.0) * top[:m, m]
    out[m, m] = top[m, m]
    return out


def unfold(vec, n, parity):
    """Unit vector on all n nodes from a unit vector of the even (parity +1)
    or odd (-1) block of assemble, inverting the fold: the residual of a
    block eigenpair is the residual of the unfolded pair against M."""
    m = n // 2
    out = np.empty(n)
    out[:m] = vec[:m] / math.sqrt(2.0)
    out[n - m:] = parity * out[m - 1::-1]
    if n > 2 * m:
        out[m] = vec[m] if parity > 0 else 0.0
    return out


def slope_form(curve, kappa, grid, vecs):
    """m x m matrix V^T (dM/dkappa) V for node vectors V of shape (n, m).

    For a unit eigenvector v of M this is d eta / d kappa (Hellmann-Feynman).
    Off the diagonal dM/dkappa = -(h/2pi) rho K1(kappa rho); on it the
    derivative of the cell average,

        h K0(z) / (2pi kappa) - h diag_correction(kappa, h) / kappa,   z = kappa h/2.

    The walk is assemble's: each Toeplitz run needs one row of K1 values,
    applied through np.correlate of the run's vectors, and each block
    between a run and all later nodes is evaluated in row chunks of at
    most _CHUNK_ENTRIES entries.  No n x n array is made.
    """
    if kappa <= 0 or not math.isfinite(kappa):
        raise ValueError("kappa must be positive and finite")
    vecs = np.asarray(vecs, dtype=float)
    if vecs.ndim != 2 or vecs.shape[0] != grid.n:
        raise ValueError(f"vecs must have shape ({grid.n}, m), got {vecs.shape}")
    n, m = vecs.shape
    h = grid.h
    pts = geometry.point(curve, grid.nodes)
    diag = h * (bessel_k0(0.5 * kappa * h) / (2.0 * math.pi)
                - diag_correction(kappa, h)) / kappa
    form = diag * (vecs.T @ vecs)
    off = np.zeros((m, m))  # the off-diagonal form, without -h/2pi
    for start, stop in _runs(curve, grid):
        run = vecs[start:stop]
        if stop - start > 1:
            rho = np.hypot(*(pts[start + 1:stop] - pts[start]).T)
            row = rho * bessel_k1(kappa * rho)
            # weights by lag -(len - 1) .. len - 1, as np.correlate orders them
            lags = np.concatenate((row[::-1], [0.0], row))
            for p in range(m):
                for q in range(p, m):
                    off[p, q] += lags @ np.correlate(run[:, q], run[:, p], "full")
                    off[q, p] = off[p, q]
        if stop == n:
            continue
        chunk = max(1, _CHUNK_ENTRIES // (n - stop))
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            rho = _chords(pts[lo:hi], pts[stop:])
            block = bessel_k1(kappa * rho)
            block *= rho
            part = vecs[lo:hi].T @ block @ vecs[stop:]
            off += part + part.T
    return form - (h / (2.0 * math.pi)) * off


def _dense_top(matrix, m):
    n = matrix.shape[0]
    vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=[n - m, n - 1])
    return vals[::-1], vecs[:, ::-1]


def top_eigenpairs(mat, m=1, v0=None):
    """Largest m eigenvalues (descending) and orthonormal eigenvectors.

    Dense eigh of the top m pairs only up to DENSE_CUTOFF rows, ARPACK
    largest-algebraic beyond, always with a deterministic start vector;
    inside root-finding loops the previous eigenvector makes a good v0 and
    cuts the iteration count.  When ARPACK does not converge the dense
    solve takes over.
    Every returned pair must pass ||Mv - eta v|| <= 1e-10 ||M||; a miss
    raises EigensolverError.
    """
    matrix = np.asarray(mat)
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
