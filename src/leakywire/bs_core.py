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
Toeplitz matrix built from one row of K0 values.  The straight line is a
single run: n K0 values instead of n^2.  Each block between a run and all
later nodes is smooth away from the vertex where the two pieces meet, and
of low numerical rank: the n/2 x n/2 cross block of a single corner has
rank 20 to 25 at 1e-14.  Adaptive cross approximation (_aca) builds it as
U @ V from r rows and r columns of K0 values, r (n/2 + n/2) in all instead
of n^2/4, checked against one sampled entry per row; a block too small for
that to pay, or one whose check misses, is evaluated entry by entry.  Each
block is written once and mirrored, so M is exactly symmetric, and assemble
returns M as a plain ndarray.  slope_form walks the same runs and blocks
with K1 in place of K0 to give the quadratic form of dM/dkappa, the exact
slope of an eigenvalue, without building that matrix or its blocks.

A curve that s -> -s maps onto itself (geometry.mirror_symmetric: the unit
corner, the straight line, a zigzag about 0) has, on the midpoint grid, a
centrosymmetric M, M_ij = M_{n-1-i, n-1-j}.  Its spectrum is the union of
an even and an odd block of about n/2 rows each, and assemble can return
those blocks instead of M, built from the first ceil(n/2) rows of M alone;
no n x n matrix is made.  unfold maps a block eigenvector back to all n
nodes.

Eigensolves go dense (scipy.linalg.eigh restricted to the wanted pairs) up
to DENSE_CUTOFF = 500 rows and through a block thick-restart Lanczos in
numpy above (_lanczos_top), with a deterministic start block and a residual
check ||Mv - eta v|| <= 1e-10 ||M|| either way, on whichever matrix or block
is solved.  For an exactly folded block that residual equals the residual
of the unfolded vector against M.  The Lanczos products with M and its
orthogonalization run in numpy's BLAS, as assembly does; only the small
projected eigenproblem goes to scipy.  ARPACK (scipy's eigsh) would
interleave its own BLAS calls, made through scipy's OpenBLAS, with products
in numpy's, and on few cores the two thread pools slow each other.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.linalg
import scipy.special

from .specfun import bessel_k0, bessel_k1
from . import geometry

__all__ = [
    "EigensolverError",
    "Grid",
    "assemble",
    "diag_correction",
    "slope_form",
    "top_eigenpairs",
    "unfold",
]

# dimension up to which top_eigenpairs solves dense.  A threshold plus
# ground solve of the unit corner at h = 0.5, on 2 vCPUs (medians of 15
# alternating wall times, dense against block Lanczos): on 290-row blocks
# 107 against 121 ms in the main thread and 184 against 235 ms with two
# pool threads each running the pair, as in the sweep pool; on 400-row
# blocks 190 against 186 ms and 276 against 368 ms.  On the 752-row blocks
# of an n = 1504 corner solve the eigensolves of the pair take 0.11 s with
# Lanczos and 0.35-0.39 s dense.
DENSE_CUTOFF = 500
_RESIDUAL_FACTOR = 1e-10
# _lanczos_top: basis size, restart limit, the Ritz residual at which a pair
# has converged (relative to |theta_1|, an order below the contract), and
# the seed of the start block's extra columns
_BASIS = 20
_MAX_RESTARTS = 50
_LANCZOS_TOL = 1e-11
_LANCZOS_SEED = 0
# a new basis vector is dropped when orthogonalization leaves less than
# this share of its norm
_DROP = 1e-8
# entries per row chunk of a cross block that slope_form evaluates directly
# (512 kB of float64)
_CHUNK_ENTRIES = 1 << 16
# cross approximation (_aca): the sampled check holds the factors to the
# 1e-13 max|M| within which assembly matches entry-by-entry evaluation, and
# the stopping tolerance sits an order below it.  Without a cap, the cross
# blocks of the benchmark workloads' grids take 14 to 27 crosses at that
# tolerance, and 108 of the 114 per round whose cap is below _ACA_MIN_RANK
# need more crosses than their cap allows.  Trying them anyway made the
# wiggle-sweep rounds 37 % slower and left beta-sweep flat, so such a block
# is evaluated directly from the start.
_ACA_CHECK = 1e-13
_ACA_EPS = 0.1 * _ACA_CHECK
_ACA_MIN_RANK = 24
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


class EigensolverError(RuntimeError):
    """An eigenpair missed the residual contract, after the dense retry if
    block Lanczos did not converge."""


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


def _aca(fn, pa, pb):
    """Low-rank factors (U, V), U of shape (m, r) and V of shape (r, k), with
    U @ V ~ fn(_chords(pa, pb)), or None where the block is to be evaluated
    directly.

    Adaptive cross approximation with partial pivoting (Bebendorf, Numer.
    Math. 86, 2000): each step evaluates one residual row and the residual
    column through its largest entry, r (m + k) kernel values in all.  It
    starts at the last row of pa, next to pb where the kernel peaks, moves
    to the unused row with the largest entry of the last column, and stops
    when the last cross is below _ACA_EPS times the Frobenius norm of the
    approximant.  The factors are then checked against fn at one sampled
    entry per row, at columns spread by the golden ratio, to _ACA_CHECK
    times the largest value seen.

    None when the block is too small for the rank to pay (a rank cap of
    m k / (4 (m + k)), a quarter of the direct evaluations, below
    _ACA_MIN_RANK), when the cap is hit, or when the check misses.  fn maps
    an array of chords to kernel values and may overwrite its argument.
    """
    m, k = len(pa), len(pb)
    cap = m * k // (4 * (m + k))
    if cap < _ACA_MIN_RANK:
        return None
    us = np.empty((cap, m))
    vs = np.empty((cap, k))
    free = np.ones(m, dtype=bool)
    i = m - 1
    norm2 = 0.0
    scale = 0.0
    for r in range(cap):
        free[i] = False
        row = fn(_chords(pa[i:i + 1], pb)[0]) - us[:r, i] @ vs[:r]
        j = int(np.argmax(np.abs(row)))
        if row[j] == 0.0:
            break  # the approximant already reproduces this row exactly
        col = fn(_chords(pa, pb[j:j + 1])[:, 0]) - us[:r].T @ vs[:r, j]
        if r == 0:
            scale = max(np.max(np.abs(row)), np.max(np.abs(col)))
        v = row / row[j]
        us[r], vs[r] = col, v
        cross = np.linalg.norm(col) * np.linalg.norm(v)
        norm2 += cross * cross + 2.0 * (us[:r] @ col) @ (vs[:r] @ v)
        if cross <= _ACA_EPS * math.sqrt(norm2):
            r += 1
            break
        free_col = np.where(free, np.abs(col), -1.0)
        i = int(np.argmax(free_col))
    else:
        return None
    u, v = us[:r].T, vs[:r]
    cols = (np.modf((m - 1 - np.arange(m)) * _GOLDEN)[0] * k).astype(int)
    direct = fn(np.hypot(*(pa - pb[cols]).T))
    approx = np.einsum("ij,ji->i", u, v[:, cols])
    scale = max(scale, np.max(np.abs(direct)))
    if np.max(np.abs(approx - direct)) > _ACA_CHECK * scale:
        return None
    return u, v


def assemble(curve, kappa, grid, parities=None):
    """Symmetric Nystrom matrix (ndarray) of the kernel at spectral
    parameter kappa, or its folded blocks.

    kappa > alpha/2 is the intended regime but is not enforced here.  K0 is
    evaluated once per distinct entry of each Toeplitz run (see _runs): one
    row, written into the matrix through a strided view.  Each block
    between a run and all later nodes is built from its cross approximation
    factors (_aca), or evaluated entry by entry where those do not serve,
    and mirrored into its transpose.  No n x n temporary is made beyond the
    largest cross block.

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

    def entries(rho):
        rho *= kappa
        out = bessel_k0(rho)
        out *= scale
        return out

    pts = geometry.point(curve, grid.nodes)
    mat = np.empty((rows, n))
    for start, stop in _runs(curve, grid):
        if start >= rows:
            break
        m = stop - start
        built = min(stop, rows) - start
        row = np.zeros(m)  # row[0] is the diagonal, filled in below
        row[1:] = entries(np.hypot(*(pts[start + 1:stop] - pts[start]).T))
        mat[start:start + built, start:stop] = sliding_window_view(
            np.concatenate((row[:0:-1], row)), m)[::-1][:built]
        if stop == n:
            continue
        pa, pb = pts[start:start + built], pts[stop:]
        factors = _aca(entries, pa, pb)
        block = factors[0] @ factors[1] if factors else entries(_chords(pa, pb))
        mat[start:start + built, stop:] = block
        if stop < rows:
            mat[stop:, start:stop] = block[:, :rows - stop].T
        del block  # before the next run's block is allocated

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


def _slope_diagonal(kappa, h):
    """Diagonal entry of dM/dkappa, the kappa-derivative of the cell average
    h diag_correction(kappa, h)."""
    return h * (bessel_k0(0.5 * kappa * h) / (2.0 * math.pi)
                - diag_correction(kappa, h)) / kappa


def slope_form(curve, kappa, grid, vecs):
    """m x m matrix V^T (dM/dkappa) V for node vectors V of shape (n, m).

    For a unit eigenvector v of M this is d eta / d kappa (Hellmann-Feynman).
    Off the diagonal dM/dkappa = -(h/2pi) rho K1(kappa rho); on it the
    derivative of the cell average,

        h K0(z) / (2pi kappa) - h diag_correction(kappa, h) / kappa,   z = kappa h/2.

    The walk is assemble's: each Toeplitz run needs one row of K1 values,
    applied through np.correlate of the run's vectors, and each block
    between a run and all later nodes contributes (V_run^T U)(W V_later)
    from its cross approximation factors U, W (_aca).  Where those do not
    serve, the block is evaluated in row chunks of at most _CHUNK_ENTRIES
    entries.  No n x n array is made.
    """
    if kappa <= 0 or not math.isfinite(kappa):
        raise ValueError("kappa must be positive and finite")
    vecs = np.asarray(vecs, dtype=float)
    if vecs.ndim != 2 or vecs.shape[0] != grid.n:
        raise ValueError(f"vecs must have shape ({grid.n}, m), got {vecs.shape}")
    n, m = vecs.shape
    h = grid.h

    def entries(rho):
        out = bessel_k1(kappa * rho)
        out *= rho
        return out

    pts = geometry.point(curve, grid.nodes)
    form = _slope_diagonal(kappa, h) * (vecs.T @ vecs)
    off = np.zeros((m, m))  # the off-diagonal form, without -h/2pi
    for start, stop in _runs(curve, grid):
        run = vecs[start:stop]
        if stop - start > 1:
            row = entries(np.hypot(*(pts[start + 1:stop] - pts[start]).T))
            # weights by lag -(len - 1) .. len - 1, as np.correlate orders them
            lags = np.concatenate((row[::-1], [0.0], row))
            for p in range(m):
                for q in range(p, m):
                    off[p, q] += lags @ np.correlate(run[:, q], run[:, p], "full")
                    off[q, p] = off[p, q]
        if stop == n:
            continue
        factors = _aca(entries, pts[start:stop], pts[stop:])
        if factors:
            part = (run.T @ factors[0]) @ (factors[1] @ vecs[stop:])
        else:
            part = np.zeros((m, m))
            chunk = max(1, _CHUNK_ENTRIES // (n - stop))
            for lo in range(start, stop, chunk):
                hi = min(lo + chunk, stop)
                block = entries(_chords(pts[lo:hi], pts[stop:]))
                part += vecs[lo:hi].T @ block @ vecs[stop:]
        off += part + part.T
    return form - (h / (2.0 * math.pi)) * off


def _dense_top(matrix, m):
    n = matrix.shape[0]
    vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=[n - m, n - 1])
    return vals[::-1], vecs[:, ::-1]


def _lanczos_top(matrix, m, v0):
    """Largest m eigenpairs (descending) by block thick-restart Lanczos, or
    None when they have not converged after _MAX_RESTARTS restarts.

    The start block is v0, or the constant vector when v0 is None, not of
    shape (n,), zero or not finite, followed by m - 1 columns of a
    fixed-seed generator: a single start vector that is even under a
    symmetry of the matrix keeps the Krylov space even and misses odd
    eigenvalues.  Each new block is orthogonalized twice against the whole
    basis, of at most max(_BASIS, 3 m) vectors, and its images under the
    matrix are kept, so the projected matrix and the Ritz residuals cost no
    products beyond one per basis vector.  After each block comes
    Rayleigh-Ritz on the projected matrix; the residuals of the wanted Ritz
    pairs that are not yet below _LANCZOS_TOL |theta_1| form the next block.
    In exact arithmetic they span the next block of the block Lanczos
    recurrence.  A full basis restarts from the top half of its Ritz
    vectors (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000), and the
    residual block extends them.
    """
    n = matrix.shape[0]
    size = max(_BASIS, 3 * m)
    keep = size // 2
    if (v0 is None or np.shape(v0) != (n,) or not np.all(np.isfinite(v0))
            or not np.any(v0)):
        v0 = np.ones(n)
    rng = np.random.default_rng(_LANCZOS_SEED)
    block = np.column_stack((v0, rng.standard_normal((n, m - 1))))
    basis = np.empty((n, size))
    image = np.empty((n, size))
    used = 0
    restarts = 0
    while True:
        first = used
        for x in block.T:
            norm = np.linalg.norm(x)
            for _ in range(2):
                x = x - basis[:, :used] @ (basis[:, :used].T @ x)
            if np.linalg.norm(x) > _DROP * norm:
                basis[:, used] = x / np.linalg.norm(x)
                used += 1
        if used == first:
            return None  # the block lies in the basis to rounding
        image[:, first:used] = matrix @ basis[:, first:used]
        proj = basis[:, :used].T @ image[:, :used]
        theta, y = scipy.linalg.eigh(0.5 * (proj + proj.T))
        theta, y = theta[::-1], y[:, ::-1]
        ritz = basis[:, :used] @ y[:, :m]
        resid = image[:, :used] @ y[:, :m] - ritz * theta[:m]
        open_ = np.linalg.norm(resid, axis=0) > _LANCZOS_TOL * abs(theta[0])
        if not np.any(open_):
            return theta[:m], ritz
        block = resid[:, open_]
        if used + block.shape[1] > size:
            if restarts == _MAX_RESTARTS:
                return None
            restarts += 1
            basis[:, :keep] = basis[:, :used] @ y[:, :keep]
            image[:, :keep] = image[:, :used] @ y[:, :keep]
            used = keep


def top_eigenpairs(mat, m=1, v0=None):
    """Largest m eigenvalues (descending) and orthonormal eigenvectors.

    Dense eigh of the top m pairs only up to DENSE_CUTOFF rows, block
    Lanczos (_lanczos_top) beyond, always with a deterministic start block;
    inside root-finding loops the previous eigenvector makes a good v0 and
    cuts the number of products with the matrix.  When Lanczos has not
    converged after its restarts the dense solve takes over.
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

    found = None
    if n > DENSE_CUTOFF and m < n - 1:
        found = _lanczos_top(matrix, m, v0)
    vals, vecs = found if found is not None else _dense_top(matrix, m)

    scale = max(float(np.max(np.abs(vals))), np.finfo(float).tiny)
    resid = np.linalg.norm(matrix @ vecs - vecs * vals[None, :], axis=0)
    worst = float(np.max(resid))
    if worst > _RESIDUAL_FACTOR * scale:
        raise EigensolverError(
            f"residual {worst:.3e} exceeds {_RESIDUAL_FACTOR:.0e} * ||M|| = "
            f"{_RESIDUAL_FACTOR * scale:.3e} (n={n}, m={m})")
    return vals.copy(), vecs.copy()
