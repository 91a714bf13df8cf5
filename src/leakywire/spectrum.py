"""Bound states from the spectral condition alpha * eta_j(kappa) = 1.

For coupling alpha > 0 the operator has essential spectrum starting at
-alpha^2/4; a discrete eigenvalue -kappa^2 below it exists exactly when the
kernel operator at spectral parameter kappa has an eigenvalue 1/alpha.  Each
eta_j(kappa) is strictly decreasing in kappa (the kappa-derivative of the
kernel matrix is negative definite: it is built from the function
|z| K1(kappa |z|), whose 2-d Fourier transform is positive), so every level
is the single root of g_j(kappa) = alpha * eta_j(kappa) - 1 over
(alpha/2, kappa_hi].  It is found by safeguarded steps from the exact slope
g_j' = alpha v^T (dM/dkappa) v of the unit eigenvector v (Hellmann-Feynman,
bs_core.slope_form), starting at the search floor: each step goes to the
root of the cubic Hermite interpolant of kappa(g_j) through the two
evaluated points nearest the root, of order 1 + sqrt 3 (Traub, Iterative
Methods for the Solution of Equations, 1964), with Newton's step (Ruhe,
SIAM J. Numer. Anal. 10, 1973) and bisection as fallbacks.  The last
Newton correction |g/g'| is returned with each root as its error bar.

No bound state is an outcome, not an error: when g_1 is already negative just
above threshold the grid resolves nothing below the essential spectrum and
solve_ground returns a NoBoundState value.  The straight line always takes
that path.

Each kappa is assembled and solved at most once per solve, for every level
still in play: one evaluation at the search floor gives all margins, the
unbound levels drop out there, and each later evaluation gives the top
pairs of the bound levels and, after the eigensolve has freed the matrix,
one slope pass their slopes.  So an evaluation made for one level is a free
interpolation point for the others.
Every step rebuilds the matrix; bs_core.assemble keeps that cheap by
evaluating K0 only on the entries the curve's pieces do not repeat.  A
mirror-symmetric curve (geometry.mirror_symmetric, read from its piece
table) is solved on the even and odd half-size blocks of its matrix
instead, which is exact: the ground state needs the even block alone, and
the returned eigenfunction is unfolded to all n nodes.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .bs_core import Grid, assemble, slope_form, top_eigenpairs, unfold

__all__ = [
    "NoBoundState",
    "NumericalError",
    "SpectralResult",
    "solve_all",
    "solve_ground",
    "solve_threshold",
]

_KAPPA_LO_SHIFT = 1e-12
_HI_CAP_FACTOR = 64.0
_MAX_STEPS = 100
DEFAULT_CLUSTER_TOL = 1e-8


class NumericalError(RuntimeError):
    """Root finding found no sign change or failed to converge."""


@dataclass(frozen=True)
class NoBoundState:
    """Outcome value: nothing resolved below the essential spectrum.

    margin is alpha * eta_1 - 1 evaluated just above threshold (negative).
    """

    alpha: float
    level: int
    margin: float
    grid: Grid

    def __bool__(self):
        return False


@dataclass(frozen=True)
class SpectralResult:
    """One discrete eigenvalue lambda = -kappa^2 with its kernel eigenfunction.

    eigenfunction holds node values normalized to 1 in the grid norm
    h sum f_i^2.  residual is |alpha * eta - 1| at the returned kappa, and
    kappa_error the last Newton correction |g/g'| there, an error bar on
    kappa against the grid's root.
    near_degenerate marks membership in a cluster of levels closer than the
    clustering tolerance.
    """

    kappa: float
    eigenvalue: float
    delta: float
    residual: float
    kappa_error: float
    level: int
    grid: Grid
    curve_digest: str
    eigenfunction: np.ndarray = field(repr=False)
    near_degenerate: bool = False

    def to_dict(self):
        """JSON form: {kappa, lambda, delta, residual, kappa_error,
        grid: {L, n}, curve_hash}."""
        return {
            "kappa": self.kappa,
            "lambda": self.eigenvalue,
            "delta": self.delta,
            "residual": self.residual,
            "kappa_error": self.kappa_error,
            "grid": {"L": self.grid.L, "n": self.grid.n},
            "curve_hash": self.curve_digest,
        }


def _hermite_root(a, b):
    """Zero of the cubic Hermite interpolant of the inverse function
    kappa(g) through two points (kappa, (g, g')), g' < 0 and g distinct at
    the two: kappa and its derivative 1/g' match at both.  Its order is
    1 + sqrt 3 (Traub, Iterative Methods for the Solution of Equations,
    1964)."""
    (xa, (ga, da)), (xb, (gb, db)) = a, b
    span = gb - ga
    t = -ga / span
    return (xa + t * t * (3.0 - 2.0 * t) * (xb - xa)
            + span * t * (t - 1.0) * ((t - 1.0) / da + t / db))


def _newton(g, slope, x, lo, hi, tol, known=()):
    """Root of the decreasing function g inside [lo, hi] by safeguarded
    Hermite steps from x; returns the last evaluated kappa and |g/g'| there,
    once that correction is below tol/2, or the width of the closed bracket
    if that fell below tol/2 first.

    known holds points already evaluated elsewhere, whose g and slope cost
    nothing more; they count as evaluated.  Each step goes to the root of
    the cubic Hermite interpolant of kappa(g) through the two evaluated
    points with the smallest |g| (_hermite_root), or, from the first point
    or when that root leaves the bracket, to the Newton step from x.
    The bracket moves to each evaluated point, onto the side its sign puts
    it; a step that leaves the bracket bisects it instead.  An end never
    evaluated is only assumed to have its side's sign: when the bracket
    closes onto one, g has no sign change inside and NumericalError is
    raised.  The correction is the distance to the root to first order.
    For a convex g, as g_1 is, it bounds that distance from above the root
    and falls short of it by a relative O(correction) from below.
    """
    ends, seen = [lo, hi], [False, False]
    points = {}  # kappa -> (g, g') of every evaluated point with g' < 0

    def visit(y):
        gy = g(y)
        if gy != 0.0 and ends[0] <= y <= ends[1]:
            side = 0 if gy > 0.0 else 1
            ends[side], seen[side] = y, True
        return gy

    for y in known:
        gy, dg = visit(y), slope(y)
        if dg < 0.0:
            points[y] = gy, dg
    for _ in range(_MAX_STEPS):
        gx = visit(x)
        if gx == 0.0:
            return x, 0.0
        dg = slope(x)
        correction = -gx / dg if dg < 0.0 else math.inf
        if abs(correction) < 0.5 * tol:
            return x, abs(correction)
        if ends[1] - ends[0] < 0.5 * tol:
            if not all(seen):
                raise NumericalError(
                    f"no sign change between kappa = {lo:.6g} and {hi:.6g}")
            return x, ends[1] - ends[0]
        if dg < 0.0:
            points[x] = gx, dg
        steps = [x + correction]
        best = sorted(points.items(), key=lambda item: abs(item[1][0]))[:2]
        if len(best) == 2 and best[0][1][0] != best[1][1][0]:
            steps.insert(0, _hermite_root(*best))
        x = next((y for y in steps if ends[0] < y < ends[1]),
                 0.5 * (ends[0] + ends[1]))
    raise NumericalError(
        f"root search on [{lo:.10g}, {hi:.10g}] did not converge "
        f"in {_MAX_STEPS} steps")


class _Solver:
    """Shared state for root finding, keyed by kappa alone.  One assembly
    and eigensolve at a kappa give the top pairs of every level in play,
    1 .. levels, and one slope_form pass their slopes, computed only when a
    root step asks for one.  Both are remembered for the rest of the solve,
    and the last top eigenvector of each block is the next Lanczos start
    vector.

    A geometry.mirror_symmetric curve is solved on the even and odd blocks
    of its matrix (bs_core.assemble with parities).  The ground state is the
    Perron vector of the positive matrix M, which is even, so level 1 needs
    the even block alone; the top m levels are the top m of the merged
    values of the two blocks, at most m of them even and m - 1 odd.
    """

    def __init__(self, curve, alpha, grid, kappa_floor=None):
        if alpha <= 0 or not math.isfinite(alpha):
            raise ValueError("alpha must be positive and finite")
        self.curve = curve
        self.alpha = float(alpha)
        self.grid = grid
        if kappa_floor is None:
            kappa_floor = 0.5 * self.alpha
        if not 0.0 < kappa_floor < 2.0 * self.alpha:
            raise ValueError("kappa_floor must lie in (0, 2 alpha)")
        self.floor = float(kappa_floor)
        self.mirror = geometry.mirror_symmetric(curve)
        self.levels = 1
        self._warm = {}
        self._pairs = {}
        self._slopes = {}

    def _top(self, kappa, m):
        """The top m (eta, unit eigenvector) pairs at kappa, descending."""
        if self.mirror:
            parities = (1, -1) if m > 1 else (1,)
            blocks = assemble(self.curve, kappa, self.grid, parities=parities)
        else:
            parities, blocks = (None,), [assemble(self.curve, kappa, self.grid)]
        found = []
        for parity, mat in zip(parities, blocks):
            count = min(m - 1 if parity == -1 else m, len(mat))
            vals, vecs = top_eigenpairs(mat, count, v0=self._warm.get(parity))
            self._warm[parity] = vecs[:, 0]
            found += [(float(val), parity, vecs[:, i]) for i, val in enumerate(vals)]
        found.sort(key=lambda pair: -pair[0])
        return [(val, vec if parity is None else unfold(vec, self.grid.n, parity))
                for val, parity, vec in found[:m]]

    def eigen(self, kappa, j):
        """(eta_j, unit eigenvector) at kappa, from the one evaluation there
        of levels 1 .. max(j, levels)."""
        kappa = float(kappa)
        pairs = self._pairs.get(kappa, ())
        if len(pairs) < j:
            pairs = self._pairs[kappa] = self._top(kappa, max(j, self.levels))
        return pairs[j - 1]

    def g(self, kappa, j):
        val, _ = self.eigen(kappa, j)
        return self.alpha * val - 1.0

    def slope(self, kappa, j):
        """g_j'(kappa) = alpha v^T (dM/dkappa) v from the unit eigenvector
        of eigen(kappa, j) (Hellmann-Feynman).  One slope_form pass at a
        kappa gives levels j .. max(j, levels): levels are solved in order,
        so those below j need no slope any more."""
        kappa = float(kappa)
        known = self._slopes.setdefault(kappa, {})
        if j not in known:
            wanted = range(j, max(j, self.levels) + 1)
            vecs = np.column_stack([self.eigen(kappa, i)[1] for i in wanted])
            form = slope_form(self.curve, kappa, self.grid, vecs)
            known.update(zip(wanted, (self.alpha * np.diag(form)).tolist()))
        return known[j]

    def kappa_lo(self):
        return self.floor * (1.0 + _KAPPA_LO_SHIFT)

    def root(self, j, tol, start, lo, hi):
        """Level j's kappa and its error bar by _newton from start; every
        kappa evaluated so far with level j's slope counts as known."""
        known = [kappa for kappa, slopes in self._slopes.items() if j in slopes]
        return _newton(lambda kappa: self.g(kappa, j),
                       lambda kappa: self.slope(kappa, j), start, lo, hi, tol,
                       known)

    def level(self, j, tol):
        """Level j's SpectralResult; g_j(kappa_lo()) > 0 must already hold.
        Root steps start at kappa_lo(), which brackets the root from
        below, and stop at the floor plus 64 alpha."""
        lo = self.kappa_lo()
        kappa, error = self.root(j, tol, lo, lo,
                                 self.floor + _HI_CAP_FACTOR * self.alpha)
        val, vec = self.eigen(kappa, j)
        residual = abs(self.alpha * val - 1.0)
        f = vec / math.sqrt(self.grid.h)
        delta_sq = kappa * kappa - 0.25 * self.alpha * self.alpha
        return SpectralResult(
            kappa=float(kappa),
            eigenvalue=-(kappa * kappa),
            delta=math.sqrt(max(delta_sq, 0.0)),
            residual=float(residual),
            kappa_error=float(error),
            level=j,
            grid=self.grid,
            curve_digest=geometry.curve_digest(self.curve),
            eigenfunction=f,
        )


def _default_tol(alpha, tol):
    if tol is None:
        return 1e-8 * alpha
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return float(tol)


def solve_ground(curve, alpha, grid, tol=None, kappa_floor=None):
    """Ground state below the essential spectrum, or NoBoundState.

    Root of g(kappa) = alpha * eta_1(kappa) - 1 above the search floor;
    the returned kappa is within tol/2 of the grid's root to first order
    in tol (tol defaults to 1e-8 alpha), and kappa_error estimates the
    distance.

    kappa_floor defaults to the nominal threshold alpha/2.  On a finite grid
    the effective threshold sits below alpha/2 (truncation and quadrature
    push it down), so states with a gap smaller than that bias have
    kappa* < alpha/2 and the default floor hides them.  Passing the
    same-grid straight-line threshold (solve_threshold) as the floor
    resolves them; the meaningful gap is then kappa*^2 - kappa_thr^2.
    """
    solver = _Solver(curve, alpha, grid, kappa_floor)
    tol = _default_tol(solver.alpha, tol)
    margin = solver.g(solver.kappa_lo(), 1)
    if margin <= 0.0:
        return NoBoundState(alpha=solver.alpha, level=1, margin=margin, grid=grid)
    return solver.level(1, tol)


def solve_all(curve, alpha, grid, maxk=8, tol=None, cluster_tol=None,
              kappa_floor=None):
    """All resolved levels in order, with near-degeneracy flags.

    Levels are solved one at a time (each eta_j is monotone in kappa);
    the count stops at the first j whose g_j stays negative at the search
    floor (see solve_ground for the kappa_floor semantics).  Adjacent
    eigenvalues closer than cluster_tol (default 1e-8 alpha^2) are flagged
    near_degenerate, which downstream perturbation code treats as one
    cluster.
    """
    if maxk < 1:
        raise ValueError(f"maxk must be at least 1, got {maxk}")
    solver = _Solver(curve, alpha, grid, kappa_floor)
    tol = _default_tol(solver.alpha, tol)
    if cluster_tol is None:
        cluster_tol = DEFAULT_CLUSTER_TOL * alpha * alpha

    # one evaluation at the floor gives every margin; the unbound levels
    # drop out before any step, so later evaluations ask only for the rest
    lo = solver.kappa_lo()
    solver.levels = min(int(maxk), grid.n)
    bound = 0
    while bound < solver.levels and solver.g(lo, bound + 1) > 0.0:
        bound += 1
    solver.levels = bound
    results = [solver.level(j, tol) for j in range(1, bound + 1)]

    flagged = list(results)
    for i in range(len(results) - 1):
        if abs(results[i].eigenvalue - results[i + 1].eigenvalue) < cluster_tol:
            for k in (i, i + 1):
                flagged[k] = replace(flagged[k], near_degenerate=True)
    return flagged


def solve_threshold(alpha, grid, tol=None):
    """Effective threshold kappa of the straight line on this exact grid.

    On a truncated, discretized line the condition alpha * eta_1 = 1 is met
    slightly off alpha/2; solving it on the same grid as a bent-curve run
    gives the reference that cancels the leading truncation and quadrature
    bias when gaps are formed as kappa*^2 - kappa_thr^2.  The returned
    kappa is within tol/2 of that root to first order in tol.
    """
    straight = geometry.ScaledCurve(geometry.CurveSpec(), 0.0)
    solver = _Solver(straight, alpha, grid)
    tol = _default_tol(solver.alpha, tol)

    kappa, _ = solver.root(1, tol, 0.5 * solver.alpha, 0.02 * solver.alpha,
                           2.0 * solver.alpha)
    return kappa
