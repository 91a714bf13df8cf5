"""Bound states from the spectral condition alpha * eta_j(kappa) = 1.

For coupling alpha > 0 the operator has essential spectrum starting at
-alpha^2/4; a discrete eigenvalue -kappa^2 below it exists exactly when the
kernel operator at spectral parameter kappa has an eigenvalue 1/alpha.  Each
eta_j(kappa) is strictly decreasing in kappa (the kappa-derivative of the
kernel matrix is negative definite: it is built from the function
|z| K1(kappa |z|), whose 2-d Fourier transform is positive), so every level
is the single root of g_j(kappa) = alpha * eta_j(kappa) - 1 over
(alpha/2, kappa_hi].  It is found by safeguarded Newton steps (Ruhe, SIAM J.
Numer. Anal. 10, 1973) from the exact slope g_j' = alpha v^T (dM/dkappa) v
of the unit eigenvector v (Hellmann-Feynman, bs_core.slope_form), starting
at the search floor.  The last correction |g/g'| is returned with each root
as its error bar.

No bound state is an outcome, not an error: when g_1 is already negative just
above threshold the grid resolves nothing below the essential spectrum and
solve_ground returns a NoBoundState value.  The straight line always takes
that path.

Each (kappa, level) pair is assembled and solved at most once per solve,
and its slope is computed only when a Newton step needs it, after the
eigensolve has freed the matrix.
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


def _newton(g, slope, x, lo, hi, tol):
    """Root of the decreasing function g inside [lo, hi] by safeguarded
    Newton steps from x; returns the last evaluated kappa and |g/g'| there,
    once that correction is below tol/2, or the width of the closed bracket
    if that fell below tol/2 first.

    The bracket moves to each evaluated point, onto the side its sign puts
    it; a step that leaves the bracket bisects it instead.  An end never
    evaluated is only assumed to have its side's sign: when the bracket
    closes onto one, g has no sign change inside and NumericalError is
    raised.  The correction is the distance to the root to first order.
    For a convex g, as g_1 is, it bounds that distance from above the root
    and falls short of it by a relative O(correction) from below.
    """
    ends, seen = [lo, hi], [False, False]
    for _ in range(_MAX_STEPS):
        gx = g(x)
        if gx == 0.0:
            return x, 0.0
        side = 0 if gx > 0.0 else 1
        ends[side], seen[side] = x, True
        dg = slope(x)
        correction = -gx / dg if dg < 0.0 else math.inf
        if abs(correction) < 0.5 * tol:
            return x, abs(correction)
        if ends[1] - ends[0] < 0.5 * tol:
            if not all(seen):
                raise NumericalError(
                    f"no sign change between kappa = {lo:.6g} and {hi:.6g}")
            return x, ends[1] - ends[0]
        x += correction
        if not ends[0] < x < ends[1]:
            x = 0.5 * (ends[0] + ends[1])
    raise NumericalError(
        f"Newton iteration on [{lo:.10g}, {hi:.10g}] did not converge "
        f"in {_MAX_STEPS} steps")


class _Solver:
    """Shared state for root finding: one assembly and eigensolve per
    (kappa, level), remembered for the rest of the solve, its slope
    computed only when a Newton step asks for it, and the last eigenvector
    of each block and level as the next Lanczos start vector.

    A geometry.mirror_symmetric curve is solved on the even and odd blocks
    of its matrix (bs_core.assemble with parities).  The ground state is the
    Perron vector of the positive matrix M, which is even, so level 1 needs
    the even block alone; level j is the j-th of the merged top values of
    the two blocks, at most j of them even and j - 1 odd.
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
        self._warm = {}
        self._pairs = {}
        self._slopes = {}

    def eigen(self, kappa, j):
        key = (float(kappa), j)
        if key not in self._pairs:
            if self.mirror:
                parities = (1, -1) if j > 1 else (1,)
                blocks = assemble(self.curve, kappa, self.grid, parities=parities)
            else:
                parities, blocks = (None,), [assemble(self.curve, kappa, self.grid)]
            found = []
            for parity, mat in zip(parities, blocks):
                m = j - 1 if parity == -1 else j
                vals, vecs = top_eigenpairs(mat, m, v0=self._warm.get((parity, m)))
                self._warm[(parity, m)] = vecs[:, 0]
                found += [(val, parity, vecs[:, i]) for i, val in enumerate(vals)]
            val, parity, vec = sorted(found, key=lambda pair: -pair[0])[j - 1]
            if parity is not None:
                vec = unfold(vec, self.grid.n, parity)
            self._pairs[key] = float(val), vec
        return self._pairs[key]

    def g(self, kappa, j):
        val, _ = self.eigen(kappa, j)
        return self.alpha * val - 1.0

    def slope(self, kappa, j):
        """g_j'(kappa) = alpha v^T (dM/dkappa) v from the unit eigenvector
        of eigen(kappa, j) (Hellmann-Feynman), once per (kappa, level)."""
        key = (float(kappa), j)
        if key not in self._slopes:
            _, vec = self.eigen(kappa, j)
            form = slope_form(self.curve, kappa, self.grid, vec[:, None])
            self._slopes[key] = self.alpha * float(form[0, 0])
        return self._slopes[key]

    def kappa_lo(self):
        return self.floor * (1.0 + _KAPPA_LO_SHIFT)

    def root(self, j, tol, start, lo, hi):
        """Level j's kappa and its error bar by _newton from start."""
        return _newton(lambda kappa: self.g(kappa, j),
                       lambda kappa: self.slope(kappa, j), start, lo, hi, tol)

    def level(self, j, tol):
        """Level j's SpectralResult; g_j(kappa_lo()) > 0 must already hold.
        Newton steps start at kappa_lo(), which brackets the root from
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

    results = []
    for j in range(1, int(maxk) + 1):
        if solver.g(solver.kappa_lo(), j) <= 0.0:
            break
        results.append(solver.level(j, tol))

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
