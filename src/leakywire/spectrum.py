"""Bound states from the spectral condition alpha * eta_j(kappa) = 1.

For coupling alpha > 0 the operator has essential spectrum starting at
-alpha^2/4; a discrete eigenvalue -kappa^2 below it exists exactly when the
kernel operator at spectral parameter kappa has an eigenvalue 1/alpha.  Each
eta_j(kappa) is strictly decreasing in kappa (the kappa-derivative of the
kernel matrix is negative definite: it is built from the function
|z| K1(kappa |z|), whose 2-d Fourier transform is positive), so every level
is the single root of g_j(kappa) = alpha * eta_j(kappa) - 1 over
(alpha/2, kappa_hi], found by Brent's method (scipy.optimize.brentq) once a
sign change is bracketed.

No bound state is an outcome, not an error: when g_1 is already negative just
above threshold the grid resolves nothing below the essential spectrum and
solve_ground returns a NoBoundState value.  The straight line always takes
that path.

Each (kappa, level) pair is assembled and solved at most once per solve.
Every step rebuilds the whole matrix; bs_core.assemble keeps that cheap by
evaluating K0 only on the entries the curve's pieces do not repeat.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from . import geometry
from .bs_core import Grid, assemble, top_eigenpairs

__all__ = [
    "NoBoundState",
    "NumericalError",
    "SpectralResult",
    "eta",
    "solve_all",
    "solve_ground",
    "solve_threshold",
]

_KAPPA_LO_SHIFT = 1e-12
_HI_CAP_FACTOR = 64.0
DEFAULT_CLUSTER_TOL = 1e-8


class NumericalError(RuntimeError):
    """Root bracketing or refinement failed to converge."""


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
    h sum f_i^2.  residual is |alpha * eta - 1| at the returned kappa.
    near_degenerate marks membership in a cluster of levels closer than the
    clustering tolerance.
    """

    kappa: float
    eigenvalue: float
    delta: float
    residual: float
    level: int
    grid: Grid
    curve_digest: str
    eigenfunction: np.ndarray = field(repr=False)
    near_degenerate: bool = False

    def to_dict(self):
        """JSON form: {kappa, lambda, delta, residual, grid: {L, n}, curve_hash}."""
        return {
            "kappa": self.kappa,
            "lambda": self.eigenvalue,
            "delta": self.delta,
            "residual": self.residual,
            "grid": {"L": self.grid.L, "n": self.grid.n},
            "curve_hash": self.curve_digest,
        }


def _find_root(g, lo, hi, tol):
    """Root of g on a sign-changing bracket, g(lo) > 0 > g(hi), by Brent's
    method; the returned point was evaluated and lies within tol/2 of the
    root."""
    kappa, info = scipy.optimize.brentq(g, lo, hi, xtol=0.5 * tol,
                                        full_output=True, disp=False)
    if not info.converged:
        raise NumericalError(
            f"root finding on [{lo:.10g}, {hi:.10g}] did not converge: {info.flag}")
    return kappa


def _bracket_end(g, x, step, growth, limit):
    """First of the probes x, x + step, x + step + growth * step, ... at
    which g has the sign of a bracket end on that side: g < 0 stepping up,
    g > 0 stepping down (g decreases in kappa).  A probe past limit raises
    NumericalError instead of being evaluated."""
    start = x
    while g(x) * step >= 0.0:
        x += step
        step *= growth
        if (x - limit) * step > 0.0:
            raise NumericalError(
                f"no sign change between kappa = {start:.6g} and {limit:.6g}")
    return x


class _Solver:
    """Shared state for root finding: one assembly and eigensolve per
    (kappa, level), remembered for the rest of the solve, and the last
    eigenvector of each level as the next ARPACK start vector."""

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
        self._warm = {}
        self._pairs = {}

    def eigen(self, kappa, j):
        key = (float(kappa), j)
        if key not in self._pairs:
            mat = assemble(self.curve, kappa, self.grid)
            vals, vecs = top_eigenpairs(mat, j, v0=self._warm.get(j))
            self._warm[j] = vecs[:, 0]
            self._pairs[key] = float(vals[j - 1]), vecs[:, j - 1]
        return self._pairs[key]

    def g(self, kappa, j):
        val, _ = self.eigen(kappa, j)
        return self.alpha * val - 1.0

    def kappa_lo(self):
        return self.floor * (1.0 + _KAPPA_LO_SHIFT)

    def root(self, j, tol):
        """Level j's kappa; g_j(kappa_lo()) > 0 must already hold.  The
        upper bracket end doubles its offset above the search floor from
        a bending-based first guess."""
        def g(kappa):
            return self.g(kappa, j)

        phi = abs(geometry.total_bending(self.curve))
        offset = max(phi * phi, 1e-2) * self.alpha
        hi = _bracket_end(g, self.floor + offset, offset, 2.0,
                          self.floor + _HI_CAP_FACTOR * self.alpha)
        return _find_root(g, self.kappa_lo(), hi, tol)

    def result(self, kappa, j):
        val, vec = self.eigen(kappa, j)
        residual = abs(self.alpha * val - 1.0)
        f = vec / math.sqrt(self.grid.h)
        delta_sq = kappa * kappa - 0.25 * self.alpha * self.alpha
        return SpectralResult(
            kappa=float(kappa),
            eigenvalue=-(kappa * kappa),
            delta=math.sqrt(max(delta_sq, 0.0)),
            residual=float(residual),
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


def eta(curve, kappa, grid, j=1):
    """j-th largest eigenvalue of the kernel matrix at spectral parameter kappa."""
    mat = assemble(curve, kappa, grid)
    vals, _ = top_eigenpairs(mat, j)
    return float(vals[j - 1])


def solve_ground(curve, alpha, grid, tol=None, kappa_floor=None):
    """Ground state below the essential spectrum, or NoBoundState.

    Root of g(kappa) = alpha * eta_1(kappa) - 1 above the search floor;
    the returned kappa is within tol/2 of the grid's root (tol defaults to
    1e-8 alpha).

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
    kappa = solver.root(1, tol)
    return solver.result(kappa, 1)


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
        kappa = solver.root(j, tol)
        results.append(solver.result(kappa, j))

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
    kappa is within tol/2 of that root.
    """
    straight = geometry.ScaledCurve(geometry.CurveSpec(), 0.0)
    solver = _Solver(straight, alpha, grid)
    tol = _default_tol(solver.alpha, tol)

    def g(kappa):
        return solver.g(kappa, 1)

    # lo probes 0.35 alpha * 0.7^k, hi probes 0.5 alpha + 0.01 alpha (2^k - 1)
    lo = _bracket_end(g, 0.35 * alpha, -0.105 * alpha, 0.7, 0.02 * alpha)
    hi = _bracket_end(g, 0.5 * alpha, 0.01 * alpha, 2.0, 2.0 * alpha)
    return _find_root(g, lo, hi, tol)
