"""Experiment harness: grid sizing, parameter sweeps, fits and reports.

The harness turns the solver stack into repeatable experiments:

  sweep_beta   gap(beta) across a list of scalings, fitted to a power law and
               compared against the predicted quartic coefficient.  The raw
               gap kappa*^2 - alpha^2/4 carries the truncation/quadrature bias
               of the finite grid, so each row also solves the straight line
               on the same grid and forms the corrected gap
               kappa*^2 - kappa_thr^2, which cancels the leading bias.
  sweep_phi    eigenvalues of the wiggled curve across pivot angles phi, with
               per-level linear fits compared against the first-order slope
               prediction.
  convergence  the same solve at (h, L), (h/2, L), (h, 2L), (h/2, 2L) with a
               difference-based error estimate and extrapolation.

Grids are sized automatically from the predicted decay rate: L =
decay_multiplier / delta_est and n = nodes_per_unit * 2L (capped), where
delta_est comes from the quartic prediction or from a coarse pre-solve.
Reports serialize deterministically (stable key order, fixed row order); the
generated_at stamp is the only field that varies between identical runs.
Sweep points can run on a small thread pool; LEAKYWIRE_MAX_WORKERS caps it.
"""

import concurrent.futures
import csv
import datetime
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__, geometry
from .asymptotics import a_coefficient, predicted_gap, wiggle_slope
from .bs_core import Grid
from .spectrum import NoBoundState, NumericalError, solve_all, solve_ground, solve_threshold

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepReport",
    "auto_grid",
    "config_from_json",
    "convergence",
    "fit_power_law",
    "max_workers",
    "sweep_beta",
    "sweep_phi",
]

_ENV_WORKERS = "LEAKYWIRE_MAX_WORKERS"


class ConfigError(ValueError):
    """Bad experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for a sweep or a single experiment.

    beta values must keep every scaled vertex angle inside (-pi, pi); phi
    values are pivot angles in (-pi, pi), zero allowed (it reproduces the
    unperturbed solve).  Explicit n and L override the automatic sizing.
    tol = 0 stands for the root finder's default, 1e-8 alpha.
    """

    curve: geometry.CurveSpec
    alpha: float = 1.0
    beta_list: tuple = (0.6, 0.8, 1.0, 1.2)
    phi_list: tuple = (-0.1, -0.05, 0.0, 0.05, 0.1)
    nodes_per_unit: float = 8.0
    decay_multiplier: float = 8.0
    n_cap: int = 6400
    n: int = 0
    L: float = 0.0
    tol: float = 0.0
    maxk: int = 1
    workers: int = 0

    def __post_init__(self):
        if self.alpha <= 0 or not math.isfinite(self.alpha):
            raise ConfigError("alpha must be positive and finite")
        for phi in self.phi_list:
            if not -math.pi < phi < math.pi:
                raise ConfigError(f"phi {phi} outside (-pi, pi)")
        for beta in self.beta_list:
            if beta == 0.0 or not math.isfinite(beta):
                raise ConfigError(f"beta {beta} must be nonzero and finite")
        if self.nodes_per_unit <= 0 or self.decay_multiplier <= 0:
            raise ConfigError("grid policy values must be positive")
        if self.maxk < 1:
            raise ConfigError(f"maxk must be at least 1, got {self.maxk}")
        if not (self.tol == 0.0 or 0.0 < self.tol < math.inf):
            raise ConfigError(
                f"tol must be 0 (the default) or positive and finite, got {self.tol}")

    def tol_or_none(self):
        return self.tol or None


_CONFIG_KEYS = {
    "curve", "curve_file", "alpha", "beta_list", "phi_list", "nodes_per_unit",
    "decay_multiplier", "n_cap", "n", "L", "tol", "maxk", "workers",
}


def config_from_json(text, base_dir="."):
    """Strict config parser; unknown keys are rejected.

    The curve comes either inline under "curve" (curve JSON schema) or from
    a path under "curve_file", resolved against base_dir.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config top level must be an object")
    extra = set(data) - _CONFIG_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")

    if ("curve" in data) == ("curve_file" in data):
        raise ConfigError("config needs exactly one of 'curve' or 'curve_file'")
    if "curve" in data:
        curve = geometry.curve_from_json(data["curve"])
    else:
        path = os.path.join(base_dir, data["curve_file"])
        with open(path) as fh:
            curve = geometry.curve_from_json(fh.read())

    kwargs = {}
    for key in ("alpha", "nodes_per_unit", "decay_multiplier", "L", "tol"):
        if key in data:
            kwargs[key] = float(data[key])
    for key in ("n_cap", "n", "maxk", "workers"):
        if key in data:
            kwargs[key] = int(data[key])
    for key in ("beta_list", "phi_list"):
        if key in data:
            if not isinstance(data[key], list):
                raise ConfigError(f"{key} must be a list of numbers")
            kwargs[key] = tuple(float(v) for v in data[key])
    return ExperimentConfig(curve=curve, **kwargs)


def max_workers(config=None, njobs=1):
    """Thread count for sweep points: config, env cap, then a small default."""
    env = os.environ.get(_ENV_WORKERS)
    try:
        cap = int(env) if env else 0
    except ValueError:
        raise ConfigError(f"{_ENV_WORKERS} must be an integer, got {env!r}") from None
    want = config.workers if config and config.workers > 0 else min(2, njobs)
    if cap > 0:
        want = min(want, cap)
    return max(1, min(want, njobs))


def auto_grid(config, delta_est, span=None):
    """Grid from the decay estimate: L = multiplier/delta, n = 2L*density.

    Explicit config.n / config.L win.  L never drops below a few units or
    twice the deformation span; n is capped.  When the cap bites, h grows,
    but an automatic L is pulled back before the spacing passes 1/alpha,
    since an unresolved kernel is worse than a shortened tail.
    """
    alpha = config.alpha
    lo, hi = config.curve.support
    span = (hi - lo) if span is None else span
    auto_L = config.L <= 0
    if auto_L:
        delta = max(float(delta_est), 1e-8)
        L = config.decay_multiplier / delta
        L = max(L, 10.0 / alpha, 2.0 * span + 4.0 / alpha)
        L = min(L, 5e4 / alpha)
    else:
        L = config.L
    if config.n > 0:
        n = config.n
    else:
        n = int(math.ceil(2.0 * L * config.nodes_per_unit))
        n = min(max(n, 64), config.n_cap)
        if auto_L and 2.0 * L / n > 1.0 / alpha:
            # the cap would leave the quadrature unresolved; trade tail
            # room for node spacing no coarser than one unit of 1/alpha
            L = n / (2.0 * alpha)
    return Grid.uniform(L, n)


def presolve_delta(curve_scaled, alpha, config):
    """Coarse threshold-anchored solve to estimate the decay rate.

    Returns sqrt(kappa*^2 - kappa_thr^2) on a cheap grid, or None when the
    anchored margin is nonpositive or the gap is within the root-finding
    tolerance of zero.  Both root solves run at tolerance 1e-5 alpha on
    kappa, so gaps below a few alpha^2 * 1e-5 cannot be told apart from an
    unbound curve here; resolving such states needs an explicit grid and
    tolerance.
    """
    lo, hi = curve_scaled.base.support
    span = hi - lo
    L0 = max(30.0 / alpha, 3.0 * span + 10.0 / alpha)
    n0 = min(1400, max(256, int(2.0 * L0 * 2.0)))
    grid = Grid.uniform(L0, n0)
    tol_pre = 1e-5 * alpha
    thr = solve_threshold(alpha, grid, tol=tol_pre)
    rough = solve_ground(curve_scaled, alpha, grid, tol=tol_pre,
                         kappa_floor=thr)
    if isinstance(rough, NoBoundState):
        return None
    gap = rough.kappa**2 - thr**2
    if gap <= 4.0 * alpha * tol_pre:
        return None
    return math.sqrt(gap)


def fit_power_law(x, y):
    """Least-squares fit y = prefactor * x^exponent on log-log coordinates.

    Nonpositive or non-finite points are excluded and counted; needs at
    least two usable points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    good = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    excluded = int(np.sum(~good))
    if int(np.sum(good)) < 2:
        raise NumericalError("power-law fit needs at least two positive points")
    lx = np.log(x[good])
    ly = np.log(y[good])
    A = np.column_stack([lx, np.ones_like(lx)])
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ sol
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "exponent": float(sol[0]),
        "prefactor": float(math.exp(sol[1])),
        "r_squared": r2,
        "n_points": int(np.sum(good)),
        "excluded": excluded,
    }


@dataclass(frozen=True)
class SweepReport:
    """Deterministic experiment report.

    rows are plain dicts in run order; fit and extras hold derived numbers.
    Identical configurations reproduce identical JSON apart from the
    generated_at stamp.
    """

    kind: str
    alpha: float
    curve: dict
    rows: tuple
    fit: dict | None
    extras: dict = field(default_factory=dict)
    generated_at: str = ""
    version: str = __version__

    def to_dict(self):
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "curve": self.curve,
            "rows": list(self.rows),
            "fit": self.fit,
            "extras": self.extras,
            "generated_at": self.generated_at,
            "version": self.version,
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path):
        cols = sorted({k for row in self.rows for k in row})
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def write_dat(self, path):
        """gnuplot-friendly: commented header, whitespace-separated columns."""
        cols = sorted({k for row in self.rows for k in row})
        with open(path, "w") as fh:
            fh.write("# " + " ".join(cols) + "\n")
            for row in self.rows:
                vals = [repr(row.get(c, float("nan"))) for c in cols]
                fh.write(" ".join(v.replace(" ", "") for v in vals) + "\n")


def _stamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _solve_beta_point(config, coef, beta, threshold_cache):
    alpha = config.alpha
    scaled = geometry.ScaledCurve(config.curve, beta)
    gap_pred = predicted_gap(coef, beta)
    delta_est = math.sqrt(gap_pred) if gap_pred > 0 else None
    if delta_est is None:
        delta_est = presolve_delta(scaled, alpha, config)
    if delta_est is None:
        return {"beta": beta, "outcome": "no_bound_state"}
    grid = auto_grid(config, delta_est)

    key = (grid.L, grid.n)
    if key not in threshold_cache:
        threshold_cache[key] = solve_threshold(alpha, grid, config.tol_or_none())
    kappa_thr = threshold_cache[key]

    res = solve_ground(scaled, alpha, grid, config.tol_or_none(),
                       kappa_floor=kappa_thr)
    if isinstance(res, NoBoundState):
        return {"beta": beta, "outcome": "no_bound_state",
                "L": grid.L, "n": grid.n, "margin": res.margin}
    gap_raw = res.kappa**2 - 0.25 * alpha * alpha
    gap_corr = res.kappa**2 - kappa_thr**2
    return {
        "beta": beta,
        "outcome": "bound_state",
        "kappa": res.kappa,
        "lambda": res.eigenvalue,
        "gap_raw": gap_raw,
        "gap_corrected": gap_corr,
        "gap_predicted": gap_pred,
        "kappa_threshold": kappa_thr,
        "residual": res.residual,
        "kappa_error": res.kappa_error,
        "L": grid.L,
        "n": grid.n,
    }


def sweep_beta(config):
    """Gap versus beta with bias-corrected gaps and a power-law fit."""
    coef = a_coefficient(config.curve, config.alpha)
    threshold_cache = {}

    # thresholds are cached per grid; racing on the cache is harmless: both
    # threads would store the same deterministic value, one solve is just
    # wasted.  map keeps the rows in input order.
    workers = max_workers(config, len(config.beta_list))
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(
            lambda beta: _solve_beta_point(config, coef, beta, threshold_cache),
            config.beta_list))

    fitted = [r for r in rows if r.get("outcome") == "bound_state"]
    fit = None
    if len(fitted) >= 2:
        fit = fit_power_law([r["beta"] for r in fitted],
                            [r["gap_corrected"] for r in fitted])
        fit["prefactor_ratio"] = (fit["prefactor"] / coef.gap_coefficient
                                  if coef.gap_coefficient > 0 else float("nan"))
    extras = {
        "coefficient_integral": coef.integral,
        "gap_coefficient": coef.gap_coefficient,
        "coefficient_error": coef.error_estimate,
        "curve_digest": geometry.curve_digest(config.curve),
    }
    return SweepReport(kind="sweep_beta", alpha=config.alpha,
                       curve=geometry.curve_to_dict(config.curve),
                       rows=tuple(rows), fit=fit, extras=extras,
                       generated_at=_stamp())


def sweep_phi(config):
    """Eigenvalues of the wiggled curve versus pivot angle phi.

    The base curve is moved to the wiggle frame, solved once per level, and
    each nonzero phi gets its own solve on the same grid (phi = 0 reuses the
    base levels); per-level linear fits are compared against the first-order
    slope prediction.
    """
    alpha = config.alpha
    base = geometry.to_wiggle_frame(config.curve)
    scaled = geometry.ScaledCurve(base, 1.0)

    delta_est = presolve_delta(scaled, alpha, config)
    if delta_est is None:
        raise NumericalError("unperturbed curve has no resolved bound state")
    grid = auto_grid(config, delta_est)
    thr = solve_threshold(alpha, grid, config.tol_or_none())

    levels = solve_all(scaled, alpha, grid, maxk=config.maxk,
                       tol=config.tol_or_none(), kappa_floor=thr)
    if not levels:
        raise NumericalError("no levels resolved on the final grid")

    # group near-degenerate neighbours into clusters for the slope prediction
    clusters = [[levels[0]]]
    for prev, cur in zip(levels, levels[1:]):
        if prev.near_degenerate and cur.near_degenerate:
            clusters[-1].append(cur)
        else:
            clusters.append([cur])
    predicted = []
    for cl in clusters:
        predicted.extend(float(v) for v in wiggle_slope(base, alpha, cl, grid))

    rows = []
    for phi in config.phi_list:
        # with_wiggle(base, 0.0) is base, already solved as `levels`
        res = levels
        if phi != 0.0:
            wig = geometry.with_wiggle(base, phi)
            res = solve_all(geometry.ScaledCurve(wig, 1.0), alpha, grid,
                            maxk=len(levels), tol=config.tol_or_none(),
                            kappa_floor=thr)
        for r in res:
            rows.append({"phi": phi, "level": r.level, "lambda": r.eigenvalue,
                         "kappa": r.kappa, "residual": r.residual,
                         "kappa_error": r.kappa_error})

    slopes = []
    for k, lv in enumerate(levels, start=1):
        pts = [(row["phi"], row["lambda"]) for row in rows if row["level"] == k]
        entry = {"level": k, "lambda0": lv.eigenvalue,
                 "slope_predicted": predicted[k - 1] if k - 1 < len(predicted) else None}
        if len(pts) >= 2:
            px = np.array([p[0] for p in pts])
            py = np.array([p[1] for p in pts])
            b, a = np.polyfit(px, py, 1)
            entry["slope_fitted"] = float(b)
            if entry["slope_predicted"]:
                entry["slope_ratio"] = float(b) / entry["slope_predicted"]
        slopes.append(entry)

    extras = {
        "grid": {"L": grid.L, "n": grid.n},
        "levels": [lv.eigenvalue for lv in levels],
        "slopes": slopes,
        "curve_digest": geometry.curve_digest(base),
    }
    return SweepReport(kind="sweep_phi", alpha=alpha,
                       curve=geometry.curve_to_dict(base),
                       rows=tuple(rows), fit=None, extras=extras,
                       generated_at=_stamp())


def convergence(config, beta):
    """Solve at (h, L), (h/2, L), (h, 2L), (h/2, 2L) and extrapolate.

    The base grid comes from the usual sizing (or explicit n/L).  Differences
    against the refined grids give heuristic error bars; the reported
    extrapolation adds the h-difference once more to the finest value.
    """
    alpha = config.alpha
    scaled = geometry.ScaledCurve(config.curve, beta)
    coef_delta = presolve_delta(scaled, alpha, config)
    if coef_delta is None:
        raise NumericalError("no bound state to track in the convergence study")
    base = auto_grid(config, coef_delta)
    L, n = base.L, base.n

    combos = [("h,L", L, n), ("h/2,L", L, 2 * n),
              ("h,2L", 2.0 * L, 2 * n), ("h/2,2L", 2.0 * L, 4 * n)]
    rows = []
    values = {}
    gaps = {}
    for label, Lc, nc in combos:
        g = Grid.uniform(Lc, nc)
        thr = solve_threshold(alpha, g, config.tol_or_none())
        res = solve_ground(scaled, alpha, g, config.tol_or_none(),
                           kappa_floor=thr)
        if isinstance(res, NoBoundState):
            raise NumericalError(f"bound state lost on grid {label}")
        values[label] = res.eigenvalue
        gaps[label] = res.kappa**2 - thr**2
        rows.append({"grid": label, "L": Lc, "n": nc,
                     "lambda": res.eigenvalue, "kappa": res.kappa,
                     "kappa_threshold": thr, "gap_corrected": gaps[label],
                     "residual": res.residual,
                     "kappa_error": res.kappa_error})

    dh = values["h/2,2L"] - values["h,2L"]
    dL = values["h/2,2L"] - values["h/2,L"]
    extras = {
        "beta": beta,
        "extrapolated": values["h/2,2L"] + dh,
        "h_difference": dh,
        "L_difference": dL,
        "error_estimate": abs(dh) + abs(dL),
        "gap_h_difference": gaps["h/2,2L"] - gaps["h,2L"],
        "gap_L_difference": gaps["h/2,2L"] - gaps["h/2,L"],
        "gap_extrapolated": gaps["h/2,2L"] + (gaps["h/2,2L"] - gaps["h,2L"]),
    }
    return SweepReport(kind="convergence", alpha=alpha,
                       curve=geometry.curve_to_dict(config.curve),
                       rows=tuple(rows), fit=None, extras=extras,
                       generated_at=_stamp())
