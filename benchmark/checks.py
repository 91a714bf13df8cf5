"""Checks of every round's output: the independent reference and the
properties the paper fixes.  Each failure names the operation it fails."""

import math

import reference
from workloads import ALPHA

# the package default bisection tolerance on kappa (1e-8 alpha); the
# reference brackets every returned root with this window
ROOT_TOL = 1e-8 * ALPHA
GAP_COEFFICIENT = 1.0 / (36.0 * math.pi ** 2)
CORNER_INTEGRAL = 1.0 / (6.0 * math.pi)
# quartic-law band for beta-sweep at its resolution (README.md, "Checks")
EXPONENT_BAND = (3.5, 4.5)
PREFACTOR_BAND = (0.75, 1.25)


def _scaled(vertices, beta):
    return [(s, beta * a) for s, a in vertices]


def check(name, inputs, out):
    """Failed checks as (operation index, message); [] when all hold."""
    if name == "corner-solve":
        return _check_corner(inputs, out)
    if name == "beta-sweep":
        return _check_beta(inputs, out)
    return _check_wiggle(inputs, out)


def _check_corner(inputs, out):
    fails = []
    grid = out["grid"]
    thr = out["kappa_threshold"]
    if not reference.brackets_root([], ALPHA, thr, ROOT_TOL, grid["L"], grid["n"]):
        fails.append((0, f"threshold {thr!r} not a root of the reference"))
    if abs(thr - 0.5 * ALPHA) > 0.01:
        fails.append((0, f"threshold {thr!r} farther than 0.01 from alpha/2"))
    levels = out.get("levels", [])
    if len(levels) != 1:
        return fails + [(1, f"expected one bound level, got {len(levels)}")]
    lv = levels[0]
    verts = _scaled(inputs["vertices"], inputs["beta"])
    if not reference.brackets_root(verts, ALPHA, lv["kappa"], ROOT_TOL,
                                   grid["L"], grid["n"]):
        fails.append((1, f"ground kappa {lv['kappa']!r} not a root of the reference"))
    if not lv["kappa"] > thr:
        fails.append((1, "bent wire does not bind below the threshold"))
    angle = inputs["beta"] * inputs["vertices"][0][1]
    predicted = GAP_COEFFICIENT * ALPHA ** 2 * angle ** 4
    if abs(lv["gap_corrected"] / predicted - 1.0) > 0.25:
        fails.append((1, f"gap {lv['gap_corrected']:.4e} not within 25% of "
                         f"the quartic prediction {predicted:.4e}"))
    return fails


def _check_beta(inputs, out):
    rows = out["rows"]
    nrows = len(inputs["betas"])
    every = range(nrows)
    fails = []
    if len(rows) != nrows:
        return [(i, f"expected {nrows} rows, got {len(rows)}") for i in every]
    for i, row in enumerate(rows):
        if row.get("outcome") != "bound_state":
            fails.append((i, f"beta {row['beta']!r}: {row.get('outcome')}"))
            continue
        L, n = row["L"], row["n"]
        if not reference.brackets_root([], ALPHA, row["kappa_threshold"], ROOT_TOL, L, n):
            fails.append((i, f"beta {row['beta']!r}: threshold not a root of the reference"))
        verts = _scaled(inputs["vertices"], row["beta"])
        if not reference.brackets_root(verts, ALPHA, row["kappa"], ROOT_TOL, L, n):
            fails.append((i, f"beta {row['beta']!r}: kappa not a root of the reference"))
    if fails:
        return fails
    gaps = [r["gap_corrected"] for r in rows]
    if not all(b > a for a, b in zip(gaps, gaps[1:])):
        fails.append(("all", f"corrected gaps not increasing with beta: {gaps}"))
    integral = out["extras"]["coefficient_integral"]
    if abs(integral / CORNER_INTEGRAL - 1.0) > 1e-4:
        fails.append(("all", f"coefficient integral {integral!r} not within "
                             f"1e-4 of 1/(6 pi)"))
    fit = out["fit"] or {}
    exponent = fit.get("exponent", float("nan"))
    ratio = fit.get("prefactor_ratio", float("nan"))
    if not EXPONENT_BAND[0] <= exponent <= EXPONENT_BAND[1]:
        fails.append(("all", f"exponent {exponent:.3f} outside {EXPONENT_BAND}"))
    if not PREFACTOR_BAND[0] <= ratio <= PREFACTOR_BAND[1]:
        fails.append(("all", f"prefactor ratio {ratio:.3f} outside {PREFACTOR_BAND}"))
    return [(i, msg) for op, msg in fails for i in (every if op == "all" else [op])]


def _wiggle_vertices(inputs, phi):
    """The sweep's curve: shifted so the right corner sits at s = 0, where
    the pivot corner phi composes with it."""
    (s1, a1), (s2, a2) = inputs["vertices"]
    return [(s1 - s2, a1), (0.0, a2 + phi)]


def _check_wiggle(inputs, out):
    ops = [(phi, level) for phi in inputs["phis"] for level in (1, 2)]
    rows = out["rows"]
    extras = out["extras"]
    levels = extras["levels"]
    if len(levels) != 2:
        return [(i, f"expected two resolved levels, got {len(levels)}")
                for i in range(len(ops))]
    index = {(r["phi"], r["level"]): r for r in rows}
    L, n = extras["grid"]["L"], extras["grid"]["n"]
    fails = []
    for i, (phi, level) in enumerate(ops):
        row = index.get((phi, level))
        if row is None:
            fails.append((i, f"phi {phi!r} level {level}: missing row"))
            continue
        verts = _wiggle_vertices(inputs, phi)
        if not reference.brackets_root(verts, ALPHA, row["kappa"], ROOT_TOL, L, n, level):
            fails.append((i, f"phi {phi!r} level {level}: kappa not a root of the reference"))
        if phi == 0.0:
            lam0 = levels[level - 1]
            if abs(row["lambda"] - lam0) > 2.0 * row["kappa"] * ROOT_TOL:
                fails.append((i, f"phi 0 level {level}: lambda {row['lambda']!r} "
                                 f"differs from the unperturbed {lam0!r}"))
    for entry in extras["slopes"]:
        fitted, predicted = entry.get("slope_fitted"), entry.get("slope_predicted")
        if not fitted or not predicted or abs(fitted / predicted - 1.0) > 0.10:
            fails.extend((i, f"level {entry['level']}: fitted slope {fitted!r} not "
                             f"within 10% of predicted {predicted!r}")
                         for i, (_, level) in enumerate(ops) if level == entry["level"])
    return fails
