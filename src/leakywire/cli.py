"""Command line interface.

Subcommands:

  validate     check a curve file (format, asymptotic straightness, chord floor)
  solve        bound states of one scaled curve on one grid
  coef         quartic gap coefficient of the deformation
  sweep-beta   gap versus scaling, power-law fit, JSON/CSV/gnuplot reports
  sweep-phi    eigenvalues versus pivot wiggle angle, slope comparison
  converge     grid refinement study for one solve

Exit codes: 0 success, 2 invalid input (curve format, failed validation,
bad config), 3 numerical non-convergence.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import __version__, geometry
from .asymptotics import a_coefficient, predicted_eigenvalue, predicted_gap
from .bs_core import EigensolverError
from .harness import (
    ConfigError,
    ExperimentConfig,
    anchored_solve,
    config_from_json,
    convergence,
    sweep_beta,
    sweep_phi,
)
from .spectrum import NumericalError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _load_curve(path):
    with open(path) as fh:
        return geometry.curve_from_json(fh.read())


def _float_list(text):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty number list")
    return values


def _build_config(args, need_curve=True):
    """Merge --config (if given) with command line flags; flags win."""
    if getattr(args, "config", None):
        # a curve_file inside the config resolves against the config's folder
        with open(args.config) as fh:
            cfg = config_from_json(fh.read(),
                                   base_dir=os.path.dirname(os.path.abspath(args.config)))
    else:
        if need_curve and not args.curve:
            raise ConfigError("a curve file is required (--curve or --config)")
        cfg = ExperimentConfig(curve=_load_curve(args.curve))
    updates = {}
    if args.curve and getattr(args, "config", None):
        updates["curve"] = _load_curve(args.curve)
    for name in ("alpha", "beta_list", "phi_list", "nodes_per_unit",
                 "decay_multiplier", "n_cap", "n", "L", "tol", "maxk", "workers"):
        val = getattr(args, name, None)
        if val is not None:
            updates[name] = val
    return dataclasses.replace(cfg, **updates)


def _emit(obj, args):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _write_report(report, args):
    out = getattr(args, "out", None)
    if out:
        report.write_json(out + ".json")
        report.write_csv(out + ".csv")
        report.write_dat(out + ".dat")
        print(f"wrote {out}.json, {out}.csv, {out}.dat")
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))


def cmd_validate(args):
    curve = _load_curve(args.curve)
    try:
        report = geometry.validate(curve, beta=args.beta, floor=args.floor)
    except ValueError as exc:
        _emit({"ok": False, "messages": [str(exc)]}, args)
        return EXIT_INVALID
    payload = {
        "ok": report.ok,
        "chord_floor": report.floor,
        "chord_constant": report.chord_constant,
        "worst_pair": list(report.worst_pair),
        "tail_ratio": report.tail_ratio,
        "n_samples": report.n_samples,
        "messages": list(report.messages),
    }
    _emit(payload, args)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_solve(args):
    cfg = _build_config(args)
    rec = anchored_solve(cfg, geometry.ScaledCurve(cfg.curve, args.beta), cfg.maxk)
    payload = {"outcome": rec.outcome, "alpha": cfg.alpha, "beta": args.beta}
    if rec.outcome == "no_bound_state":
        payload["no_bound_state"] = True
    if rec.grid is not None:
        payload.update(kappa_threshold=rec.kappa_threshold,
                       grid={"L": rec.grid.L, "n": rec.grid.n})
    if rec.levels:
        payload["levels"] = [dict(r.to_dict(), gap_corrected=gap)
                             for r, gap in zip(rec.levels, rec.gaps)]
    _emit(payload, args)
    return EXIT_OK


def cmd_coef(args):
    curve = _load_curve(args.curve)
    coef = a_coefficient(curve, args.alpha, rel_tol=args.rel_tol)
    payload = {
        "alpha": args.alpha,
        "integral": coef.integral,
        "gap_coefficient": coef.gap_coefficient,
        "error_estimate": coef.error_estimate,
        "tail_cut": coef.tail_cut,
        "panels": coef.panels,
    }
    if args.beta is not None:
        payload["beta"] = args.beta
        payload["predicted_gap"] = predicted_gap(coef, args.beta)
        payload["predicted_eigenvalue"] = predicted_eigenvalue(coef, args.beta)
    _emit(payload, args)
    return EXIT_OK


def cmd_sweep_beta(args):
    cfg = _build_config(args)
    report = sweep_beta(cfg)
    _write_report(report, args)
    return EXIT_OK


def cmd_sweep_phi(args):
    cfg = _build_config(args)
    report = sweep_phi(cfg)
    _write_report(report, args)
    return EXIT_OK


def cmd_converge(args):
    cfg = _build_config(args)
    report = convergence(cfg, args.beta)
    _write_report(report, args)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="leakywire",
        description="Bound states of an attractive delta interaction on a "
                    "planar curve, via the associated integral operator.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_curve(sp, required=True):
        sp.add_argument("--curve", required=required,
                        help="curve description JSON file")

    def add_common(sp):
        sp.add_argument("--alpha", type=float, default=None,
                        help="interaction strength (default 1)")
        sp.add_argument("--tol", type=float, default=None,
                        help="root-finding tolerance on kappa")
        sp.add_argument("--n", type=int, default=None,
                        help="grid points (omit or <= 0 for automatic sizing)")
        sp.add_argument("--L", type=float, default=None,
                        help="grid half-length (omit or <= 0 for automatic sizing)")

    sp = sub.add_parser("validate", help="check a curve file")
    add_curve(sp)
    sp.add_argument("--beta", type=float, default=1.0,
                    help="scaling at which to validate (default 1)")
    sp.add_argument("--floor", type=float, default=1e-3,
                    help="minimum allowed chord/arc ratio")
    sp.add_argument("--json", help="also write the result to this file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("solve", help="bound states of one scaled curve")
    add_curve(sp)
    add_common(sp)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--maxk", type=int, default=1,
                    help="number of levels to report")
    sp.add_argument("--json", help="also write the result to this file")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("coef", help="quartic gap coefficient")
    add_curve(sp)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=None,
                    help="also report the predicted gap at this scaling")
    sp.add_argument("--rel-tol", type=float, default=1e-6, dest="rel_tol")
    sp.add_argument("--json", help="also write the result to this file")
    sp.set_defaults(func=cmd_coef)

    def add_sweep_common(sp):
        add_curve(sp, required=False)
        sp.add_argument("--config", help="experiment config JSON file")
        add_common(sp)
        sp.add_argument("--nodes-per-unit", type=float, default=None,
                        dest="nodes_per_unit")
        sp.add_argument("--decay-multiplier", type=float, default=None,
                        dest="decay_multiplier")
        sp.add_argument("--n-cap", type=int, default=None, dest="n_cap")
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--out", help="report path prefix (.json/.csv/.dat)")

    sp = sub.add_parser("sweep-beta", help="gap versus scaling")
    add_sweep_common(sp)
    sp.add_argument("--betas", type=_float_list, default=None, dest="beta_list",
                    help="comma separated scalings, e.g. 0.6,0.8,1.0")
    sp.set_defaults(func=cmd_sweep_beta)

    sp = sub.add_parser("sweep-phi", help="eigenvalues versus wiggle angle")
    add_sweep_common(sp)
    sp.add_argument("--phis", type=_float_list, default=None, dest="phi_list",
                    help="comma separated pivot angles")
    sp.add_argument("--maxk", type=int, default=None,
                    help="number of levels to track")
    sp.set_defaults(func=cmd_sweep_phi)

    sp = sub.add_parser("converge", help="grid refinement study")
    add_sweep_common(sp)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.set_defaults(func=cmd_converge)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader closed stdout; every --json/--out file is written before
        # the print.  Point stdout at devnull so the flush at shutdown does
        # not fail again (the recipe in the Python docs of signal)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    # CurveFormatError and ConfigError are ValueErrors too; a plain one comes
    # from numeric input out of range, such as a grid with n < 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NumericalError, EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
