"""Per-layer metrics from the spans of one traced round.

Times are summed over spans, so on a sweep that runs two worker threads a
layer's seconds can exceed the round's wall time.  Self time is a span's
duration minus the spans it called on the same thread.  Counts are taken at
the same call boundaries and repeat exactly between runs of one seed.
"""

import statistics
import tracemalloc

import numpy as np

_ROOT_SOLVES = ("spectrum.solve_threshold", "spectrum.solve_ground",
                "spectrum.solve_all")
_HARNESS_RUNS = ("harness.sweep_beta", "harness.sweep_phi",
                 "harness.convergence")


class LargestAssembly:
    """Keeps the arguments of the largest ``bs_core.assemble`` call seen, so
    its memory peak can be measured alone once the round is over."""

    def __init__(self):
        self.n = 0
        self.call = None

    def hook(self, args, kwargs, out):
        n = (args[2] if len(args) > 2 else kwargs["grid"]).n
        if n > self.n:
            self.n, self.call = n, (args, kwargs)
        return n

    def peak_mb(self, assemble):
        """tracemalloc peak of replaying that call with tracing off, in MB
        (numpy reports its buffers to tracemalloc)."""
        if self.call is None:
            return 0.0
        args, kwargs = self.call
        tracemalloc.start()
        try:
            assemble(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20


def hooks(largest):
    """Span hooks: the small facts each metric needs, taken at call time."""
    return {
        "specfun.bessel_k0": lambda a, k, out: int(np.size(a[0])),
        "specfun.bessel_k1": lambda a, k, out: int(np.size(a[0])),
        "bs_core.assemble": largest.hook,
        "spectrum.solve_threshold": lambda a, k, out: 1,
        "spectrum.solve_ground": lambda a, k, out: int(bool(out)),
        "spectrum.solve_all": lambda a, k, out: len(out),
        "asymptotics.a_coefficient": lambda a, k, out: out.panels,
    }


def metrics(spans, assemble_peak_mb):
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def info(*names):
        return sum(s.info for s in named(*names))

    def under(span, names):
        return any(a.name in names for a in span.ancestors())

    def under_layer(span, layer):
        return any(a.layer == layer for a in span.ancestors())

    assemblies = named("bs_core.assemble")
    eig_paths = {name: sum(1 for s in named(name)
                           if s.parent is not None
                           and s.parent.name == "bs_core.top_eigenpairs")
                 for name in ("numpy.linalg.eigh", "scipy.sparse.linalg.eigsh")}
    root_evals = sum(1 for s in assemblies if under(s, _ROOT_SOLVES))
    roots = info(*_ROOT_SOLVES)
    harness_wall = sum(s.duration for s in named(*_HARNESS_RUNS)
                       if not under(s, _HARNESS_RUNS))
    spectrum_busy = sum(s.duration for s in named(*_ROOT_SOLVES)
                        if under(s, _HARNESS_RUNS) and not under(s, _ROOT_SOLVES))

    return {
        "specfun.k0_s": (total("specfun.bessel_k0"), "s"),
        "specfun.k0_evals": (info("specfun.bessel_k0"), "count"),
        "specfun.k1_s": (total("specfun.bessel_k1"), "s"),
        "specfun.k1_evals": (info("specfun.bessel_k1"), "count"),
        "geometry.point_s": (total("geometry.point"), "s"),
        "geometry.validate_s": (total("geometry.validate"), "s"),
        "bs_core.distances_s": (total("bs_core.pairwise_distances"), "s"),
        "bs_core.assemble_s": (sum(s.self_s for s in assemblies), "s"),
        "bs_core.assemble_calls": (len(assemblies), "count"),
        # computed as n^2 * 8 bytes per call, not measured traffic
        "bs_core.assemble_bytes": (sum(8 * s.info ** 2 for s in assemblies), "B"),
        "bs_core.assemble_peak_mb": (assemble_peak_mb, "MB"),
        "bs_core.eig_s": (total("bs_core.top_eigenpairs"), "s"),
        "bs_core.eig_dense_calls": (eig_paths["numpy.linalg.eigh"], "count"),
        "bs_core.eig_arpack_calls": (eig_paths["scipy.sparse.linalg.eigsh"], "count"),
        "spectrum.threshold_s": (total("spectrum.solve_threshold"), "s"),
        "spectrum.ground_s": (sum(s.self_s for s in named(
            "spectrum.solve_ground", "spectrum.solve_all")), "s"),
        "spectrum.root_evals": (root_evals, "count"),
        "spectrum.roots": (roots, "count"),
        "spectrum.evals_per_root": (root_evals / roots if roots else 0.0, "ratio"),
        "asymptotics.coef_s": (total("asymptotics.a_coefficient"), "s"),
        "asymptotics.panels": (info("asymptotics.a_coefficient"), "count"),
        "asymptotics.wiggle_slope_s": (total("asymptotics.wiggle_slope"), "s"),
        "harness.presolve_s": (total("harness.presolve_delta"), "s"),
        "harness.threshold_solves": (sum(
            1 for s in named("spectrum.solve_threshold") if under_layer(s, "harness")),
            "count"),
        "harness.concurrency": (spectrum_busy / harness_wall if harness_wall else 0.0,
                                "ratio"),
        "harness.spectrum_busy_s": (spectrum_busy, "s"),
        "harness.wall_s": (harness_wall, "s"),
        "cli.self_s": (sum(s.self_s for s in spans if s.layer == "cli"), "s"),
    }


def round_medians(setup_spans, round_spans, assemble_peak_mb):
    """Median over traced rounds of each metric; the set-up spans are
    counted with every round."""
    per_round = [metrics(setup_spans + spans, assemble_peak_mb) for spans in round_spans]
    return {name: {"value": statistics.median(r[name][0] for r in per_round),
                   "unit": unit}
            for name, (_, unit) in per_round[0].items()}
