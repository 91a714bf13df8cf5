"""The three benchmark workloads: generated inputs, CLI calls, set-up.

Every workload goes through ``leakywire.cli.main`` with input files written
by the benchmark, so the program sees only the generated inputs.  A seed
jitters those inputs inside narrow ranges in which every check in checks.py
still holds (see README.md for the ranges and the reasons).
"""

import json
import os
import random

ALPHA = 1.0

# corner-solve: h = 1/8 with n just above bs_core.DENSE_CUTOFF (1500), so
# every eigensolve takes the warm-started ARPACK path
CORNER_N = 1504
CORNER_H = 0.125

# beta-sweep: automatic grids, all below the dense cut-off
BETA_NODES_PER_UNIT = 2.0
BETA_N_CAP = 800
BETA_DECAY_MULTIPLIER = 5.0

# wiggle-sweep: two corners, two levels, three pivot angles
WIGGLE_NODES_PER_UNIT = 2.0
WIGGLE_N_CAP = 1200


def _curve_json(vertices):
    return {"segments": [],
            "vertices": [{"s": s, "angle": a} for s, a in vertices]}


def make_inputs(name, seed):
    """Workload inputs for one seed; the same seed gives the same inputs."""
    rng = random.Random(f"{name}/{seed}")
    if name == "corner-solve":
        angle = rng.uniform(0.97, 1.03)
        return {"vertices": [(0.0, angle)], "beta": 1.0,
                "n": CORNER_N, "L": 0.5 * CORNER_N * CORNER_H}
    if name == "beta-sweep":
        betas = [b + rng.uniform(-0.01, 0.01) for b in (0.6, 0.8, 1.0, 1.2)]
        return {"vertices": [(0.0, 1.0)], "betas": betas}
    if name == "wiggle-sweep":
        angle = rng.uniform(1.18, 1.22)
        spacing = rng.uniform(23.5, 24.5)
        step = rng.uniform(0.035, 0.045)
        return {"vertices": [(-0.5 * spacing, angle), (0.5 * spacing, angle)],
                "phis": [-step, 0.0, step]}
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(name, inputs, folder):
    """Write the curve (and sweep config) files; return the CLI argv."""
    curve_path = os.path.join(folder, "curve.json")
    with open(curve_path, "w") as fh:
        json.dump(_curve_json(inputs["vertices"]), fh)
    out = os.path.join(folder, "out")
    if name == "corner-solve":
        return ["solve", "--curve", curve_path, "--alpha", repr(ALPHA),
                "--beta", repr(inputs["beta"]), "--n", str(inputs["n"]),
                "--L", repr(inputs["L"]), "--maxk", "1", "--json", out + ".json"]
    config = {"curve_file": "curve.json", "alpha": ALPHA}
    if name == "beta-sweep":
        config.update(beta_list=inputs["betas"], nodes_per_unit=BETA_NODES_PER_UNIT,
                      n_cap=BETA_N_CAP, decay_multiplier=BETA_DECAY_MULTIPLIER)
        command = "sweep-beta"
    else:
        config.update(phi_list=inputs["phis"], maxk=2,
                      nodes_per_unit=WIGGLE_NODES_PER_UNIT, n_cap=WIGGLE_N_CAP)
        command = "sweep-phi"
    config_path = os.path.join(folder, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return [command, "--config", config_path, "--out", out]


def setup(name, inputs, folder, leakywire):
    """What a user does before the first solver call: parse the curve,
    validate it at the largest scaling used, build the grid or config."""
    geometry = leakywire.geometry
    with open(os.path.join(folder, "curve.json")) as fh:
        curve = geometry.curve_from_json(fh.read())
    beta = inputs.get("beta", max(inputs.get("betas", [1.0])))
    report = geometry.validate(curve, beta=beta)
    if not report.ok:
        raise ValueError(f"generated curve fails validation: {report.messages}")
    if name == "corner-solve":
        return leakywire.bs_core.Grid.uniform(inputs["L"], inputs["n"])
    with open(os.path.join(folder, "config.json")) as fh:
        return leakywire.harness.config_from_json(fh.read(), base_dir=folder)


def ops_per_round(name, inputs):
    """One operation is one root solve or one sweep row."""
    if name == "corner-solve":
        return 2
    if name == "beta-sweep":
        return len(inputs["betas"])
    return 2 * len(inputs["phis"])


def read_output(folder):
    with open(os.path.join(folder, "out.json")) as fh:
        return json.load(fh)
