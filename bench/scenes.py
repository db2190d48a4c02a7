"""Seeded inputs, scenes and single operations of the benchmark workloads.

Every workload is a sequence of inputs drawn from
``random.Random("<workload>:<seed>")``; the same seed always yields the
same sequence, and casphere sees only the
scenes built from it.  One input is one op: a public call for the two
in-process workloads, one fresh ``python -m casphere.cli`` process for
``cli_sweep``.

Only the standard library is imported at module level, so the input
generator can run before numpy is configured.
"""

import math
import random
from dataclasses import replace
from itertools import islice

WORKLOADS = ("pair_force", "thermal_three_body", "cli_sweep")

# Seeds whose first REFERENCE_OPS inputs have stored reference results.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
REFERENCE_OPS = {"pair_force": 8, "thermal_three_body": 12, "cli_sweep": 8}

PAIR_L_MAX = 4
THERMAL_L_MAX = 3
THERMAL_KELVIN = 293.0
THERMAL_LENGTH_UNIT_M = 1e-7
# Gold (Drude), silica (Lorentz) and a constant dielectric, with radii.
GOLD_OSCILLATOR = (1.88e32, 0.0, 5.3e13)
SILICA_OSCILLATOR = (1.1 * (2e16) ** 2, 2e16, 0.0)
THERMAL_RADII = (1.0, 0.8, 0.6)
# One gap per pair, permuted and jittered by the seed: each op then has
# about the same number of Matsubara terms, so op times stay comparable
# across seeds while the geometry and orientation still change.
THERMAL_GAPS = (1.6, 1.9, 2.2)
THERMAL_GAP_JITTER = 0.05

CLI_L_MAX = 3
CLI_SCENE_PATH = ".bench_work/cli_scene.json"   # relative to the checkout
CLI_POINTS = 2


# ------------------------------------------------------------------ inputs

def _pair_inputs(rng):
    while True:
        yield {"d": rng.uniform(2.5, 8.0)}


def _rotation(rng):
    """Uniformly random rotation matrix (Shoemake's quaternion method)."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    w, x = a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2)
    y, z = b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3)
    return ((1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
            (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
            (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)))


def _apply(rot, vec):
    return tuple(sum(rot[i][k] * vec[k] for k in range(3)) for i in range(3))


def _thermal_inputs(rng):
    ra, rb, rc = THERMAL_RADII
    while True:
        gaps = list(THERMAL_GAPS)
        rng.shuffle(gaps)
        g_ab, g_ac, g_bc = (g * (1.0 + rng.uniform(-THERMAL_GAP_JITTER,
                                                   THERMAL_GAP_JITTER))
                            for g in gaps)
        d_ab, d_ac, d_bc = g_ab + ra + rb, g_ac + ra + rc, g_bc + rb + rc
        # triangle a = origin, b on the x axis, c in the xy plane
        cx = (d_ab ** 2 + d_ac ** 2 - d_bc ** 2) / (2.0 * d_ab)
        cy = math.sqrt(d_ac ** 2 - cx ** 2)
        rot = _rotation(rng)
        shift = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        centers = [tuple(p + s for p, s in zip(_apply(rot, v), shift))
                   for v in ((0.0, 0.0, 0.0), (d_ab, 0.0, 0.0),
                             (cx, cy, 0.0))]
        yield {"centers": [list(c) for c in centers]}


def _cli_value(rng, lo, hi):
    # four decimals, never exactly 0: x = 0 would put b on the z axis
    while True:
        text = f"{rng.uniform(lo, hi):.4f}"
        if float(text) != 0.0:
            return text


def _cli_inputs(rng):
    while True:
        start = _cli_value(rng, -1.6, 0.4)
        stop = _cli_value(rng, float(start) + 0.3, float(start) + 1.2)
        yield {"sweep": f"b:x:{start}:{stop}:{CLI_POINTS}"}


_GENERATORS = {"pair_force": _pair_inputs,
               "thermal_three_body": _thermal_inputs,
               "cli_sweep": _cli_inputs}


def inputs(workload, seed):
    """Endless, reproducible input sequence of a workload for a seed."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def first_inputs(workload, seed, n):
    return list(islice(inputs(workload, seed), n))


# ------------------------------------------------------------------ scenes

def pair_scene(inp, spectral=None):
    import casphere as cs
    eps = cs.ConstantPermittivity(2.6)
    scene = cs.SceneConfig(
        spheres=(cs.SphereSpec("a", (0.0, 0.0, 0.0), 1.0, eps),
                 cs.SphereSpec("b", (0.0, 0.0, inp["d"]), 1.0, eps)),
        l_max=PAIR_L_MAX)
    return scene if spectral is None else replace(scene, spectral=spectral)


def thermal_scene(inp, spectral=None):
    import casphere as cs
    models = (cs.DrudeLorentzPermittivity((GOLD_OSCILLATOR,)),
              cs.DrudeLorentzPermittivity((SILICA_OSCILLATOR,)),
              cs.ConstantPermittivity(2.6))
    spheres = tuple(cs.SphereSpec(label, tuple(center), radius, model)
                    for label, center, radius, model
                    in zip("abc", inp["centers"], THERMAL_RADII, models))
    scene = cs.SceneConfig(spheres=spheres, l_max=THERMAL_L_MAX,
                           temperature_kelvin=THERMAL_KELVIN,
                           length_unit_m=THERMAL_LENGTH_UNIT_M)
    return scene if spectral is None else replace(scene, spectral=spectral)


def cli_scene_doc(spectral=None):
    """Scene file of cli_sweep: a at the origin, b on the z axis."""
    doc = {"schema_version": 1, "l_max": CLI_L_MAX, "spheres": [
        {"label": "a", "center": [0.0, 0.0, 0.0], "radius": 1.0,
         "permittivity": {"model": "constant", "eps": 2.6}},
        {"label": "b", "center": [0.0, 0.0, 3.2], "radius": 0.8,
         "permittivity": {"model": "constant", "eps": 3.9}}]}
    if spectral:
        doc["spectral"] = spectral
    return doc


def cli_argv(inp, out_path):
    """Arguments after ``python -m casphere.cli`` for one cli_sweep op."""
    return ["force", "--scene", CLI_SCENE_PATH, "--target", "b",
            "--sweep", inp["sweep"], "--out", out_path]


def cli_point_scene(x):
    """In-process scene of one cli_sweep point: b moved to x."""
    from casphere.cli import parse_scene
    scene = parse_scene(cli_scene_doc())
    center = list(scene.spheres[scene.index_of("b")].center)
    center[0] = x
    return scene.moved("b", center)


# --------------------------------------------------------------------- ops

def run_op(workload, inp):
    """One timed public call; returns the result as plain floats."""
    import casphere as cs
    if workload == "pair_force":
        res = cs.casimir_force(pair_scene(inp), "b")
        return {"force": [float(v) for v in res.force],
                "error": [float(v) for v in res.error]}
    if workload == "thermal_three_body":
        value, error, _ = cs.three_body_energy(thermal_scene(inp))
        return {"energy": float(value), "error": float(error)}
    raise ValueError(f"{workload} does not run in process")


def warm_up(workload):
    """Fill casphere's lazy caches (coupling tables, basis maps) through
    one integrand evaluation per truncation a workload's ops use, on a
    scene that is not one of the measured inputs."""
    import casphere as cs
    if workload == "pair_force":
        scene = pair_scene({"d": 3.0})
        for l_max in (PAIR_L_MAX, PAIR_L_MAX - 1):
            cs.force_integrand(replace(scene, l_max=l_max), "b", 0.5)
    elif workload == "thermal_three_body":
        scene = thermal_scene({"centers": [[0.0, 0.0, 0.0], [3.6, 0.0, 0.0],
                                           [1.6, 3.2, 0.4]]})
        cs.energy_integrand(scene, 0.5)
    else:
        raise ValueError(f"{workload} warms up in its own processes")


def invariant_residual(workload, inp, result):
    """Residual of a physics invariant for one op without a reference.

    Force workloads: Newton's third law, |F_a + F_b| / |F_b|, with F_b
    taken from the op (the first sweep point for cli_sweep).  Three-body
    energy: relative change of V3 under a fixed rigid rotation.
    """
    import casphere as cs
    from verify import csv_forces, newton_residual, rel_diff
    if workload == "thermal_three_body":
        rot = _rotation(random.Random("rotation invariance"))
        turned = {"centers": [list(_apply(rot, c)) for c in inp["centers"]]}
        value, _, _ = cs.three_body_energy(thermal_scene(turned))
        return rel_diff(value, result["energy"])
    if workload == "pair_force":
        scene, force_b = pair_scene(inp), result["force"]
    else:
        x, force_b = csv_forces(result["csv"])[0]
        scene = cli_point_scene(x)
    force_a = cs.casimir_force(scene, "a", truncation_error=False).force
    return newton_residual([float(f) for f in force_a], force_b)
