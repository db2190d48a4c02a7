"""Compute the stored reference results of the benchmark.

Run from the root of a checkout of the commit the references describe:

    python3 bench/make_references.py [--workload NAME ...]

For the default and the held-out seed, the first REFERENCE_OPS inputs of
each workload are evaluated with a tighter frequency rule than the
default one:

* T = 0 (pair_force, cli_sweep): a 120-node Gauss-Laguerre rule (its
  error check uses 128).  At 200 nodes or more ``integrate_zero_t``
  overflows in ``math.exp(u)``, so 120 is the largest safe choice here;
  at the closest pair gap the 80- and 120-node results agree to 5e-14.
* T > 0 (thermal_three_body): the Matsubara sum stops at a relative
  term size of 1e-13 instead of the default 1e-10.

cli_sweep references are the CSV the CLI writes for the same command
line, with the 120-node rule set in the scene file's ``spectral`` field,
which the CSV does not echo.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import scenes  # noqa: E402
from verify import reference_path  # noqa: E402

RULES = {
    "pair_force": {"n_nodes": 120},
    "thermal_three_body": {"matsubara_tail_tol": 1e-13},
    "cli_sweep": {"n_nodes": 120},
}


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def reference_result(workload, inp):
    import casphere as cs
    from casphere.cli import main as cli_main
    rule = RULES[workload]
    if workload == "pair_force":
        res = cs.casimir_force(
            scenes.pair_scene(inp, cs.SpectralSettings(**rule)), "b")
        return {"force": [float(v) for v in res.force],
                "error": [float(v) for v in res.error]}
    if workload == "thermal_three_body":
        value, error, _ = cs.three_body_energy(
            scenes.thermal_scene(inp, cs.SpectralSettings(**rule)))
        return {"energy": float(value), "error": float(error)}
    out = os.path.join(".bench_work", "reference.csv")
    code = cli_main(scenes.cli_argv(inp, out))
    if code != 0:
        raise RuntimeError(f"CLI exited {code} for {inp}")
    with open(out, encoding="utf-8") as fh:
        return {"csv": fh.read()}


def make(workload):
    if workload == "cli_sweep":
        with open(scenes.CLI_SCENE_PATH, "w", encoding="utf-8") as fh:
            json.dump(scenes.cli_scene_doc(RULES[workload]), fh)
    doc = {"workload": workload,
           "command": f"python3 bench/make_references.py --workload {workload}",
           "rule": RULES[workload],
           "commit": _commit(),
           "default_seed": scenes.DEFAULT_SEED,
           "held_out_seed": scenes.HELD_OUT_SEED,
           "seeds": {}}
    n = scenes.REFERENCE_OPS[workload]
    for seed in (scenes.DEFAULT_SEED, scenes.HELD_OUT_SEED):
        entries = []
        for inp in scenes.first_inputs(workload, seed, n):
            t0 = time.perf_counter()
            entries.append({"input": inp,
                            "result": reference_result(workload, inp)})
            print(f"{workload} seed {seed} op {len(entries)}/{n}: "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
        doc["seeds"][str(seed)] = entries
    with open(reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=scenes.WORKLOADS)
    args = parser.parse_args()
    os.chdir(ROOT)
    os.makedirs(".bench_work", exist_ok=True)
    for workload in args.workload or scenes.WORKLOADS:
        make(workload)


if __name__ == "__main__":
    main()
