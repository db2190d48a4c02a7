"""
Command line: scene files, sweeps, and deterministic CSV
========================================================

The `casphere` console script reads a JSON scene, sweeps one sphere
coordinate, and writes CSV whose header comments echo every input
needed to reproduce the run.  Output bytes are identical from run to
run.  This demo drives the same entry point in-process.
"""

import json
import pathlib
import tempfile

from casphere.cli import main

SCENE = {
    "schema_version": 1,
    "l_max": 3,
    "spectral": {"n_nodes": 24},
    "spheres": [
        {"label": "a", "center": [0, 0, 0], "radius": 1.0,
         "permittivity": {"model": "constant", "eps": 2.6}},
        {"label": "b", "center": [0, 0, 4.0], "radius": 1.0,
         "permittivity": {"model": "constant", "eps": 2.6}},
    ],
}

with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    scene_path = tmp / "pair.json"
    scene_path.write_text(json.dumps(SCENE), encoding="utf-8")

    out = tmp / "sweep.csv"
    code = main(["force", "--scene", str(scene_path), "--target", "b",
                 "--sweep", "b:z:3.0:6.0:7", "--out", str(out)])
    print(f"exit code {code}; CSV written to a temp dir:\n")
    print(out.read_text(encoding="utf-8"))

    # running the same sweep again gives the same bytes
    out2 = tmp / "sweep2.csv"
    main(["force", "--scene", str(scene_path), "--target", "b",
          "--sweep", "b:z:3.0:6.0:7", "--out", str(out2)])
    same = out.read_bytes() == out2.read_bytes()
    print(f"byte-identical across two runs: {same}")
