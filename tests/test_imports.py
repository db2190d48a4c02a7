"""The package's import graph: numpy and the standard library only."""

import os
import subprocess
import sys

import casphere

PROBE = ("import sys\n"
         "before = set(sys.modules)\n"
         "import casphere, casphere.cli\n"
         "for name in sorted(set(sys.modules) - before):\n"
         "    print(name)\n")


def test_import_loads_only_numpy_and_the_standard_library():
    src = os.path.dirname(os.path.dirname(casphere.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "casphere.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    top = {m.partition(".")[0] for m in loaded}
    assert top - set(sys.stdlib_module_names) == {"casphere", "numpy"}
