"""Set-up probe: a fresh interpreter imports casphere from the checkout
and warms it up for one workload, then exits.

    python3 bench/probe.py WORKLOAD
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import scenes  # noqa: E402

if __name__ == "__main__":
    scenes.warm_up(sys.argv[1])
