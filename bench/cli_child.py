"""Traced CLI process: install the layer wrappers, then run the CLI.

    python3 bench/cli_child.py SUMMARY_JSON SPANS_JSON CLI_ARGS...

Behaves like ``python -m casphere.cli CLI_ARGS...`` and also writes the
tracer's per-layer summary and its spans.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import casphere.cli  # noqa: E402
import layers  # noqa: E402


def main(argv):
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = layers.Tracer()
    tracer.install()
    try:
        with tracer.op():
            code = casphere.cli.main(cli_args)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
