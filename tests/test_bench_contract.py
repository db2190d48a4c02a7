"""The benchmark's calls into casphere still work and still verify.

``bench/`` drives casphere through public calls, a scene file, the CLI
and a tracer that wraps names by string.  This file runs those calls
against the stored seed-1 references through ``bench/verify.py``, so a
change to casphere that breaks the benchmark fails here.  It reads
``bench/`` and writes only to a temporary directory.
"""

import json
import os
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import make_references  # noqa: E402
import scenes  # noqa: E402
import verify  # noqa: E402

from casphere.cli import main, parse_scene  # noqa: E402
from casphere.spectral import SpectralSettings  # noqa: E402

SEED = scenes.DEFAULT_SEED


def _first_reference(workload):
    """(first seed-1 input, its stored result); the generator must still
    produce the stored input."""
    inputs, results = verify.load_references(workload, SEED)
    assert scenes.first_inputs(workload, SEED, 1) == inputs[:1]
    return inputs[0], results[0]


@pytest.mark.parametrize("workload", sorted(make_references.RULES))
def test_reference_rules_are_spectral_settings(workload):
    rule = make_references.RULES[workload]
    settings = SpectralSettings(**rule)
    for key, value in rule.items():
        assert getattr(settings, key) == value


def test_cli_scene_parses_with_its_reference_rule():
    rule = make_references.RULES["cli_sweep"]
    scene = parse_scene(scenes.cli_scene_doc(rule))
    assert scene.spectral == SpectralSettings(**rule)
    assert scene.l_max == scenes.CLI_L_MAX


def test_tracer_finds_every_layer():
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_pair_force_op_counts_every_layer():
    # the tracer binds entry names and the parameters x, eps_rel, basis
    # and displacement by string; a warm l_max 4 pair force evaluates 88
    # frequencies, each with one Mie vector (three radial tables), one
    # translation gradient (one radial table) and two linear-algebra calls
    inp, ref = _first_reference("pair_force")
    scenes.warm_up("pair_force")
    tracer = layers.Tracer()
    tracer.install()
    try:
        with tracer.op():
            result = scenes.run_op("pair_force", inp)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    calls = {name: layer["calls"]
             for name, layer in tracer.summary()["layers"].items()}
    assert calls["mie.diag"] == calls["translation.gradient"] == 88
    assert calls["specfun.radial"] == 352
    assert calls["scattering.linalg"] == 176
    verdict = verify.check_result("pair_force", result, ref)
    assert verdict.ok, verdict


@pytest.mark.parametrize("workload", ["pair_force", "thermal_three_body"])
def test_first_in_process_op_matches_its_reference(workload):
    inp, ref = _first_reference(workload)
    scenes.warm_up(workload)
    verdict = verify.check_result(workload, scenes.run_op(workload, inp),
                                  ref)
    assert verdict.ok, verdict


def test_first_cli_sweep_matches_its_reference(tmp_path, monkeypatch):
    # the CSV echoes the scene path, so run where the benchmark runs:
    # a checkout root holding the scene file at CLI_SCENE_PATH
    inp, ref = _first_reference("cli_sweep")
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(scenes.CLI_SCENE_PATH))
    with open(scenes.CLI_SCENE_PATH, "w", encoding="utf-8") as fh:
        json.dump(scenes.cli_scene_doc(), fh)
    out = tmp_path / "sweep.csv"
    code = main(scenes.cli_argv(inp, str(out)))
    verdict = verify.check_csv(out.read_text(encoding="utf-8"), code,
                               ref_text=ref["csv"])
    assert verdict.ok, verdict
