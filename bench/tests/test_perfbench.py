"""Tests of the benchmark itself.

    python3 -m pytest bench/tests
"""

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import scenes  # noqa: E402
import verify  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_calls():
    clock = FakeClock()
    outer_layer = layers.Layer("outer", "none", ())
    inner_layer = layers.Layer("inner", "none", ())
    leaf_layer = layers.Layer("leaf", "none", (), hot=True)
    tracer = layers.Tracer(layers=(outer_layer, inner_layer, leaf_layer),
                           clock=clock)

    def leaf():
        clock.advance(0.5)

    def inner_helper():          # same layer as inner: no new span
        clock.advance(1.0)
        traced_leaf()

    def inner():
        clock.advance(2.0)
        traced_leaf()
        traced_helper()

    def outer():
        clock.advance(1.0)
        traced_inner()
        clock.advance(3.0)
        traced_inner()

    traced_leaf = tracer.wrap(leaf_layer, leaf)
    traced_helper = tracer.wrap(inner_layer, inner_helper)
    traced_inner = tracer.wrap(inner_layer, inner)
    traced_outer = tracer.wrap(outer_layer, outer)
    with tracer.op():
        traced_outer()

    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 4}
    assert tracer.self_times() == {"outer": 4.0, "inner": 6.0, "leaf": 2.0}
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert sum(tracer.self_times().values()) == clock.now


def test_replace_bindings_reaches_from_imported_copy(monkeypatch):
    def entry():
        return "real"

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    home.entry = entry
    user.entry = entry           # what `from fakepkg.home import entry` leaves
    exec("def call():\n    return entry()\n", user.__dict__)
    for module in (types.ModuleType("fakepkg"), home, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    undo = layers.replace_bindings(entry, lambda: "wrapped", prefix="fakepkg")
    assert len(undo) == 2
    assert user.call() == "wrapped" and home.entry() == "wrapped"
    for module, attr, original in undo:
        setattr(module, attr, original)
    assert user.call() == "real"


def test_install_wraps_casphere_copies_and_restores():
    import casphere
    import casphere.mie
    import casphere.scattering
    original = casphere.mie.mie_diag
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert casphere.scattering.mie_diag is casphere.mie.mie_diag
        assert casphere.mie_diag is casphere.mie.mie_diag
        assert casphere.mie.mie_diag is not original
    finally:
        tracer.uninstall()
    assert casphere.scattering.mie_diag is original


def test_missing_layer_is_reported_not_zero():
    ghost = layers.Layer("ghost", "casphere.mie", ("no_such_function",))
    real = layers.Layer("mie.diag", "casphere.mie", ("mie_diag",))
    tracer = layers.Tracer(layers=(ghost, real))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["ghost"]
    metrics, missing = layers.layer_metrics(
        [dict(tracer.summary(), ops=1)], 0.0, layers=(ghost, real))
    assert missing == ["ghost"]
    assert not any(name.startswith("ghost.") for name in metrics)
    assert metrics["mie.diag.calls"] == 0


def test_same_seed_same_inputs():
    for workload in scenes.WORKLOADS:
        first = scenes.first_inputs(workload, 5, 6)
        assert first == scenes.first_inputs(workload, 5, 6)
        assert first != scenes.first_inputs(workload, 6, 6)
        assert json.loads(json.dumps(first)) == first


def _default_reference(workload):
    inputs, results = verify.load_references(workload, scenes.DEFAULT_SEED)
    assert inputs == scenes.first_inputs(workload, scenes.DEFAULT_SEED,
                                         len(inputs))
    return results[0]


def test_check_flags_perturbed_force_and_energy():
    ref = _default_reference("pair_force")
    assert verify.check_result("pair_force", ref, ref).ok
    bumped = dict(ref, force=[f * (1.0 + 1e-6) for f in ref["force"]])
    assert not verify.check_result("pair_force", bumped, ref).ok

    ref = _default_reference("thermal_three_body")
    assert verify.check_result("thermal_three_body", ref, ref).ok
    bumped = dict(ref, energy=ref["energy"] * (1.0 + 1e-6))
    assert not verify.check_result("thermal_three_body", bumped, ref).ok


def _bump_cell(csv_text, row, col, factor):
    lines = csv_text.splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[col] = format(float(cells[col]) * factor, ".17g")
    lines[data[row]] = ",".join(cells) + "\n"
    return "".join(lines)


def test_check_flags_cli_perturbation_exit_code_and_comments():
    ref = _default_reference("cli_sweep")["csv"]
    assert verify.check_csv(ref, 0, ref_text=ref).ok
    assert not verify.check_csv(_bump_cell(ref, 1, 3, 1.0 + 1e-6), 0,
                                ref_text=ref).ok
    assert not verify.check_csv(ref, 3, ref_text=ref).ok
    assert not verify.check_csv(ref.replace("# casphere", "# Casphere"), 0,
                                ref_text=ref).ok


def test_trace_reproduces_seed_profile_of_lmax3_pair():
    import casphere as cs
    eps = cs.ConstantPermittivity(2.6)
    scene = cs.SceneConfig(
        spheres=(cs.SphereSpec("a", (0.0, 0.0, 0.0), 1.0, eps),
                 cs.SphereSpec("b", (0.0, 0.0, 4.0), 1.0, eps)),
        l_max=3)
    tracer = layers.Tracer()
    tracer.install()
    try:
        with tracer.op():
            cs.casimir_force(scene, "b")
    finally:
        tracer.uninstall()
    metrics, missing = layers.layer_metrics([tracer.summary()], 0.0)
    assert missing == []
    assert metrics["scattering.integrand.calls"] == 176
    assert metrics["mie.diag.calls"] == 704
    assert metrics["mie.diag.distinct_ratio"] == 0.25
    assert metrics["translation.value.calls"] == 352
    assert metrics["translation.value.distinct_ratio"] == 0.5
    assert metrics["translation.gradient.calls"] == 352
    assert metrics["translation.gradient.distinct_ratio"] == 0.5
    assert metrics["specfun.harmonic.calls"] == 40480
    assert metrics["cli.self_s"] == 0.0


def test_reference_seconds_use_neighbouring_calibrations():
    import run
    ref = run.CAL_REF_S
    scaled = run.reference_seconds([2.0, 3.0], [ref, 3 * ref, ref])
    assert scaled == [1.0, 1.5]
