"""Command-line interface: scene parsing, sweeps, CSV output, exit codes."""

import json
import math
import re

import numpy as np
import pytest

import casphere
import casphere.translation
from casphere import cli
from casphere.cli import (EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                          SceneParseError, main, parse_scene, sweep_points)
from casphere.largen import LargeNParams, largen_potential_integral
from casphere.mie import DrudeLorentzPermittivity
from casphere.scattering import (ForceResult, interaction_energy,
                                 three_body_energy)


def scene_doc(n_spheres=2, l_max=1, d=3.5, **extra):
    spheres = [{"label": "a", "center": [0, 0, 0], "radius": 1.0,
                "permittivity": {"model": "constant", "eps": 2.6}},
               {"label": "b", "center": [0, 0, d], "radius": 1.0,
                "permittivity": {"model": "constant", "eps": 2.6}},
               {"label": "c", "center": [d, 0, 0], "radius": 1.0,
                "permittivity": {"model": "constant", "eps": 2.6}}]
    doc = {"schema_version": 1, "l_max": l_max,
           "spheres": spheres[:n_spheres]}
    doc.update(extra)
    return doc


def scene_file(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# --------------------------------------------------------------- parsing

def test_parse_scene_roundtrip():
    doc = scene_doc(l_max=2, temperature_kelvin=10.0, length_unit_m=1e-6,
                    spectral={"n_nodes": 24})
    scene = parse_scene(doc)
    assert scene.l_max == 2
    assert scene.temperature_kelvin == 10.0
    assert scene.spectral.n_nodes == 24
    assert [s.label for s in scene.spheres] == ["a", "b"]


def test_parse_scene_messages_name_the_field():
    with pytest.raises(SceneParseError, match="schema_version"):
        parse_scene(scene_doc() | {"schema_version": 99})
    with pytest.raises(SceneParseError, match="frobnicate"):
        parse_scene(scene_doc(frobnicate=1))
    with pytest.raises(SceneParseError, match="units"):
        parse_scene(scene_doc(units="parsec"))
    with pytest.raises(SceneParseError, match="spheres"):
        parse_scene(scene_doc() | {"spheres": []})
    doc = scene_doc()
    del doc["spheres"][1]["radius"]
    with pytest.raises(SceneParseError, match=r"spheres\[1\]"):
        parse_scene(doc)
    doc = scene_doc()
    doc["spheres"][0]["permittivity"] = {"model": "unobtainium"}
    with pytest.raises(SceneParseError, match="unknown model"):
        parse_scene(doc)
    with pytest.raises(SceneParseError, match="spectral"):
        parse_scene(scene_doc(spectral={"no_such_knob": 1}))
    with pytest.raises(SceneParseError, match="spectral"):
        parse_scene(scene_doc(spectral={"temperature": 0.0}))
    # overlap propagates as a parse error with the labels
    with pytest.raises(SceneParseError, match="overlap"):
        parse_scene(scene_doc(d=1.0))


def test_parse_scene_si_units():
    doc = scene_doc(units="SI")
    for s in doc["spheres"]:
        s["center"] = [c * 2e-6 for c in s["center"]]
        s["radius"] = 2e-6
    scene = parse_scene(doc)
    assert scene.length_unit_m == pytest.approx(2e-6)
    assert scene.spheres[0].radius == 1.0
    assert scene.spheres[1].center == (0.0, 0.0, 3.5)
    with pytest.raises(SceneParseError, match="length_unit_m"):
        parse_scene(doc | {"length_unit_m": 1e-6})


def test_parse_scene_permittivity_models():
    doc = scene_doc(background={"model": "constant", "eps": 1.3})
    doc["spheres"][0]["permittivity"] = {
        "model": "drude-lorentz", "oscillators": [[3.0, 2.0, 0.5]]}
    doc["spheres"][1]["permittivity"] = {
        "model": "tabulated", "xi": [0.1, 1.0, 10.0], "eps": [4.0, 3.0, 2.0]}
    scene = parse_scene(doc)
    assert isinstance(scene.spheres[0].permittivity,
                      DrudeLorentzPermittivity)
    assert scene.spheres[1].permittivity.eps_imag_freq(1.0) == 3.0
    assert scene.background.eps_imag_freq(0.5) == 1.3
    # a parsed scene is a value: equal and hashable like a built one
    assert parse_scene(doc) == scene and hash(parse_scene(doc)) == hash(scene)


def test_parse_sweep(tmp_path, capsys):
    scene = parse_scene(scene_doc())
    points = sweep_points(scene, "b:z:3.0:8.0:11")
    assert [p for p, _ in points] == list(np.linspace(3.0, 8.0, 11))
    assert [sc.spheres[1].center[2] for _, sc in points] == \
        [p for p, _ in points]
    for text in ("b:z:3.0:8.0:11:log", "b:z:2.5:8:4:log"):
        start, stop, n = (float(v) for v in text.split(":")[2:5])
        assert [p for p, _ in sweep_points(scene, text)] == \
            list(np.geomspace(start, stop, int(n)))
    path = scene_file(tmp_path, scene_doc())
    for bad in ("b:w:3:8:11", "b:z:8:3:11", "b:z:3:8:1", "b:z:3:8:4:fancy",
                "b:z:3:8", "b:z:-1:8:4:log", "q:z:3:8:4",
                # refused at the boundary, not by numpy or int()
                "b:z:3:inf:2", "b:z:nan:6:2", "b:z:3:6:x", "b:z:3:6:2.0",
                "b:z:-1e308:1e308:2"):
        with pytest.raises(ValueError, match="--sweep"):
            sweep_points(scene, bad)
        assert main(["force", "--scene", path, "--target", "b",
                     "--sweep", bad]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: --sweep"), (bad, err)


def test_sweep_points_moves_one_sphere():
    scene = parse_scene(scene_doc())
    points = sweep_points(scene, "b:z:3.0:5.0:3")
    assert [p for p, _ in points] == [3.0, 4.0, 5.0]
    assert points[2][1].spheres[1].center == (0.0, 0.0, 5.0)
    assert points[2][1].spheres[0].center == scene.spheres[0].center
    assert all(sc == scene.moved("b", (0.0, 0.0, p)) for p, sc in points)


# ------------------------------------------------------------ exit codes

def test_missing_scene_file_is_io_error(tmp_path, capsys):
    code = main(["force", "--scene", str(tmp_path / "nope.json"),
                 "--target", "b"])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_bad_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    code = main(["force", "--scene", str(path), "--target", "b"])
    assert code == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_overlapping_scene_is_validation_error(tmp_path, capsys):
    path = scene_file(tmp_path, scene_doc(d=1.0))
    code = main(["force", "--scene", path, "--target", "b"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "overlap" in err


def test_sweep_into_overlap_names_the_point(tmp_path, capsys):
    path = scene_file(tmp_path, scene_doc())
    assert main(["force", "--scene", path, "--target", "b",
                 "--sweep", "b:z:1:3:2"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: --sweep point b:z=1: "), err
    assert "overlap" in err


def _nan_center(doc):
    doc["spheres"][1]["center"] = [0.0, 0.0, float("nan")]
    return doc


def _nan_drude(doc):
    doc["spheres"][0]["permittivity"] = {
        "model": "drude-lorentz", "oscillators": [[float("nan"), 1.0, 0.1]]}
    return doc


def _sphere_field(index, key, value):
    doc = scene_doc()
    doc["spheres"][index][key] = value
    return doc


@pytest.mark.parametrize("doc, field, args", [
    (scene_doc(temperature_kelvin=float("nan")), "temperature_kelvin", []),
    (_nan_center(scene_doc()), r"spheres\[1\]", []),
    (scene_doc(spectral={"n_nodes": 178}), "spectral", []),
    (_nan_drude(scene_doc()), r"spheres\[0\]\.permittivity", []),
    (scene_doc(spectral={"adaptive": True}), "spectral", []),
    # keys removed from SpectralSettings: refused whatever their value
    (scene_doc(spectral={"check_nodes": 8}), "check_nodes", []),
    (scene_doc(spectral={"n_matsubara_max": 0}, temperature_kelvin=293.0,
               length_unit_m=1e-7), "n_matsubara_max", []),
    (scene_doc(spectral={"xi_eps": -0.001}), "xi_eps", []),
    (scene_doc(l_max=3.5), "l_max", []),
    (scene_doc(), "l_max", ["--lmax", "31"]),
    (scene_doc(spectral={"matsubara_tail_tol": float("nan")},
               temperature_kelvin=293.0, length_unit_m=1e-7),
     "matsubara_tail_tol", []),
    (scene_doc(spectral={"n_nodes": 40.5}), "n_nodes", []),
    (scene_doc(spectral={"n_nodes": True}), "n_nodes", []),
    # JSON true is a Python int; every scene number refuses it
    (scene_doc(l_max=True), "l_max", []),
    (_sphere_field(1, "radius", True), r"spheres\[1\]\.radius", []),
    (_sphere_field(1, "permittivity", {"model": "constant", "eps": True}),
     r"spheres\[1\]\.permittivity\.eps", []),
    (_sphere_field(0, "center", [0, 0, True]), r"spheres\[0\]\.center", []),
    (scene_doc(temperature_kelvin=True, length_unit_m=1e-7),
     "temperature_kelvin", []),
], ids=["temperature-nan", "center-nan", "too-many-nodes", "drude-nan",
        "adaptive-removed", "check-nodes-removed", "matsubara-max-zero",
        "xi-eps-negative", "lmax-fractional", "lmax-over-cap", "tail-tol-nan",
        "nodes-fractional", "nodes-bool", "lmax-bool", "radius-bool",
        "eps-bool", "center-bool", "temperature-bool"])
def test_invalid_scene_value_exit_code_names_the_field(tmp_path, capsys,
                                                        doc, field, args):
    path = scene_file(tmp_path, doc)
    assert main(["force", "--scene", path, "--target", "b", *args]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error" in err
    assert re.search(field, err)


def test_unknown_target_is_validation_error(tmp_path, capsys):
    # refused once the scene is loaded, before any evaluation, naming the
    # option and the scene's labels; three-body potential never reads it
    path = scene_file(tmp_path, scene_doc(n_spheres=3))
    out = tmp_path / "none.csv"
    for argv in (["force"], ["potential", "--sweep", "zz:z:4:5:2"],
                 ["three-body"], ["three-body", "--quantity", "force"]):
        assert main([argv[0], "--scene", path, "--target", "zz", *argv[1:],
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: --target needs the label of a sphere "
            "(a, b, c), got 'zz'\n"), argv
    assert not out.exists()


def test_bad_order_is_validation_error(tmp_path, capsys):
    path = scene_file(tmp_path, scene_doc())
    for bad in ("7", "5", "x", "1"):
        assert main(["force", "--scene", path, "--target", "b",
                     "--order", bad]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: --order"), (bad, err)
        assert "resummed, 2, 3, 4" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert casphere.__version__ in capsys.readouterr().out


def test_potential_requires_sweep(tmp_path):
    path = scene_file(tmp_path, scene_doc())
    with pytest.raises(SystemExit) as exc:
        main(["potential", "--scene", path, "--target", "b"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, value, error", [("force", 3, 4),
                                                   ("potential", 1, 2)])
def test_dominating_error_exits_3_after_writing_every_row(
        tmp_path, capsys, command, value, error):
    # l_max 2 on 24 nodes: |V - V(l_max - 1)| and |F - F(l_max - 1)| pass
    # half the value at both gaps (error/|F_z| 0.80, 0.57; error/|V|
    # 0.75, 0.49, so the potential flags on its sweep-wide maxima)
    path = scene_file(tmp_path, scene_doc(l_max=2, spectral={"n_nodes": 24}))
    out = tmp_path / "flagged.csv"
    code = main([command, "--scene", path, "--target", "b",
                 "--sweep", "b:z:2.05:3:2", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical flag: error estimate dominates at least one row\n")
    _, _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [2.05, 3.0]
    assert float(rows[0][error]) > 0.5 * abs(float(rows[0][value]))


@pytest.mark.parametrize("quantity", ["potential", "force"])
def test_non_finite_three_body_exits_3(tmp_path, capsys, monkeypatch,
                                       quantity):
    def force(scene, target):
        return ForceResult(force=np.full(3, math.nan), error=np.zeros(3),
                           target=target, l_max=scene.l_max, n_freq=1,
                           exponent_scale=0.0, si_factor=0.0)

    monkeypatch.setattr(cli, "three_body_energy",
                        lambda scene: (math.nan, 0.0, 1))
    monkeypatch.setattr(cli, "three_body_force", force)
    path = scene_file(tmp_path, scene_doc(n_spheres=3))
    out = tmp_path / "v3.csv"
    code = main(["three-body", "--scene", path, "--target", "a",
                 "--quantity", quantity, "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical flag: non-finite three-body result\n")
    _, _, rows = read_csv(out)
    assert rows[0][1] == "nan"


def test_failed_gradient_audit_exits_3_without_a_csv(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(casphere.translation, "gradient_fd_check",
                        lambda *args: 1e-3)
    path = scene_file(tmp_path, scene_doc())
    out = tmp_path / "audited.csv"
    code = main(["force", "--scene", path, "--target", "b",
                 "--verify-gradient", "--sweep", "b:z:3:4:2",
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "gradient audit failed at sweep=3.0: max rel error 1.00e-03\n")
    assert not out.exists()


def test_potential_sweep_must_move_the_target(tmp_path, capsys):
    # the potential of b along a path of a would be V(b) at b's fixed
    # center on every row
    path = scene_file(tmp_path, scene_doc(l_max=2, d=4.0))
    out = tmp_path / "pot.csv"
    code = main(["potential", "--scene", path, "--target", "b",
                 "--sweep", "a:z:-2:0:3", "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "'a'" in err and "'b'" in err
    assert not out.exists()


# ------------------------------------------------------------ CSV output

def read_csv(path):
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                comments.append(line[2:])
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def test_force_sweep_csv(tmp_path):
    path = scene_file(tmp_path, scene_doc())
    out = tmp_path / "force.csv"
    code = main(["force", "--scene", path, "--target", "b",
                 "--sweep", "b:z:3.0:5.0:3", "--out", str(out)])
    assert code == EXIT_OK
    comments, header, rows = read_csv(out)
    assert header == ["sweep_param", "F_x", "F_y", "F_z", "error_estimate",
                      "L_max", "n_freq", "exponent_scale"]
    assert len(rows) == 3
    assert [float(r[0]) for r in rows] == [3.0, 4.0, 5.0]
    fz = [float(r[3]) for r in rows]
    assert all(f < 0.0 for f in fz)
    assert abs(fz[0]) > abs(fz[1]) > abs(fz[2])
    assert all(int(r[5]) == 1 for r in rows)
    assert any(casphere.__version__ in c for c in comments)
    assert any("sweep=b:z:3.0:5.0:3" in c for c in comments)


def test_force_fixed_order_reports_exponent(tmp_path):
    path = scene_file(tmp_path, scene_doc())
    out = tmp_path / "f2.csv"
    code = main(["force", "--scene", path, "--target", "b", "--order", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    _, _, rows = read_csv(out)
    # two passes between unit spheres at center distance 3.5: gap 1.5
    assert float(rows[0][7]) == pytest.approx(-3.5 / 1.5, rel=1e-15)


def test_force_fixed_order_at_small_gap(tmp_path):
    path = scene_file(tmp_path, scene_doc(d=2.3))
    out = tmp_path / "close.csv"
    assert main(["force", "--scene", path, "--target", "b", "--order", "2",
                 "--out", str(out)]) == EXIT_OK
    _, _, rows = read_csv(out)
    assert math.isfinite(float(rows[0][3])) and float(rows[0][3]) < 0.0


def test_force_gradient_audit_passes(tmp_path):
    path = scene_file(tmp_path, scene_doc())
    out = tmp_path / "audited.csv"
    assert main(["force", "--scene", path, "--target", "b",
                 "--verify-gradient", "--out", str(out)]) == EXIT_OK


def test_lmax_and_temperature_overrides(tmp_path):
    doc = scene_doc(length_unit_m=1e-6)
    path = scene_file(tmp_path, doc)
    out = tmp_path / "warm.csv"
    code = main(["force", "--scene", path, "--target", "b",
                 "--lmax", "2", "--temperature", "300",
                 "--out", str(out)])
    assert code == EXIT_OK
    _, _, rows = read_csv(out)
    assert int(rows[0][5]) == 2
    # Matsubara path: far fewer frequency points than the T = 0 quadrature
    assert 0 < int(rows[0][6]) < 48


def test_potential_sweep_csv(tmp_path):
    path = scene_file(tmp_path, scene_doc())
    out = tmp_path / "pot.csv"
    code = main(["potential", "--scene", path, "--target", "b",
                 "--sweep", "b:z:3.5:9.0:12:log", "--out", str(out)])
    assert code == EXIT_OK
    comments, header, rows = read_csv(out)
    assert header == ["sweep_param", "V", "error_estimate", "L_max",
                      "n_freq", "exponent_scale"]
    assert len(rows) == 12
    v = np.array([float(r[1]) for r in rows])
    assert np.all(v < 0.0) and np.all(np.diff(v) > 0.0)
    assert not any("tail" in c for c in comments)
    points = sweep_points(parse_scene(scene_doc()), "b:z:3.5:9.0:12:log")
    for cell, (_, sc) in zip(v, points):
        want, _, _ = interaction_energy(sc)
        assert cell == pytest.approx(4.0 * math.pi * want, rel=1e-12)


def test_three_body_csv(tmp_path):
    doc = scene_doc(n_spheres=3)
    path = scene_file(tmp_path, doc)
    out = tmp_path / "v3.csv"
    code = main(["three-body", "--scene", path, "--target", "a",
                 "--out", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_csv(out)
    assert header[1] == "V"
    want, _, _ = three_body_energy(parse_scene(doc))
    assert float(rows[0][1]) == pytest.approx(want * 4.0 * math.pi,
                                              rel=1e-12)
    # needs exactly three spheres
    two = scene_file(tmp_path, scene_doc(), name="two.json")
    assert main(["three-body", "--scene", two,
                 "--target", "a"]) == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["potential", "--target", "b", "--sweep", "b:z:3:4:2"],
    ["three-body", "--target", "c", "--sweep", "c:x:3.5:4:2"],
])
def test_sweep_bytes_repeat(tmp_path, argv):
    path = scene_file(tmp_path, scene_doc(n_spheres=3))
    runs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        assert main([argv[0], "--scene", path, *argv[1:],
                     "--out", str(out)]) == EXIT_OK
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    assert len(read_csv(tmp_path / "first.csv")[2]) == 2


def test_large_n_csv_matches_library(tmp_path):
    out = tmp_path / "ln.csv"
    code = main(["large-n", "--n-range", "3:6", "--alpha-s", "0.05",
                 "--separation", "8.0", "--out", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_csv(out)
    assert len(rows) == 4
    for row in rows:
        n = int(float(row[0]))
        want = largen_potential_integral(
            LargeNParams(n=n, alpha_s=0.05, radius=1.0, separation=8.0))
        assert float(row[1]) == pytest.approx(want.magnitude, rel=1e-12)
        assert float(row[2]) == pytest.approx(
            want.magnitude * want.log_magnitude_error, rel=1e-12)
        assert float(row[5]) == pytest.approx(want.log_magnitude, rel=1e-12)


@pytest.mark.parametrize("args, error", [
    (["--alpha-s", "0"], 0.0),
    (["--alpha-s", "0", "--method", "asymptotic"], 0.0),
    (["--alpha-s", "0.05", "--method", "asymptotic"], math.inf),
    # |V| underflows to 0, and the Stirling form's error is still unknown
    (["--alpha-s", "0.05", "--n", "1000", "--method", "asymptotic"],
     math.inf),
])
def test_large_n_error_column_without_a_rounding_bound(tmp_path, args,
                                                        error):
    out = tmp_path / "ln.csv"
    n = [] if "--n" in args else ["--n", "4"]
    assert main(["large-n", *n, *args, "--separation", "8.0",
                 "--out", str(out)]) == EXIT_OK
    _, _, rows = read_csv(out)
    assert float(rows[0][2]) == error


def test_large_n_writes_every_finite_magnitude(tmp_path):
    out = tmp_path / "ln.csv"

    def row(alpha_s):
        assert main(["large-n", "--n", "2", "--alpha-s", alpha_s,
                     "--separation", "3", "--out", str(out)]) == EXIT_OK
        res = largen_potential_integral(LargeNParams(
            n=2, alpha_s=float(alpha_s), radius=1.0, separation=3.0))
        return res, [float(v) for v in read_csv(out)[2][0]]

    # ln|V| = 702.1: past a cut at 700, inside the doubles (709.78)
    res, cells = row("1.6e153")
    assert 700.0 < res.log_magnitude < math.log(np.finfo(float).max)
    assert math.isfinite(cells[1]) and cells[1] == res.magnitude
    assert cells[2] == res.magnitude * res.log_magnitude_error
    # ln|V| = 1401: |V| is no double, and magnitude says so without raising
    res, cells = row("1e305")
    assert res.log_magnitude > 1400.0 and res.magnitude == math.inf
    assert cells[1] == cells[2] == math.inf


def test_large_n_needs_exactly_one_n(tmp_path, capsys):
    assert main(["large-n", "--alpha-s", "0.05",
                 "--separation", "8.0"]) == EXIT_VALIDATION
    assert main(["large-n", "--n", "4", "--n-range", "3:6", "--alpha-s",
                 "0.05", "--separation", "8.0"]) == EXIT_VALIDATION


@pytest.mark.parametrize("args, field", [
    (["--n", "3", "--alpha-s", "nan"], "alpha_s"),
    (["--n", "3", "--alpha-s", "0.05", "--radius", "nan"], "radius"),
    (["--n", "3", "--alpha-s", "0.05", "--separation", "inf"],
     "separation"),
    (["--n-range", "5:3", "--alpha-s", "0.05"], "n-range"),
    (["--n-range", "3", "--alpha-s", "0.05"], "n-range"),
    (["--n-range", "3:x", "--alpha-s", "0.05"], "n-range"),
])
def test_large_n_rejects_bad_input_naming_it(tmp_path, capsys, args, field):
    out = tmp_path / "ln.csv"
    argv = ["large-n", "--separation", "8.0", *args, "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_large_n_integral_takes_n_past_the_old_cap(tmp_path):
    # the exact moments replaced a rule that ended at N = 353
    for n, want in ((["--n", "1000"], [1000]),
                    (["--n-range", "350:360"], list(range(350, 361)))):
        out = tmp_path / "ln.csv"
        assert main(["large-n", *n, "--alpha-s", "0.05", "--separation",
                     "8", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        assert [int(float(row[0])) for row in rows] == want
        for row in rows:
            assert math.isfinite(float(row[5]))
    assert main(["large-n", "--n", "1000", "--alpha-s", "0.05",
                 "--separation", "8", "--method", "asymptotic",
                 "--out", str(out)]) == EXIT_OK


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all pass" in out
    assert "FAIL" not in out
