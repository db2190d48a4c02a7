"""Command-line interface: scene parsing, sweeps, CSV output, exit codes."""

import json
import math
import re

import numpy as np
import pytest

import casphere
from casphere.cli import (EXIT_IO, EXIT_OK, EXIT_VALIDATION, SceneParseError,
                          main, parse_scene, parse_sweep, sweep_scenes)
from casphere.largen import LargeNParams, largen_potential_integral
from casphere.mie import DrudeLorentzPermittivity
from casphere.scattering import interaction_energy, three_body_energy


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


def test_parse_sweep():
    sw = parse_sweep("b:z:3.0:8.0:11")
    assert (sw.label, sw.axis, sw.n_points, sw.spacing) == ("b", "z", 11,
                                                            "linear")
    assert parse_sweep("b:z:3.0:8.0:11:log").spacing == "log"
    assert np.allclose(parse_sweep("b:z:2:8:4:log").values(),
                       np.geomspace(2, 8, 4))
    for bad in ("b:w:3:8:11", "b:z:8:3:11", "b:z:3:8:1", "b:z:3:8:4:fancy",
                "b:z:3:8", "b:z:-1:8:4:log"):
        with pytest.raises(ValueError):
            parse_sweep(bad)


def test_sweep_scenes_moves_one_sphere():
    scene = parse_scene(scene_doc())
    points = sweep_scenes(scene, parse_sweep("b:z:3.0:5.0:3"))
    assert [p for p, _ in points] == [3.0, 4.0, 5.0]
    assert points[2][1].spheres[1].center == (0.0, 0.0, 5.0)
    assert points[2][1].spheres[0].center == scene.spheres[0].center


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
    (scene_doc(l_max=3.5), "l_max", []),
    (scene_doc(), "l_max", ["--lmax", "31"]),
    (scene_doc(spectral={"n_matsubara_max": 0}, temperature_kelvin=293.0,
               length_unit_m=1e-7), "n_matsubara_max", []),
    (scene_doc(spectral={"xi_eps": -0.001}), "xi_eps", []),
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
        "adaptive-removed", "lmax-fractional", "lmax-over-cap",
        "matsubara-max-zero", "xi-eps-negative", "tail-tol-nan",
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
    path = scene_file(tmp_path, scene_doc())
    assert main(["force", "--scene", path,
                 "--target", "zz"]) == EXIT_VALIDATION


def test_bad_order_is_validation_error(tmp_path):
    path = scene_file(tmp_path, scene_doc())
    assert main(["force", "--scene", path, "--target", "b",
                 "--order", "7"]) == EXIT_VALIDATION


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
    points = sweep_scenes(parse_scene(scene_doc()),
                          parse_sweep("b:z:3.5:9.0:12:log"))
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
        assert float(row[5]) == pytest.approx(want.log_magnitude, rel=1e-12)


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


def test_large_n_integral_rejects_n_past_its_rule(tmp_path, capsys):
    out = tmp_path / "ln.csv"
    for n in (["--n", "1000"], ["--n-range", "350:360"]):
        assert main(["large-n", *n, "--alpha-s", "0.05", "--separation",
                     "8", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "n = " in err and "--method asymptotic" in err
        assert not out.exists()
    assert main(["large-n", "--n", "1000", "--alpha-s", "0.05",
                 "--separation", "8", "--method", "asymptotic",
                 "--out", str(out)]) == EXIT_OK


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all pass" in out
    assert "FAIL" not in out
