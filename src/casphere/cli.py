"""Command-line surface: scene files, sweeps, CSV output, selfcheck.

Scene files are versioned JSON documents::

    {
      "schema_version": 1,
      "units": "R1",                  # lengths in first-sphere radii
      "length_unit_m": 1e-6,          # optional: meters per length unit
      "temperature_kelvin": 0.0,
      "l_max": 3,
      "background": {"model": "constant", "eps": 1.0},
      "spheres": [
        {"label": "a", "center": [0, 0, 0], "radius": 1.0,
         "permittivity": {"model": "constant", "eps": 2.6}},
        {"label": "b", "center": [0, 0, 4], "radius": 1.0,
         "permittivity": {"model": "constant", "eps": 2.6}}
      ],
      "spectral": {"n_nodes": 40}     # optional: n_nodes, matsubara_tail_tol
    }

``units: "SI"`` instead interprets every length as meters and rescales
internally to first-sphere radii (length_unit_m is then implied).
Permittivity models: ``constant`` (eps), ``drude-lorentz``
(oscillators: [[amplitude, resonance, damping], ...] in the scene's
frequency unit), ``tabulated`` (xi, eps arrays, log-linear
interpolation).

A ``--sweep`` moves one sphere along one axis (``sweep_points``); each
point is a scene of its own for ``force``, ``potential``, ``three-body``.
CSV columns are fixed: sweep parameter, F_x, F_y, F_z (or V),
error_estimate, L_max, n_freq, exponent_scale.  Header comments echo
every input needed to reproduce a row.  Potential-type values (``V``
column) are written in units of hbar c / 4 pi.  ``large-n`` writes |V|
in hbar c, with |V| times a rounding bound on ln|V| as its error (inf
for ``--method asymptotic``, whose normalization is unresolved); |V| is
inf only past the largest double.

Exit codes: 0 success; 2 scene/sweep validation; 3 numerical flag
(non-finite result, error estimate dominating the value, gradient
audit failure, selfcheck failure); 4 I/O failure.
"""

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .mie import (ConstantPermittivity, DrudeLorentzPermittivity,
                  TabulatedPermittivity)
from .scattering import (SceneConfig, SphereSpec, casimir_force,
                         interaction_energy, target_potential,
                         three_body_energy, three_body_force)
from .spectral import SpectralSettings

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

SCHEMA_VERSION = 1

_FORCE_COLUMNS = ("sweep_param", "F_x", "F_y", "F_z", "error_estimate",
                  "L_max", "n_freq", "exponent_scale")
_SCALAR_COLUMNS = ("sweep_param", "V", "error_estimate",
                   "L_max", "n_freq", "exponent_scale")
_FOUR_PI = 4.0 * math.pi   # V is written in hbar c / 4 pi
_DOMINATES = "error estimate dominates at least one row"


class SceneParseError(ValueError):
    """Scene document invalid; message names the offending field."""


# ---------------------------------------------------------------- scenes

def _number(value, where):
    """float(value), refusing JSON true/false (a bool is an int here)."""
    if isinstance(value, bool):
        raise SceneParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_permittivity(doc, where):
    if not isinstance(doc, dict) or "model" not in doc:
        raise SceneParseError(f"{where}: expected an object with a 'model'")
    model = doc["model"]
    try:
        if model == "constant":
            return ConstantPermittivity(_number(doc["eps"], where + ".eps"))
        if model == "drude-lorentz":
            osc = tuple(tuple(_number(x, where + ".oscillators") for x in row)
                        for row in doc["oscillators"])
            return DrudeLorentzPermittivity(osc)
        if model == "tabulated":
            return TabulatedPermittivity(
                *(tuple(_number(x, f"{where}.{key}") for x in doc[key])
                  for key in ("xi", "eps")))
    except SceneParseError:
        raise
    except KeyError as exc:
        raise SceneParseError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SceneParseError(f"{where}: {exc}") from exc
    raise SceneParseError(f"{where}.model: unknown model {model!r}")


def parse_scene(doc):
    """Validated SceneConfig from a decoded scene document."""
    if not isinstance(doc, dict):
        raise SceneParseError("scene: top level must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SceneParseError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    known = {"schema_version", "units", "length_unit_m",
             "temperature_kelvin", "l_max", "background", "spheres",
             "spectral"}
    for key in doc:
        if key not in known:
            raise SceneParseError(f"{key}: unknown scene field")
    units = doc.get("units", "R1")
    if units not in ("R1", "SI"):
        raise SceneParseError(f"units: expected 'R1' or 'SI', got {units!r}")
    raw = doc.get("spheres")
    if not isinstance(raw, list) or not raw:
        raise SceneParseError("spheres: expected a non-empty list")
    spheres = []
    for i, s in enumerate(raw):
        where = f"spheres[{i}]"
        try:
            spheres.append(SphereSpec(
                label=str(s["label"]),
                center=tuple(_number(c, where + ".center")
                             for c in s["center"]),
                radius=_number(s["radius"], where + ".radius"),
                permittivity=_parse_permittivity(
                    s["permittivity"], where + ".permittivity")))
        except SceneParseError:
            raise
        except KeyError as exc:
            raise SceneParseError(f"{where}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SceneParseError(f"{where}: {exc}") from exc
    length_unit_m = _number(doc.get("length_unit_m", 0.0), "length_unit_m")
    if units == "SI":
        if "length_unit_m" in doc:
            raise SceneParseError(
                "length_unit_m: implied by units='SI', do not set both")
        unit = spheres[0].radius
        length_unit_m = unit
        spheres = [replace(s, center=tuple(c / unit for c in s.center),
                           radius=s.radius / unit) for s in spheres]
    background = _parse_permittivity(
        doc.get("background", {"model": "constant", "eps": 1.0}),
        "background")
    spectral_doc = doc.get("spectral", {})
    if not isinstance(spectral_doc, dict):
        raise SceneParseError("spectral: expected an object")
    try:
        spectral = SpectralSettings(**spectral_doc)
    except (TypeError, ValueError) as exc:
        raise SceneParseError(f"spectral: {exc}") from exc
    try:
        return SceneConfig(
            spheres=tuple(spheres),
            background=background,
            l_max=doc.get("l_max", 3),
            temperature_kelvin=_number(doc.get("temperature_kelvin", 0.0),
                                       "temperature_kelvin"),
            length_unit_m=length_unit_m,
            spectral=spectral)
    except ValueError as exc:
        raise SceneParseError(str(exc)) from exc


def load_scene(path):
    """Parse and validate a scene file; raises SceneParseError/OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneParseError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_scene(doc)


# ---------------------------------------------------------------- sweeps

def sweep_points(scene, text):
    """[(param, scene with one sphere moved)] along the --sweep text
    label:axis:start:stop:n_points[:spacing]; the whole path is
    checked before it is returned, and every message names --sweep."""
    parts = text.split(":")
    if len(parts) not in (5, 6):
        raise ValueError(
            "--sweep syntax: label:axis:start:stop:n_points[:spacing]")
    label, axis, start, stop, n_points, spacing = (parts + ["linear"])[:6]
    try:
        start, stop, n_points = float(start), float(stop), int(n_points)
    except ValueError:
        raise ValueError("--sweep needs numbers for start and stop and an "
                         f"integer n_points, got {text!r}") from None
    for bad, needs in (
            (not math.isfinite(stop - start),
             "a finite start, stop and stop - start"),
            (axis not in ("x", "y", "z"), f"axis x, y or z, got {axis!r}"),
            (not start < stop, "start < stop"),
            (n_points < 2, "n_points >= 2"),
            (spacing not in ("linear", "log"),
             f"spacing linear or log, got {spacing!r}"),
            (spacing == "log" and start <= 0.0, "start > 0 for log spacing"),
            (label not in [s.label for s in scene.spheres],
             f"the label of a sphere, got {label!r}")):
        if bad:
            raise ValueError(f"--sweep needs {needs}")
    space = np.geomspace if spacing == "log" else np.linspace
    base = scene.spheres[scene.index_of(label)].center_array
    out = []
    for value in space(start, stop, n_points):
        center = base.copy()
        center["xyz".index(axis)] = value
        try:
            out.append((float(value), scene.moved(label, center)))
        except ValueError as exc:
            raise ValueError(f"--sweep point {label}:{axis}={value:g}: "
                             f"{exc}") from None
    return out


# ------------------------------------------------------------ CSV output

def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(out, comments, columns, rows):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _echo_comments(args, scene):
    skip = {"func", "out"}
    bits = []
    for key in sorted(vars(args)):
        if key in skip or vars(args)[key] is None:
            continue
        bits.append(f"{key}={vars(args)[key]}")
    return [f"casphere {__version__}", " ".join(bits),
            f"scene: l_max={scene.l_max} T={scene.temperature_kelvin}K "
            f"spheres={[(s.label, s.center, s.radius) for s in scene.spheres]}",
            "V in hbar*c/(4 pi), F in hbar*c per length unit squared"]


def _flagged(value, error):
    v = np.max(np.abs(np.atleast_1d(value)))
    e = np.max(np.abs(np.atleast_1d(error)))
    return (not np.all(np.isfinite(np.atleast_1d(value)))) \
        or (v > 0.0 and e > 0.5 * v) or (v == 0.0 and e > 1e-12)


# ------------------------------------------------------------ subcommands

def _parse_order(text):
    """fixed_k for --order: None for 'resummed', else k in 2..4."""
    choices = ("resummed", "2", "3", "4")
    if text not in choices:
        raise ValueError(f"--order must be one of {', '.join(choices)}, "
                         f"got {text!r}")
    return None if text == "resummed" else int(text)


def _gradient_audit(scene, rel_tol=1e-6):
    """FD-vs-analytic check on every pair gradient at the peak frequency."""
    from .scattering import _decay_scale, _materials
    from .translation import gradient_fd_check
    xi_ref = 1.0 / _decay_scale(scene)
    kappa, _ = _materials(scene, xi_ref)
    worst = 0.0
    for si, sj in itertools.combinations(scene.spheres, 2):
        d = si.center_array - sj.center_array
        worst = max(worst, gradient_fd_check(scene.basis, kappa, d))
    return worst, worst <= rel_tol


def _points(args):
    """(scene, [(param, scene)]): the scene file with --lmax and
    --temperature applied, and its --sweep points or itself at 0;
    a --target that names no sphere of the scene is refused."""
    scene = load_scene(args.scene)
    labels = [s.label for s in scene.spheres]
    if args.target not in labels:
        raise ValueError(f"--target needs the label of a sphere "
                         f"({', '.join(labels)}), got {args.target!r}")
    if args.lmax is not None:
        scene = replace(scene, l_max=args.lmax)
    if args.temperature is not None:
        scene = replace(scene, temperature_kelvin=args.temperature)
    if args.sweep:
        return scene, sweep_points(scene, args.sweep)
    return scene, [(0.0, scene)]


def _emit(args, scene, columns, rows, flag):
    """Write the CSV, then exit 3 with the flag's message when it is set."""
    _write_rows(args.out, _echo_comments(args, scene), columns, rows)
    if flag:
        print(f"numerical flag: {flag}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _force_row(param, res):
    return (param, *(float(f) for f in res.force), float(np.max(res.error)),
            res.l_max, res.n_freq, res.exponent_scale)


def run_force(args):
    scene, points = _points(args)
    fixed_k = _parse_order(args.order)
    rows, flagged = [], False
    for param, sc in points:
        if args.verify_gradient:
            worst, ok = _gradient_audit(sc)
            if not ok:
                print(f"gradient audit failed at sweep={param}: "
                      f"max rel error {worst:.2e}", file=sys.stderr)
                return EXIT_NUMERICAL
        res = casimir_force(sc, args.target, fixed_k=fixed_k)
        flagged |= _flagged(res.force, res.error)
        rows.append(_force_row(param, res))
    return _emit(args, scene, _FORCE_COLUMNS, rows,
                 _DOMINATES if flagged else None)


def run_potential(args):
    scene, points = _points(args)
    label = args.sweep.split(":")[0]
    if label != args.target:
        raise ValueError(f"potential moves the target: --sweep label "
                         f"{label!r} is not --target {args.target!r}")
    res = [target_potential(sc, args.target) for _, sc in points]
    rows = [(param, v * _FOUR_PI, err * _FOUR_PI, sc.l_max, n_freq, 0.0)
            for (param, sc), (v, err, n_freq) in zip(points, res)]
    # one flag over the whole sweep's values and errors
    v, err, _ = np.array(res).T
    return _emit(args, scene, _SCALAR_COLUMNS, rows,
                 _DOMINATES if _flagged(v, err) else None)


def run_three_body(args):
    scene, points = _points(args)
    rows, flagged = [], False
    for param, sc in points:
        if args.quantity == "force":
            res = three_body_force(sc, args.target)
            flagged |= not np.all(np.isfinite(res.force))
            rows.append(_force_row(param, res))
        else:
            val, err, n_freq = three_body_energy(sc)
            flagged |= not math.isfinite(val)
            rows.append((param, val * _FOUR_PI, err * _FOUR_PI, sc.l_max,
                         n_freq, 0.0))
    columns = _FORCE_COLUMNS if args.quantity == "force" else _SCALAR_COLUMNS
    return _emit(args, scene, columns, rows,
                 "non-finite three-body result" if flagged else None)


def run_large_n(args):
    from .largen import (LargeNParams, largen_asymptotic,
                         largen_potential_integral)
    if args.n_range:
        match = re.fullmatch(r"(\d+):(\d+)", args.n_range)
        if match is None or int(match[1]) > int(match[2]):
            raise ValueError("--n-range must be lo:hi with integers "
                             f"lo <= hi, got {args.n_range!r}")
        ns = range(int(match[1]), int(match[2]) + 1)
    else:
        ns = [args.n]
    rows = []
    for n in ns:
        params = LargeNParams(n=n, alpha_s=args.alpha_s, radius=args.radius,
                              separation=args.separation)
        if args.method == "asymptotic":
            res = largen_asymptotic(params)
        else:
            res = largen_potential_integral(params)
        # |V| times the bound on the error of ln|V|: rounding for the
        # integral, inf for the Stirling form, 0 when alpha_S = 0
        err = res.log_magnitude_error
        err = res.magnitude * err if math.isfinite(err) else math.inf
        rows.append((float(n), res.magnitude, err, 1, 0, res.log_magnitude))
    comments = [f"casphere {__version__}",
                f"large-n method={args.method} alpha_s={args.alpha_s} "
                f"radius={args.radius} separation={args.separation}",
                "V column is |V| in hbar*c units; sign alternates as "
                "(-1)^N with unresolved overall orientation",
                "exponent_scale column carries ln|V| (log-domain value)"]
    _write_rows(args.out, comments, _SCALAR_COLUMNS, rows)
    return EXIT_OK


def _selfcheck_rows():
    from .basis import BasisSpec
    from .rotation import rotate_block
    from .specfun import mod_sph_bessel, mod_sph_bessel_dx
    from .translation import (KIND_OUTGOING, gradient_fd_check,
                              translation_matrix, translation_matrix_direct)
    rows = []

    def add(name, err, tol):
        rows.append((name, err, tol, "pass" if err <= tol else "FAIL"))

    # Wronskian of the radial pair: i_l e_l' - e_l i_l' = (-1)^(l+1)/x^2;
    # the scaled tables' e^{-x} and e^{+x} cancel in each product
    l = np.arange(6)
    worst = 0.0
    for x in (0.3, 2.0, 17.0):
        i_v, i_d = mod_sph_bessel("i", l, x), mod_sph_bessel_dx("i", l, x)
        e_v, e_d = mod_sph_bessel("e", l, x), mod_sph_bessel_dx("e", l, x)
        want = (-1.0) ** (l + 1) / x ** 2
        worst = max(worst, np.max(np.abs(i_v * e_d - e_v * i_d - want)
                                  / np.abs(want)))
    add("radial Wronskian", worst, 1e-11)

    basis = BasisSpec(2)
    rng = np.random.default_rng(12345)
    d = rng.normal(size=3)
    a = translation_matrix(basis, KIND_OUTGOING, 0.9, d)
    b = translation_matrix_direct(basis, KIND_OUTGOING, 0.9, d)
    add("translation dual route", float(np.abs(a - b).max()), 1e-11)
    add("translation gradient vs finite differences",
        gradient_fd_check(basis, 0.9, d), 1e-8)

    rot = rotate_block(basis, 0.5, 1.1, -0.3)
    add("rotation orthogonality",
        float(np.abs(rot @ rot.T - np.eye(basis.size)).max()), 1e-12)

    eps = ConstantPermittivity(2.6)
    sc = SceneConfig(spheres=(SphereSpec("a", (0, 0, 0), 1.0, eps),
                              SphereSpec("b", (0, 0, 4.0), 1.0, eps)),
                     l_max=2)
    fa = casimir_force(sc, "a", truncation_error=False).force
    fb = casimir_force(sc, "b", truncation_error=False).force
    add("Newton third law", float(np.abs(fa + fb).max()
                                  / np.abs(fb).max()), 1e-11)

    eps_d = ConstantPermittivity(1.01)
    sd = SceneConfig(spheres=(SphereSpec("a", (0, 0, 0), 0.01, eps_d),
                              SphereSpec("b", (0, 0, 1.0), 0.01, eps_d)),
                     l_max=1)
    e_num, _, _ = interaction_energy(sd)
    alpha = 0.01 ** 3 * (1.01 - 1.0) / (1.01 + 2.0)
    e_cp = -23.0 * alpha * alpha / (4.0 * math.pi)
    add("dipole limit vs closed form", abs(e_num / e_cp - 1.0), 1e-2)

    f_an = casimir_force(sc, "b", truncation_error=False).force[2]
    h = 4.0e-3
    e_p, _, _ = interaction_energy(sc.moved("b", (0, 0, 4.0 + h)))
    e_m, _, _ = interaction_energy(sc.moved("b", (0, 0, 4.0 - h)))
    add("force vs -dE/dd", abs(-(e_p - e_m) / (2 * h) / f_an - 1.0), 1e-3)
    return rows


def run_selfcheck(args):
    rows = _selfcheck_rows()
    width = max(len(r[0]) for r in rows)
    ok = True
    for name, err, tol, status in rows:
        ok &= status == "pass"
        print(f"{name:<{width}}  {err:12.3e}  (tol {tol:.0e})  {status}")
    print("selfcheck:", "all pass" if ok else "FAILURES")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------- parser

def _add_common(p, sweep_required=False):
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--target", required=True,
                   help="label of the sphere the result refers to")
    p.add_argument("--sweep", required=sweep_required, default=None,
                   help="label:axis:start:stop:n_points[:spacing]")
    p.add_argument("--lmax", type=int, default=None,
                   help="override the scene's multipole cutoff")
    p.add_argument("--temperature", type=float, default=None,
                   help="override the scene's temperature (kelvin)")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="casphere",
        description="Casimir forces between dielectric spheres by "
                    "multiple scattering")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("force", help="force on a target sphere")
    _add_common(p)
    p.add_argument("--order", default="resummed",
                   help="'resummed' or a fixed scattering order 2..4")
    p.add_argument("--verify-gradient", action="store_true",
                   help="audit analytic translation gradients against "
                        "finite differences at every sweep point")
    p.set_defaults(func=run_force)

    p = sub.add_parser("potential",
                       help="interaction energy of the target, relative "
                            "to infinity, along a --sweep of the target")
    _add_common(p, sweep_required=True)
    p.set_defaults(func=run_potential)

    p = sub.add_parser("three-body",
                       help="non-additive three-sphere remainder")
    _add_common(p)
    p.add_argument("--quantity", choices=("potential", "force"),
                   default="potential")
    p.set_defaults(func=run_three_body)

    p = sub.add_parser("large-n", help="large-N weak-coupling estimate")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-range", default=None, help="lo:hi inclusive")
    p.add_argument("--alpha-s", type=float, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--separation", type=float, required=True)
    p.add_argument("--method", choices=("integral", "asymptotic"),
                   default="integral")
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_large_n)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p.set_defaults(func=run_selfcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "large-n" and (args.n is None) == (args.n_range is None):
        print("large-n: give exactly one of --n or --n-range",
              file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except (SceneParseError, ValueError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, OverflowError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
