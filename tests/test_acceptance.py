"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict
lines; each test also enforces its tolerance and runtime budget.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from casphere.cli import EXIT_OK, main
from casphere.constants import HBAR_C, K_BOLTZMANN
from casphere.largen import (LargeNParams, largen_asymptotic,
                             largen_crosscheck)
from casphere.mie import ConstantPermittivity
from casphere.scattering import (SceneConfig, SphereSpec, casimir_force,
                                 interaction_energy, logdet_energy_oracle,
                                 three_body_energy, three_body_force)
from casphere.spectral import SpectralSettings, integrate_zero_t
from casphere.translation import gradient_fd_check
from casphere.basis import BasisSpec

_POOL = ThreadPoolExecutor(max_workers=8)
MAP = _POOL.map
FAST = SpectralSettings(n_nodes=24)


def verdict(num, name, ok, detail, t0):
    line = (f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - "
            f"{detail} [{time.time() - t0:.1f}s]")
    print(line, flush=True)
    return line


def pair_scene(d, l_max, eps=2.6, radius=1.0, spectral=FAST, **kw):
    model = ConstantPermittivity(eps)
    return SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), radius, model),
                 SphereSpec("b", (0.0, 0.0, d), radius, model)),
        l_max=l_max, spectral=spectral, **kw)


def test_criterion_1_dipole_limit():
    t0 = time.time()
    scene = pair_scene(1.0, 1, eps=1.01, radius=0.01,
                       spectral=SpectralSettings())
    energy, _, _ = interaction_energy(scene)
    alpha = 0.01 ** 3 * (1.01 - 1.0) / (1.01 + 2.0)
    closed = -23.0 * alpha * alpha / (4.0 * math.pi)
    ratio = energy / closed
    elapsed = time.time() - t0
    ok = 0.99 <= ratio <= 1.01 and elapsed < 10.0
    line = verdict(1, "dipole limit", ok,
                   f"E/E_dipole = {ratio:.6f} in [0.99, 1.01]", t0)
    assert ok, line


def test_criterion_2_force_equals_energy_oracle_derivative():
    t0 = time.time()
    d, h = 6.0, 6.0e-3
    scene = pair_scene(d, 2, spectral=SpectralSettings())
    force = casimir_force(scene, "b", truncation_error=False).force[2]

    def energy_at(dd):
        s = pair_scene(dd, 2, spectral=SpectralSettings())
        val, _ = integrate_zero_t(
            lambda xi: logdet_energy_oracle(s, xi) / (2.0 * math.pi),
            2.0 * s.min_gap)
        return val

    fd = -(energy_at(d + h) - energy_at(d - h)) / (2.0 * h)
    rel = abs(force - fd) / abs(fd)
    elapsed = time.time() - t0
    ok = rel <= 1e-3 and elapsed < 30.0
    line = verdict(2, "force vs dE/dd oracle", ok,
                   f"rel diff {rel:.2e} <= 1e-3", t0)
    assert ok, line


def test_criterion_3_newtons_third_law_random_scenes():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5):
        r1, r2 = rng.uniform(0.5, 1.2, size=2)
        gap = rng.uniform(0.5, 3.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        center = tuple((r1 + r2 + gap) * direction)
        scene = SceneConfig(
            spheres=(SphereSpec("a", (0.0, 0.0, 0.0), r1,
                                ConstantPermittivity(rng.uniform(1.5, 4.0))),
                     SphereSpec("b", center, r2,
                                ConstantPermittivity(rng.uniform(1.5, 4.0)))),
            l_max=2, spectral=FAST)
        fa = casimir_force(scene, "a", truncation_error=False).force
        fb = casimir_force(scene, "b", truncation_error=False).force
        worst = max(worst, float(np.abs(fa + fb).max()
                                 / np.abs(fa).max()))
    ok = worst <= 1e-10
    line = verdict(3, "Newton's third law", ok,
                   f"max |F_a+F_b|/|F_a| = {worst:.2e} <= 1e-10 "
                   "over 5 random scenes", t0)
    assert ok, line


def test_criterion_4_separation_sweep_and_truncation():
    t0 = time.time()
    seps = np.linspace(3.0, 10.0, 50)
    fz3 = np.array([casimir_force(pair_scene(d, 3), "b",
                                  truncation_error=False).force[2]
                    for d in seps])
    attractive = bool(np.all(fz3 < 0.0))
    monotone = bool(np.all(np.diff(np.abs(fz3)) < 0.0))
    far = seps >= 4.0
    fz4 = np.array([casimir_force(pair_scene(d, 4), "b",
                                  truncation_error=False).force[2]
                    for d in seps[far]])
    rel = np.abs(fz4 / fz3[far] - 1.0)
    trunc = float(rel.max())
    worst_d = float(seps[far][int(np.argmax(rel))])
    elapsed = time.time() - t0
    ok = attractive and monotone and trunc < 0.01 and elapsed < 300.0
    line = verdict(4, "two-sphere sweep", ok,
                   f"50 pts attractive={attractive} monotone={monotone}, "
                   f"max L3-vs-L4 rel {trunc:.2e} at d={worst_d:.2f} "
                   "(bound 1e-2 for d >= 4R)", t0)
    assert ok, line


def test_criterion_5_three_body_grid():
    t0 = time.time()
    eps_s = ConstantPermittivity(2.6)
    background = ConstantPermittivity(2.2)

    def scene_with_probe(x, z):
        return SceneConfig(
            spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, eps_s),
                     SphereSpec("b", (0.0, 0.0, 10.0), 1.0, eps_s),
                     SphereSpec("c", (x, 0.0, z), 1.0, eps_s)),
            background=background, l_max=1,
            temperature_kelvin=293.0, length_unit_m=1e-6)

    xs = np.linspace(3.0, 12.0, 20)
    zs = np.linspace(0.5, 9.5, 20)     # mirror-symmetric about z = 5

    def column(x):
        return [three_body_energy(scene_with_probe(x, z))[0] for z in zs]

    grid = np.array(list(MAP(column, xs)))
    finite = bool(np.all(np.isfinite(grid)))
    # the scene is symmetric under z -> 10 - z; compare against the
    # grid's overall scale since the field spans orders of magnitude
    asym = float(np.abs(grid - grid[:, ::-1]).max())
    mirror = asym <= 1e-5 * float(np.abs(grid).max())
    # smooth: no more than 3 slope reversals along any grid line
    def reversals(line):
        s = np.sign(np.diff(line))
        return int(np.sum(s[1:] * s[:-1] < 0.0))

    max_rev = max(max(reversals(row) for row in grid),
                  max(reversals(col) for col in grid.T))
    smooth = max_rev <= 3
    far = three_body_force(scene_with_probe(100.0, 5.0), "c")
    negligible = bool(np.all(np.abs(far.force) <= far.error))
    elapsed = time.time() - t0
    ok = finite and mirror and smooth and negligible and elapsed < 600.0
    line = verdict(5, "three-body grid", ok,
                   f"20x20 grid finite={finite} mirror={mirror} "
                   f"reversals<={max_rev}, |F3(100R)| <= error: "
                   f"{negligible}", t0)
    assert ok, line


def test_criterion_6_matsubara_continuity():
    t0 = time.time()
    d, unit = 5.0, 1e-6
    t_reduced = 0.05 / (2.0 * math.pi * d)    # xi_1 d = 0.05
    t_kelvin = t_reduced * HBAR_C / (K_BOLTZMANN * unit)
    warm = pair_scene(d, 2, temperature_kelvin=t_kelvin, length_unit_m=unit)
    cold = pair_scene(d, 2)
    fw = casimir_force(warm, "b", truncation_error=False)
    fc = casimir_force(cold, "b", truncation_error=False)
    rel = abs(fw.force[2] / fc.force[2] - 1.0)
    ok = rel <= 5e-3
    line = verdict(6, "Matsubara continuity", ok,
                   f"T = {t_kelvin:.2f} K (xi_1 d = 0.05, n = {fw.n_freq}): "
                   f"finite-T vs T=0 rel {rel:.2e} <= 5e-3", t0)
    assert ok, line


def test_criterion_7_large_n_power_laws():
    t0 = time.time()
    worst = 0.0
    for n in (5, 17, 40):
        base = LargeNParams(n=n, alpha_s=0.05, radius=1.0, separation=6.0)
        up_s = LargeNParams(n=n, alpha_s=0.05, radius=1.0, separation=12.0)
        up_a = LargeNParams(n=n, alpha_s=0.10, radius=1.0, separation=6.0)
        ds = (largen_asymptotic(up_s).log_magnitude
              - largen_asymptotic(base).log_magnitude)
        da = (largen_asymptotic(up_a).log_magnitude
              - largen_asymptotic(base).log_magnitude)
        worst = max(worst,
                    abs(ds / (-(1.0 + 3.0 * n) * math.log(2.0)) - 1.0),
                    abs(da / (n * math.log(2.0)) - 1.0))
    exact = worst <= 1e-12
    report = largen_crosscheck(3)
    ring = report.exponent_rel_error <= 0.1
    ok = exact and ring
    line = verdict(7, "large-N power laws", ok,
                   f"rescaling exponents exact to {worst:.1e}; N=3 ring "
                   f"s-exponent {report.exponent_fit:.3f} vs -10 "
                   f"(rel {report.exponent_rel_error:.1e} <= 0.1)", t0)
    assert ok, line


def test_criterion_8_gradient_audit():
    t0 = time.time()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(20):
        l_max = int(rng.integers(1, 4))
        kappa = float(rng.uniform(0.3, 2.0))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        d = float(rng.uniform(1.5, 4.0)) * direction
        worst = max(worst, gradient_fd_check(BasisSpec(l_max),
                                             kappa, d))
    ok = worst <= 1e-8
    line = verdict(8, "gradient audit", ok,
                   f"max rel dev {worst:.2e} <= 1e-8 over 20 random "
                   "displacements, L <= 3", t0)
    assert ok, line


def test_criterion_9_csv_determinism(tmp_path):
    t0 = time.time()
    doc = {"schema_version": 1, "l_max": 1, "spheres": [
        {"label": "a", "center": [0, 0, 0], "radius": 1.0,
         "permittivity": {"model": "constant", "eps": 2.6}},
        {"label": "b", "center": [0, 0, 3.5], "radius": 1.0,
         "permittivity": {"model": "constant", "eps": 2.6}}]}
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.csv"
        code = main(["force", "--scene", str(scene_path), "--target", "b",
                     "--sweep", "b:z:3.0:5.0:3", "--out", str(out)])
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    line = verdict(9, "CSV determinism", ok,
                   f"{len(outputs[0])} bytes identical over two runs", t0)
    assert ok, line
