"""Analytic translation gradients against finite differences.

The analytic route takes the transverse components from commutators of
the axial operator with the rotation generators and the axial one from
radial derivatives; the reference route Richardson-differences the value
operator.  They share the axial operator and the rotations, not the
derivatives.  A second reference differentiates the angular series at a
general direction term by term.
"""

import math

import numpy as np
import pytest

from casphere import translation as tr
from casphere.basis import BasisSpec, to_real_basis
from casphere.specfun import mod_sph_bessel, sph_harm
from casphere.translation import (KIND_OUTGOING, KIND_REGULAR,
                                  _gradient_stack, axial_translation,
                                  gradient_fd_check, translation_gradient)


def _angular_series_gradient(basis, kind, kappa, dvec):
    """The angular series at a general d^, differentiated term by term:
    grad [Z_p Y_pq] = kappa sum u^(p')_q'(p, q) Z_p' Y_{p', q+q'}."""
    dist = float(np.linalg.norm(dvec))
    theta = math.acos(dvec[2] / dist)
    phi = math.atan2(dvec[1], dvec[0])
    tab_mm, tab_mn = tr._build_tables(basis.l_max)
    p_max = tab_mm.p_max
    z = mod_sph_bessel(kind, np.arange(p_max + 2), kappa * dist, scaled=True)
    y = sph_harm(np.arange(p_max + 2)[:, None],
                 np.arange(-p_max - 1, p_max + 2), theta, phi)
    glut = np.zeros((3, p_max + 1, 2 * p_max + 1), dtype=complex)
    for p in range(p_max + 1):
        for q in range(-p, p + 1):
            for p_to in (p - 1, p + 1):
                for qs in (-1, 0, 1):
                    if p_to >= 0:
                        zy = z[p_to] * y[p_to, q + qs + p_max + 1]
                        glut[:, p, q + p_max] += \
                            kappa * tr._u_vec(p, q, p_to, qs) * zy
    ds = basis.scalar_size
    out = []
    for g in glut:
        mm, mn = (tr._contract(t, g, ds, p_max) for t in (tab_mm, tab_mn))
        out.append(to_real_basis(np.block([[mm, mn], [-mn, mm]]),
                                 basis.l_max))
    return np.array(out)


def test_rotated_axial_gradient_matches_the_angular_series():
    rng = np.random.default_rng(23)
    dirs = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0],
            [0, -1, 0]] + rng.normal(size=(4, 3)).tolist()
    for l_max in (1, 2, 3, 4):
        basis = BasisSpec(l_max)
        for kind in (KIND_OUTGOING, KIND_REGULAR):
            for u in dirs:
                dvec = 2.7 * np.array(u, dtype=float) / np.linalg.norm(u)
                _, grad = _gradient_stack(basis, kind, 0.8, dvec)
                ref = _angular_series_gradient(basis, kind, 0.8, dvec)
                dev = np.abs(grad - ref).max() / np.abs(ref).max()
                assert dev < 1e-12, (l_max, kind, u, dev)


def test_random_displacements_match_finite_differences():
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(20):
        l_max = int(rng.integers(1, 4))
        kappa = float(rng.uniform(0.3, 2.0))
        dvec = rng.uniform(-3.0, 3.0, size=3)
        dvec *= (1.5 + rng.uniform(0.0, 2.0)) / np.linalg.norm(dvec)
        cases.append((l_max, kappa, dvec, KIND_OUTGOING))
    # -z^ gives beta = pi and the alpha = 0 fallback of axis_euler_angles;
    # +-x^ and +-y^ give beta = pi/2 with alpha = 0, pi and +-pi/2
    for dvec in ([0.0, 0.0, -2.2], [2.2, 0.0, 0.0], [-2.2, 0.0, 0.0],
                 [0.0, 2.2, 0.0], [0.0, -2.2, 0.0]):
        for kind in (KIND_OUTGOING, KIND_REGULAR):
            cases.append((3, 0.9, np.array(dvec), kind))
    for l_max in (4, 5):
        for kind in (KIND_OUTGOING, KIND_REGULAR):
            cases.append((l_max, 0.7, np.array([1.1, -2.0, 1.6]), kind))
    for l_max, kappa, dvec, kind in cases:
        dev = gradient_fd_check(BasisSpec(l_max), kappa, dvec,
                                kind=kind)
        assert dev < 1e-8, (l_max, kappa, dvec, kind, dev)


def test_regular_kind_matches_finite_differences():
    basis = BasisSpec(2)
    dev = gradient_fd_check(basis, 0.8, [0.7, -1.1, 0.9],
                            kind=KIND_REGULAR)
    assert dev < 1e-8


def test_on_axis_gradient():
    basis = BasisSpec(3)
    assert gradient_fd_check(basis, 1.0, [0.0, 0.0, 2.0]) < 1e-7
    # transverse components on the axis only move |m'-m| = 1 entries;
    # wherever the axial operator is nonzero (m' = +-m) they vanish
    gx, gy, gz = translation_gradient(basis, KIND_OUTGOING, 1.0,
                                      [0.0, 0.0, 2.0])
    mask = axial_translation(basis, KIND_OUTGOING, 1.0, 2.0) != 0.0
    assert np.abs(gx[mask]).max() == 0.0
    assert np.abs(gy[mask]).max() == 0.0
    assert np.abs(gz[mask]).max() > 0.0


def test_far_field_gradient_is_minus_kappa_times_value():
    # outgoing entries decay like e^{-kappa d} times a power, so the
    # radial gradient approaches -kappa * A with O(1/(kappa d)) error
    basis = BasisSpec(2)

    def worst_ratio(d):
        val = axial_translation(basis, KIND_OUTGOING, 1.0, d)
        gz = translation_gradient(basis, KIND_OUTGOING, 1.0,
                                  [0.0, 0.0, d])[2]
        mask = np.abs(val) > 1e-3 * np.abs(val).max()
        return np.abs(gz[mask] / val[mask] + 1.0).max()

    r60, r120 = worst_ratio(60.0), worst_ratio(120.0)
    assert r60 < 3.0 / 60.0
    assert r120 < 3.0 / 120.0
    assert r120 < r60


def test_gradient_rejects_zero_displacement():
    basis = BasisSpec(1)
    with pytest.raises(ValueError):
        translation_gradient(basis, KIND_OUTGOING, 1.0, [0.0, 0.0, 0.0])
