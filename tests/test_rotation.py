"""Rotation operators against group identities and an independent oracle.

The independent route is scipy's Pade matrix exponential exp(-i beta J_y)
of the angular-momentum ladder matrix; the package diagonalizes the same
J_y once per l instead, so the two share the matrix, not the method.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from casphere.basis import basis_enumerate
from casphere.rotation import (axis_euler_angles, basis_rotation,
                               rotate_block, wigner_bigd_matrix,
                               wigner_d_matrix)


def d_matrix_expm(l, beta):
    """Wigner d^l(beta) as exp(-i beta J_y) in the |l m> basis."""
    dim = 2 * l + 1
    jy = np.zeros((dim, dim), dtype=complex)
    for m in range(-l, l):
        c = math.sqrt(l * (l + 1) - m * (m + 1))
        jy[m + 1 + l, m + l] += c / 2j
        jy[m + l, m + 1 + l] -= c / 2j
    return expm(-1j * beta * jy)


def test_zero_angles_identity():
    for lm in (1, 3):
        r = basis_rotation(basis_enumerate(lm), 0.0, 0.0, 0.0)
        assert np.abs(r - np.eye(r.shape[0])).max() < 1e-15


def test_composition_with_inverse_is_identity():
    basis = basis_enumerate(3)
    a, b, g = 0.63, 1.91, -2.3
    r = basis_rotation(basis, a, b, g)
    r_inv = basis_rotation(basis, -g, -b, -a)
    assert np.abs(r @ r_inv - np.eye(basis.size)).max() < 1e-12


def test_unitarity():
    basis = basis_enumerate(4)
    r = rotate_block(basis, 0.4, 2.2, 1.7)
    assert np.abs(r @ r.T - np.eye(basis.size)).max() < 1e-12
    u = basis_rotation(basis, 0.4, 2.2, 1.7)
    assert np.abs(u @ u.conj().T - np.eye(basis.size)).max() < 1e-12


def test_wigner_d_pi_about_y_closed_form():
    # d^l_{m'm}(pi) = (-1)^{l-m} delta_{m',-m}
    for l in (1, 2, 3):
        d = wigner_d_matrix(l, math.pi)
        want = np.zeros_like(d)
        for m in range(-l, l + 1):
            want[-m + l, m + l] = (-1.0) ** (l - m)
        assert np.abs(d - want).max() < 1e-12
    d1 = wigner_d_matrix(1, math.pi)
    assert np.abs(d1 - np.array([[0.0, 0.0, 1.0],
                                 [0.0, -1.0, 0.0],
                                 [1.0, 0.0, 0.0]])).max() < 1e-12


def test_wigner_d_matches_matrix_exponential_oracle():
    for l in (1, 2, 3, 4):
        for beta in (0.3, 0.7123, 2.9):
            got = wigner_d_matrix(l, beta)
            want = d_matrix_expm(l, beta)
            assert np.abs(want.imag).max() < 1e-12
            assert np.abs(got - want.real).max() < 1e-12


def test_rotations_stay_orthogonal_at_large_l_max():
    # a factorial-sum d^l loses orthogonality (4e-10 at l = 20), so that
    # 11 of these 36 rotations fail its real-basis check at l_max 18-20
    dirs = np.random.default_rng(7).normal(size=(12, 3))
    for l_max in (18, 19, 20):
        basis = basis_enumerate(l_max)
        for d in dirs:
            r = rotate_block(basis, *axis_euler_angles(d), 0.0)
            assert np.abs(r @ r.T - np.eye(basis.size)).max() < 1e-13


def test_wigner_d_matches_the_oracle_at_high_l():
    for l in (12, 29):
        got = wigner_d_matrix(l, 2.3)
        assert np.abs(got - d_matrix_expm(l, 2.3).real).max() < 1e-13


def test_wigner_bigd_phases():
    l = 2
    a, b, g = 0.8, 1.1, -0.5
    big = wigner_bigd_matrix(l, a, b, g)
    d = wigner_d_matrix(l, b)
    ms = np.arange(-l, l + 1)
    want = np.exp(-1j * a * ms)[:, None] * d * np.exp(-1j * g * ms)[None, :]
    assert np.abs(big - want).max() < 1e-14
    assert np.abs(big @ big.conj().T - np.eye(2 * l + 1)).max() < 1e-12


def test_rotate_block_is_block_diagonal_in_l():
    basis = basis_enumerate(2)
    r = rotate_block(basis, 0.9, 0.4, 1.3)
    labels = basis.labels()
    for i, (p1, l1, m1) in enumerate(labels):
        for j, (p2, l2, m2) in enumerate(labels):
            if p1 != p2 or l1 != l2:
                assert r[i, j] == 0.0


def test_rotate_block_is_cached_and_read_only():
    basis = basis_enumerate(2)
    r1 = rotate_block(basis, 0.9, 0.4, 1.3)
    r2 = rotate_block(basis, np.float64(0.9), 0.4, 1.3)
    assert not r1.flags.writeable
    assert np.array_equal(r1, r2)
    with pytest.raises(ValueError):
        r1[0, 0] = 2.0


def test_axis_euler_angles_aligns_displacement_with_z():
    for d in ([0.0, 0.0, 2.0], [1.0, -2.0, 0.5], [-0.3, 0.0, -1.1]):
        d = np.asarray(d)
        alpha, beta = axis_euler_angles(d)
        ca, sa, cb, sb = (math.cos(alpha), math.sin(alpha),
                          math.cos(beta), math.sin(beta))
        rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
        aligned = (rz @ ry) @ np.array([0.0, 0.0, 1.0])
        assert np.abs(aligned - d / np.linalg.norm(d)).max() < 1e-14
