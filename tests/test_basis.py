"""Basis bookkeeping: dimension counting, index bijection, real-m map."""

import numpy as np
import pytest

from casphere.basis import (POL_TE, POL_TM, BasisSpec, basis_enumerate,
                            real_combination_matrix, to_real_basis)


def test_dimension_counting():
    assert basis_enumerate(1).size == 6
    assert basis_enumerate(3).size == 30
    for lm in range(1, 8):
        assert basis_enumerate(lm).size == 2 * lm * (lm + 2)


def test_index_round_trip_is_identity():
    for lm in (1, 2, 5):
        basis = basis_enumerate(lm)
        labels = basis.labels()
        assert len(labels) == basis.size
        for pos, (pol, l, m) in enumerate(labels):
            assert basis.index(pol, l, m) == pos


def test_index_order_is_pol_major():
    basis = basis_enumerate(2)
    assert basis.index(POL_TE, 1, -1) == 0
    assert basis.index(POL_TM, 1, -1) == basis.scalar_size
    assert basis.scalar_index(2, 2) == basis.scalar_size - 1


def test_index_bounds_raise():
    basis = basis_enumerate(2)
    with pytest.raises(ValueError):
        basis.index(POL_TE, 3, 0)
    with pytest.raises(ValueError):
        basis.index(POL_TE, 1, 2)
    with pytest.raises(ValueError):
        basis.index(2, 1, 0)
    for bad in (0, 3.5, 30):
        with pytest.raises(ValueError, match="l_max"):
            BasisSpec(bad)
    with pytest.raises(ValueError, match="l_max"):
        basis_enumerate(3.5)


def test_real_combination_matrix_is_unitary():
    for lm in (1, 3):
        c = real_combination_matrix(lm)
        d = 2 * lm * (lm + 2)
        assert c.shape == (d, d)
        assert np.abs(c @ c.conj().T - np.eye(d)).max() < 1e-14


def test_to_real_basis_rejects_inconsistent_operator():
    lm = 1
    rng = np.random.default_rng(0)
    block = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    with pytest.raises(ValueError):
        to_real_basis(block, lm)


def test_to_real_basis_round_trip():
    # a diagonal (m-degenerate) operator is unchanged by the basis change
    lm = 2
    d = 2 * lm * (lm + 2)
    basis = basis_enumerate(lm)
    diag = np.zeros(d)
    for pos, (pol, l, m) in enumerate(basis.labels()):
        diag[pos] = 10 * (pol + 1) + l
    out = to_real_basis(np.diag(diag).astype(complex), lm)
    assert np.abs(out - np.diag(diag)).max() < 1e-14
