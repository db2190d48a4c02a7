"""Rotation matrices on the spherical-wave basis.

Convention: for the active rotation R = Rz(alpha) Ry(beta) Rz(gamma) of
fields, the rotated harmonic expands as

    Y_lm(R^-1 x^) = sum_{m'} D^l_{m'm}(alpha, beta, gamma) Y_{lm'}(x^)

with D^l_{m'm} = exp(-i m' alpha) d^l_{m'm}(beta) exp(-i m gamma).
Vector waves M_lm, N_lm transform with the same D (the component
rotation is absorbed by their rotation-equivariant construction), so a
single block-diagonal matrix rotates the whole basis and commutes with
any sphere T-matrix.

The d-matrix is exp(-i beta J_y) from the eigenvectors V of the
tridiagonal J_y, d^l(beta) = V e^{-i beta m} V^dagger, orthogonal to
rounding at every l.  The factorial sum formula is not: its alternating
terms cancel, to |d d^T - 1| up to 4e-10 at l = 20 and 4e-7 at l = 29,
which fails the real-basis check of ``to_real_basis`` from l_max 18 on.
"""

import math
from functools import lru_cache

import numpy as np

from .basis import BasisSpec, to_real_basis


def wigner_d_matrix(l, beta):
    """Real matrix d^l_{m'm}(beta) = exp(-i beta J_y), indexed [m'+l, m+l].

    J_y is tridiagonal in |l m>; ``eigh`` returns its eigenvectors for
    the eigenvalues m = -l..l in ascending order.
    """
    m = np.arange(-l, l + 1)
    k = 0.5j * np.sqrt(l * (l + 1.0) - m[:-1] * m[1:])
    _, vec = np.linalg.eigh(np.diag(k, 1) - np.diag(k, -1))
    return ((vec * np.exp(-1j * beta * m)) @ vec.conj().T).real


def wigner_bigd_matrix(l, alpha, beta, gamma):
    """Complex matrix D^l_{m'm}(alpha, beta, gamma), indexed [m'+l, m+l]."""
    d = wigner_d_matrix(l, beta)
    ms = np.arange(-l, l + 1)
    return np.exp(-1j * alpha * ms)[:, None] * d * np.exp(-1j * gamma * ms)[None, :]


def basis_rotation(basis: BasisSpec, alpha, beta, gamma):
    """Rotation matrix on the full basis (identical block per polarization).

    Coefficients of a rotated field are c_rot = Dmat @ c.
    """
    ds = basis.scalar_size
    out = np.zeros((2 * ds, 2 * ds), dtype=complex)
    for l in range(1, basis.l_max + 1):
        blk = wigner_bigd_matrix(l, alpha, beta, gamma)
        for base in (l * l - 1, ds + l * l - 1):
            out[base:base + 2 * l + 1, base:base + 2 * l + 1] = blk
    return out


@lru_cache(maxsize=512)
def rotate_block(basis: BasisSpec, alpha, beta, gamma):
    """Real-m basis rotation matrix (orthogonal, D x D real, read-only).

    Cached: the blocks of one pair are rotated by the same angles at
    every frequency.
    """
    out = to_real_basis(basis_rotation(basis, alpha, beta, gamma), basis.l_max)
    out.flags.writeable = False
    return out


def axis_euler_angles(displacement):
    """Euler angles (alpha, beta) with R(alpha, beta, 0) z^ = d^.

    Used to reduce a general translation to the axial one:
    A(d) = Dmat(alpha, beta, 0) A(|d| z^) Dmat(alpha, beta, 0)^dagger.
    """
    d = np.asarray(displacement, dtype=float)
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("zero displacement has no direction")
    # acos(d_z / r) would be ill-conditioned near the poles
    beta = math.atan2(math.hypot(d[0], d[1]), d[2])
    alpha = math.atan2(d[1], d[0]) if (abs(d[0]) > 0 or abs(d[1]) > 0) else 0.0
    return alpha, beta
