"""Bookkeeping for the truncated vector spherical-wave basis.

A basis element is labeled (pol, l, m) with pol in {0: TE/M-type,
1: TM/N-type}, l = 1..l_max, m = -l..l, ordered pol-major then l then m,
so index = pol * l_max(l_max+2) + (l^2 - 1) + (l + m) and the total size
is D = 2 l_max (l_max + 2).

The complex-m basis is what the analytic machinery naturally produces;
public operator matrices are presented in the real-m basis (see
``constants``), where every block at imaginary frequency is real.
``real_combination_matrix`` returns the unitary C with
psi~_a = sum_n C[a, n] psi_n; operators map as A~ = C* A C^T.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import L_HARD_CAP

POL_TE = 0   # M-type (no radial field component)
POL_TM = 1   # N-type

# translation values and gradients reach radial order 2 l_max + 1
_L_MAX_CAP = (L_HARD_CAP - 1) // 2


@dataclass(frozen=True)
class BasisSpec:
    """Truncated basis with l = 1..l_max and both polarizations."""

    l_max: int

    def __post_init__(self):
        if isinstance(self.l_max, bool) \
                or not isinstance(self.l_max, numbers.Integral) \
                or not 1 <= self.l_max <= _L_MAX_CAP:
            raise ValueError(f"l_max must be an integer in [1, {_L_MAX_CAP}], "
                             f"got {self.l_max!r}")

    @property
    def scalar_size(self):
        """Number of (l, m) pairs per polarization."""
        return self.l_max * (self.l_max + 2)

    @property
    def size(self):
        """Total basis dimension D = 2 l_max (l_max + 2)."""
        return 2 * self.scalar_size

    def scalar_index(self, l, m):
        if not (1 <= l <= self.l_max and -l <= m <= l):
            raise ValueError(f"(l={l}, m={m}) outside basis with l_max={self.l_max}")
        return l * l - 1 + (l + m)

    def index(self, pol, l, m):
        if pol not in (POL_TE, POL_TM):
            raise ValueError(f"pol must be 0 (TE) or 1 (TM), got {pol}")
        return pol * self.scalar_size + self.scalar_index(l, m)

    def labels(self):
        """Ordered list of (pol, l, m) labels; position equals index."""
        return [(pol, l, m) for pol in (POL_TE, POL_TM)
                for l in range(1, self.l_max + 1) for m in range(-l, l + 1)]


@lru_cache(maxsize=None)
def _scalar_combination_matrix(l_max):
    """Unitary mapping complex-m to real-m labels for one polarization."""
    ds = l_max * (l_max + 2)
    c = np.zeros((ds, ds), dtype=complex)
    rt = 1.0 / math.sqrt(2.0)
    for l in range(1, l_max + 1):
        base = l * l - 1 + l   # scalar index of (l, 0)
        c[base, base] = 1.0
        for mu in range(1, l + 1):
            cs = (-1.0) ** mu
            c[base + mu, base + mu] = cs * rt
            c[base + mu, base - mu] = rt
            c[base - mu, base + mu] = -1j * cs * rt
            c[base - mu, base - mu] = 1j * rt
    return c


@lru_cache(maxsize=None)
def real_combination_matrix(l_max):
    """Unitary C with real-basis waves psi~_a = sum_n C[a,n] psi_n."""
    cs = _scalar_combination_matrix(l_max)
    ds = cs.shape[0]
    c = np.zeros((2 * ds, 2 * ds), dtype=complex)
    c[:ds, :ds] = cs
    c[ds:, ds:] = cs
    return c


def to_real_basis(block, l_max):
    """Transform a complex-m basis operator to the real-m basis.

    The result must be real at imaginary frequency; a residual imaginary
    part above 1e-10 of the matrix scale signals a convention bug and
    raises.
    """
    c = (real_combination_matrix(l_max) if block.shape[0] == 2 * l_max * (l_max + 2)
         else _scalar_combination_matrix(l_max))
    out = c.conj() @ block @ c.T
    scale = max(np.max(np.abs(out)), 1.0)
    worst = np.max(np.abs(out.imag))
    if worst > 1e-10 * scale:
        raise ValueError(
            f"operator not real in the real-m basis (residual {worst:.3e} "
            f"vs scale {scale:.3e}); convention inconsistency")
    return np.ascontiguousarray(out.real)
