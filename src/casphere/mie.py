"""Sphere T-matrices and permittivity models at imaginary frequency.

A homogeneous sphere of radius R and permittivity eps_s sits in a
background eps_B.  For a regular wave of polarization pol and order l
incident on the sphere, the scattered outgoing amplitude is
T_{pol,l} times the incident one; with Riccati functions S_l(x) = x i_l(x),
E_l(x) = x e_l(x) and arguments x_B = n_B xi R, x_s = sqrt(eps_rel) x_B,
eps_rel = eps_s / eps_B:

    T^TE_l = [S_l'(x_B) i_l(x_s) - i_l(x_B) S_l'(x_s)]
           / [e_l(x_B) S_l'(x_s) - E_l'(x_B) i_l(x_s)]

    T^TM_l = [i_l(x_B) S_l'(x_s) - eps_rel S_l'(x_B) i_l(x_s)]
           / [eps_rel E_l'(x_B) i_l(x_s) - e_l(x_B) S_l'(x_s)]

The TE numerator is evaluated as i_l(x_B) i_l(x_s) x_B [rho_l(x_B) -
sqrt(eps_rel) rho_l(x_s)] with rho_l = i_{l+1} / i_l, from
S_l'(z) = i_l(z) [(l + 1) + z rho_l(z)].  The (l + 1) terms of the two
products drop out analytically instead of cancelling in floating point,
so TE keeps full precision at small x.  As eps_rel -> 1, TE and TM
still lose about 1e-16 / (eps_rel - 1) relative: sqrt(eps_rel) and
the TE bracket are rounded near 1, and TM's (l + 1) terms cancel.

Both vanish identically at eps_rel = 1 and behave like x^{2l+1} for
small x; T^TM_1 ~ -(2/3) x^3 (eps_rel - 1)/(eps_rel + 2) identifies
-(3/2) T^TM_1 / x^3 with the normalized dipole polarizability.

T_l grows like e^{2 x_B} at large argument, so every T here is returned
as T_l e^{-2 x_B}, computed entirely from the scaled i_l e^{-x} and
e_l e^{+x} of ``specfun``; no intermediate overflows at any x.

The T-matrix is diagonal in (pol, l, m) with m-independent entries, in
the complex-m and real-m bases alike.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec
from .specfun import RadialKind, riccati_ik


# -------------------------------------------------------- permittivities

class PermittivityModel:
    """Interface: eps_imag_freq(xi) -> eps(i xi), real and >= 1 for
    physical materials (vacuum = 1).  xi must be in the same frequency
    units as the model parameters."""

    def eps_imag_freq(self, xi):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPermittivity(PermittivityModel):
    value: float

    def __post_init__(self):
        if not 0.0 < self.value < math.inf:
            raise ValueError("permittivity value must be positive and finite")

    def eps_imag_freq(self, xi):
        return self.value


@dataclass(frozen=True)
class DrudeLorentzPermittivity(PermittivityModel):
    """eps(i xi) = 1 + sum_j A_j / (w_j^2 + xi^2 + g_j xi).

    Oscillators are (amplitude, resonance, damping) triples; a Drude
    metal is the resonance = 0 case.  All three share the frequency
    unit of xi; amplitudes carry that unit squared.
    """
    oscillators: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for osc in self.oscillators:
            if len(osc) != 3 or not all(map(math.isfinite, osc)) \
                    or osc[0] < 0.0 or osc[2] < 0.0:
                raise ValueError(
                    f"oscillator {tuple(osc)!r}: need finite (amplitude >= 0, "
                    "resonance, damping >= 0)")

    def eps_imag_freq(self, xi):
        out = 1.0
        for amp, res, gam in self.oscillators:
            out += amp / (res * res + xi * xi + gam * xi)
        return out


@dataclass(frozen=True)
class TabulatedPermittivity(PermittivityModel):
    """Log-linear interpolation of eps(i xi) samples; clamped outside."""
    xi_grid: tuple
    eps_values: tuple

    def __post_init__(self):
        g = np.asarray(self.xi_grid, dtype=float)
        v = np.asarray(self.eps_values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValueError("need matching 1-d grids with >= 2 samples")
        if not np.all(np.isfinite(g) & (g > 0.0)) or np.any(np.diff(g) <= 0.0):
            raise ValueError("xi grid must be finite, positive and increasing")
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise ValueError("eps samples must be finite and positive")

    def eps_imag_freq(self, xi):
        g = np.log(np.asarray(self.xi_grid, dtype=float))
        v = np.asarray(self.eps_values, dtype=float)
        xi = max(float(xi), math.exp(g[0]))
        return float(np.interp(math.log(xi), g, v))


# ------------------------------------------------------- Mie coefficients

def mie_coefficient(pol, l, x, eps_rel):
    """T_{pol,l} e^{-2x} for background argument x = n_B xi R > 0, one
    entry of ``mie_diag``; finite for any x."""
    basis = BasisSpec(l)
    return float(mie_diag(basis, x, eps_rel)[basis.index(pol, l, 0)])


def mie_diag(basis: BasisSpec, x, eps_rel):
    """Diagonal of the T-matrix over the basis, as a vector of length D
    with entries T e^{-2x}.

    The Riccati values are computed once for l = 1..l_max and shared by
    TE and TM; the regular tables run to l_max + 1 for the TE ratios.
    """
    if not x > 0.0:
        raise ValueError("x = n_B xi R must be positive")
    if not eps_rel > 0.0:
        raise ValueError("relative permittivity must be positive")
    if eps_rel == 1.0:
        return np.zeros(basis.size)
    n = math.sqrt(eps_rel)
    l, up = np.arange(1, basis.l_max + 1), np.arange(1, basis.l_max + 2)
    # i_l, S_l' scaled by e^{-x} up to l_max + 1; e_l, E_l' by e^{+x}
    ib, spb = riccati_ik(RadialKind.REGULAR, up, x)
    is_, sps = riccati_ik(RadialKind.REGULAR, up, n * x)
    eb, epb = riccati_ik(RadialKind.OUTGOING, l, x)
    rb, rs = ib[1:] / ib[:-1], is_[1:] / is_[:-1]   # rho_l = i_{l+1} / i_l
    ib, spb, is_, sps = ib[:-1], spb[:-1], is_[:-1], sps[:-1]
    # common scale e^{x+xs} in numerators, e^{-x+xs} in denominators
    t_te = ib * is_ * x * (rb - n * rs) / (eb * sps - epb * is_)
    t_tm = (ib * sps - eps_rel * spb * is_) / (eps_rel * epb * is_ - eb * sps)
    return np.repeat(np.concatenate([t_te, t_tm]), np.tile(2 * l + 1, 2))
