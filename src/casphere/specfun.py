"""Special functions used by the scattering machinery.

Numpy and the standard library only.  This module pins the
conventions, returns the radial functions exponentially scaled so they
stay finite at any argument, enforces the order hard cap, and provides
exact-arithmetic Wigner 3j / Gaunt coefficients.  Every order argument
may be an integer array: one call returns a whole table of orders, each
entry bit-identical to the scalar call.

Conventions (the radial pair of ``constants``):
    i_l(x) = sqrt(pi/(2x)) I_{l+1/2}(x)     regular
    e_l(x) = (-1)^l (2/pi) k_l(x)           outgoing, e_0(x) = e^{-x}/x,
        k_l(x) = sqrt(pi/(2x)) K_{l+1/2}(x)
    Both obey z_{l-1} - z_{l+1} = (2l+1)/x z_l and
    z_l' = z_{l-1} - (l+1)/x z_l (z_0' = z_1).
    returned scaled: i_l(x) e^{-x}, e_l(x) e^{+x}, derivatives likewise
    Wronskian: i_l(x) e_l'(x) - i_l'(x) e_l(x) = (-1)^{l+1} / x^2

Associated Legendre functions are fully normalized including the
Condon-Shortley phase; ``legendre_table`` computes P~_lm for every
(l, m) up to l_max in one recurrence pass, and
Y_lm = P~_lm(cos theta) e^{i m phi}.
"""

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Orders above this are refused: double precision recurrences and the
# factorial-based couplings degrade, and the physics here never needs them.
L_HARD_CAP = 60


class RadialKind(Enum):
    """Which modified spherical Bessel solution: regular i_l or outgoing e_l."""
    REGULAR = "i"
    OUTGOING = "e"


def _check_l(l):
    """Orders as an int array (0-d for a scalar), each an integer value
    in [0, L_HARD_CAP]; booleans and fractional orders are refused."""
    a = np.asarray(l)
    integral = a.dtype.kind in "iu" or (a.dtype.kind == "f"
                                        and np.all(a == np.floor(a)))
    if not integral:
        raise ValueError(f"order l={l!r} is not an integer")
    if np.any((a < 0) | (a > L_HARD_CAP)):
        raise ValueError(f"order l={l} outside [0, {L_HARD_CAP}] (L_HARD_CAP)")
    return a.astype(int)


# ----------------------------------------------------------------------
# imaginary-axis (modified) spherical Bessel
# ----------------------------------------------------------------------

def _regular_row(top, x):
    """[i_l(x) e^{-x} for l = 0..top] at one x >= 0, in Python floats.

    Downward ratio recurrence r_k = i_k / i_{k-1} = x / (2k + 1 + x r_{k+1})
    (Gautschi, SIAM Rev. 9, 24, 1967), started from r = 0 at
    k = top + 20 + floor(6 sqrt(x)), deep enough that the start is
    forgotten to rounding; the ratios multiply up from
    i_0(x) e^{-x} = -expm1(-2x) / (2x).
    """
    if x == 0.0:
        return [1.0] + [0.0] * top
    ratios = []
    r = 0.0
    for k in range(top + 20 + int(6.0 * math.sqrt(x)), 0, -1):
        r = x / (2 * k + 1 + x * r)
        ratios.append(r)
    row = [-math.expm1(-2.0 * x) / (2.0 * x)]
    for r in ratios[::-1][:top]:
        row.append(row[-1] * r)
    return row


def _outgoing_row(top, x):
    """[e_l(x) e^{+x} for l = 0..top] at one x >= 0, in Python floats.

    The exact terminating sum
    e_l(x) e^{x} = (-1)^l sum_{k=0..l} (l+k)! / (k! (l-k)! (2x)^k) / x,
    whose terms all share one sign (no cancellation at any x); e_l is
    (-1)^l inf at x = 0.
    """
    if x == 0.0:
        return [(-1.0) ** l * math.inf for l in range(top + 1)]
    row = []
    for l in range(top + 1):
        acc = term = 1.0
        for k in range(1, l + 1):
            term = term * ((l + k) * (l - k + 1) / (2.0 * k)) / x
            acc = acc + term
        row.append((-acc if l % 2 else acc) / x)
    return row


def mod_sph_bessel(kind, l, x):
    """Scaled modified spherical Bessel function, x >= 0: i_l(x) e^{-x}
    for the regular kind, e_l(x) e^{+x} for the outgoing one.  Both stay
    representable at any x.

    Parameters
    ----------
    kind : RadialKind or {"i", "e"}
    l : int or int array
        Orders; they broadcast against x.  A scalar l and x give a float.
    x : float or array

    One table of orders 0..max(l) is built per distinct x
    (``_regular_row``, ``_outgoing_row``) and indexed with l.
    """
    kind = RadialKind(kind)
    l = _check_l(l)
    x = np.asarray(x, dtype=float)
    distinct = {}
    at = [distinct.setdefault(v, len(distinct)) for v in x.ravel().tolist()]
    if not all(0.0 <= v < math.inf for v in distinct):
        raise ValueError("mod_sph_bessel requires finite x >= 0")
    row = _regular_row if kind is RadialKind.REGULAR else _outgoing_row
    top = int(l.max(initial=0))
    table = np.array([row(top, v) for v in distinct]).reshape(-1, top + 1)
    out = table[np.reshape(at, x.shape), l]
    return float(out) if out.ndim == 0 else out


def mod_sph_bessel_dx(kind, l, x):
    """Scaled derivative (i_l)'(x) e^{-x} or (e_l)'(x) e^{+x}.

    Both kinds share z_l' = z_{l-1} - (l+1)/x z_l for l >= 1 and
    z_0' = z_1, which the scaled functions obey with the same scale.
    Orders broadcast as in ``mod_sph_bessel``.
    """
    return _value_and_dx(kind, l, x)[1]


def _value_and_dx(kind, l, x):
    """Scaled (z_l, z_l') from one ``mod_sph_bessel`` call over the
    orders and their lower neighbours; see ``mod_sph_bessel_dx``."""
    l, x = np.broadcast_arrays(_check_l(l), np.asarray(x, dtype=float))
    here, lower = mod_sph_bessel(kind, np.stack([l, np.abs(l - 1)]), x)
    return here, np.where(l == 0, lower, lower - (l + 1) / x * here)[()]


def riccati_ik(kind, l, x):
    """Scaled value z_l and Riccati derivative S_l'(x) = (x z_l(x))' as a
    pair, both times e^{-x} (regular) or e^{+x} (outgoing)."""
    z, dz = _value_and_dx(kind, l, x)
    return z, z + x * dz


# ----------------------------------------------------------------------
# normalized associated Legendre
# ----------------------------------------------------------------------

def legendre_table(l_max, u):
    """Fully normalized P~_lm(u), CS phase included, for all |m| <= l <= l_max.

    Indexed [..., l, m + l_max] over the shape of u; entries with |m| > l
    are 0.  One pass per argument: the sectoral seeds P~_mm, then the
    upward recurrence in l for every m at once.
    Example: legendre_table(1, u)[..., 1, 1] = sqrt(3/4pi) u.
    """
    l_max = int(_check_l(l_max))
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) > 1 + 1e-12):
        raise ValueError("Legendre argument u must satisfy |u| <= 1")
    s = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    pos = np.zeros(u.shape + (l_max + 1, l_max + 1))    # [..., l, m >= 0]
    pos[..., 0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for k in range(1, l_max + 1):
        pos[..., k, k] = -math.sqrt((2 * k + 1) / (2.0 * k)) * s \
            * pos[..., k - 1, k - 1]
    m = np.arange(l_max)
    pos[..., m + 1, m] = np.sqrt(2 * m + 3.0) * u[..., None] * pos[..., m, m]
    for ll in range(2, l_max + 1):
        m = np.arange(ll - 1)
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = np.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        pos[..., ll, :ll - 1] = a * (u[..., None] * pos[..., ll - 1, :ll - 1]
                                     - b * pos[..., ll - 2, :ll - 1])
    # P~_{l,-m} = (-1)^m P~_lm
    neg = (-1.0) ** np.arange(l_max, 0, -1) * pos[..., :0:-1]
    return np.concatenate([neg, pos], axis=-1)


def assoc_legendre(l, m, u):
    """Fully normalized associated Legendre P~_lm(u), CS phase included.

    Y_lm(theta, phi) = assoc_legendre(l, m, cos theta) e^{i m phi}.
    Example: assoc_legendre(1, 0, u) = sqrt(3/4pi) u.
    """
    l = int(_check_l(l))
    m = int(m)
    if abs(m) > l:
        raise ValueError(f"|m|={abs(m)} exceeds l={l}")
    return legendre_table(l, u)[..., l, m + l]


def sph_harm(l, m, theta, phi):
    """Spherical harmonic Y_lm(theta, phi) in this package's convention.

    l and m broadcast against each other; entries with |m| > l are 0.
    The result has the angles' shape followed by the orders' shape.
    """
    l = _check_l(l)
    m = np.asarray(m).astype(int)
    l_max = int(max(l.max(initial=0), np.abs(m).max(initial=0)))
    table = legendre_table(l_max, np.cos(np.asarray(theta, dtype=float)))
    phase = np.exp(np.multiply.outer(np.asarray(phi), 1j * m))
    return table[..., l, m + l_max] * phase


# ----------------------------------------------------------------------
# Wigner 3j and Gaunt coefficients (exact rational arithmetic)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def wigner_3j(l1, l2, l3, m1, m2, m3):
    """Wigner 3j symbol; exact rationals inside, one sqrt/exp at the end."""
    l1, l2, l3 = int(l1), int(l2), int(l3)
    m1, m2, m3 = int(m1), int(m2), int(m3)
    if m1 + m2 + m3 != 0:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    f = math.factorial
    r = Fraction(f(l1 + l2 - l3) * f(l1 - l2 + l3) * f(-l1 + l2 + l3),
                 f(l1 + l2 + l3 + 1))
    r *= (f(l1 + m1) * f(l1 - m1) * f(l2 + m2) * f(l2 - m2)
          * f(l3 + m3) * f(l3 - m3))
    tmin = max(0, l2 - l3 - m1, l1 - l3 + m2)
    tmax = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    s = Fraction(0)
    for t in range(tmin, tmax + 1):
        den = (f(t) * f(l3 - l2 + t + m1) * f(l3 - l1 + t - m2)
               * f(l1 + l2 - l3 - t) * f(l1 - t - m1) * f(l2 - t + m2))
        s += Fraction((-1) ** t, den)
    if s == 0:
        return 0.0
    sign = (-1) ** ((l1 - l2 - m3) % 2) * (1 if s > 0 else -1)
    s = abs(s)
    # math.log accepts arbitrarily large ints, so this never overflows
    log_val = (math.log(s.numerator) - math.log(s.denominator)
               + 0.5 * (math.log(r.numerator) - math.log(r.denominator)))
    return sign * math.exp(log_val)


@lru_cache(maxsize=None)
def gaunt_coefficient(l1, m1, l2, m2, l3):
    """Gaunt coefficient Int Y_{l1 m1} Y_{l2 m2} Y_{l3 m3} dOmega, m3 = -m1-m2.

    Exactly zero outside the selection rules (triangle inequality,
    even l1+l2+l3, |m| bounds).  Example: l1=l2=l3=0 gives 1/sqrt(4 pi).
    """
    l1, l2, l3 = int(l1), int(l2), int(l3)
    _check_l((l1, l2, l3))
    m3 = -int(m1) - int(m2)
    if (l1 + l2 + l3) % 2 != 0:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
    return (pref * wigner_3j(l1, l2, l3, 0, 0, 0)
            * wigner_3j(l1, l2, l3, m1, m2, m3))


def gaunt_yyc(l, m, lp, mp, p):
    """Coupling Int Y_{lm} Y*_{l'm'} Y*_{p,m-m'} dOmega used by translations."""
    return (-1.0) ** (m % 2) * gaunt_coefficient(l, m, lp, -mp, p)
