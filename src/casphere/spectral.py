"""Imaginary-frequency quadratures: T = 0 integral and Matsubara sum.

Casimir quantities at zero temperature are integrals
(1/2 pi) Int_0^inf f(xi) d xi of smooth integrands that decay like
e^{-decay_scale xi} (decay_scale = twice the background optical path of
the smallest gap).  Gauss-Laguerre quadrature after u = decay_scale * xi
captures this with a few dozen nodes; the reported error compares two
node counts.

At finite temperature the integral becomes the Matsubara sum

    2 pi T~ [ f(0+)/2 + sum_{n>=1} f(xi_n) ],   xi_n = 2 pi n T~

with T~ the reduced temperature (see ``constants.matsubara_scale``).
The n = 0 term is always a Richardson extrapolation of f toward
xi = 0+ (``zero_frequency_limit``), because integrands are often written
in forms that are 0/0 at exactly zero frequency.

Integrands may return scalars or ndarrays (e.g. force vectors); errors
are reported with the same shape.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss


# Fixed parts of every rule: the node increment of the error estimate,
# the cap on Matsubara terms, and the seed of the zero-frequency
# extrapolation.
CHECK_NODES = 8
N_MATSUBARA_MAX = 2000
XI_EPS = 1e-3


@dataclass(frozen=True)
class SpectralSettings:
    """How to turn integrands into numbers.

    n_nodes: Gauss-Laguerre size, an integer from 1 to 185 - CHECK_NODES;
        the error estimate compares it with n_nodes + CHECK_NODES.
    matsubara_tail_tol: the Matsubara sum stops once two consecutive
        terms fall below it relative to the running total.
    """
    n_nodes: int = 40
    matsubara_tail_tol: float = 1e-10

    def __post_init__(self):
        # from 186 nodes on, the largest Gauss-Laguerre node exceeds
        # ln(DBL_MAX) and its weight factor e^u overflows
        value = self.n_nodes
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or not 1 <= value <= 185 - CHECK_NODES):
            raise ValueError(f"n_nodes must be an integer from 1 to "
                             f"{185 - CHECK_NODES}, got {value!r}")
        value = self.matsubara_tail_tol
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not 0.0 < value < math.inf):
            raise ValueError(f"matsubara_tail_tol must be finite and "
                             f"positive, got {value!r}")


# (nodes, weights) of the n-node Gauss-Laguerre rule, computed once per
# node count: a ``laggauss`` call costs about 1 ms
_gauss_laguerre = lru_cache(maxsize=None)(laggauss)


def _gauss_laguerre_apply(f, decay_scale, n):
    nodes, weights = _gauss_laguerre(n)
    terms = np.stack([(w * math.exp(u) / decay_scale)
                      * np.asarray(f(u / decay_scale), dtype=float)
                      for u, w in zip(nodes, weights)])
    return np.sum(terms, axis=0)


def integrate_zero_t(f, decay_scale,
                     settings: SpectralSettings = SpectralSettings()):
    """(value, error) for Int_0^inf f(xi) d xi.

    decay_scale sets the substitution u = decay_scale * xi; choose it
    near the true exponential decay rate of f for fast convergence.
    """
    if not decay_scale > 0.0:
        raise ValueError("decay_scale must be positive")
    coarse = _gauss_laguerre_apply(f, decay_scale, settings.n_nodes)
    fine = _gauss_laguerre_apply(f, decay_scale,
                                 settings.n_nodes + CHECK_NODES)
    return fine, np.abs(fine - coarse)


def zero_frequency_limit(f, xi_eps):
    """(value, error) for f(0+) by Richardson extrapolation in xi from
    xi_eps, in practice ``XI_EPS``.

    Linear extrapolation from (eps, eps/2) refined once; the error is
    the difference between the two extrapolants, which also flags
    integrands that are genuinely singular at 0.
    """
    f1 = np.asarray(f(xi_eps), dtype=float)
    f2 = np.asarray(f(0.5 * xi_eps), dtype=float)
    f3 = np.asarray(f(0.25 * xi_eps), dtype=float)
    r1 = 2.0 * f2 - f1
    r2 = 2.0 * f3 - f2
    return r2, np.abs(r2 - r1)


def matsubara_sum(f, temperature,
                  settings: SpectralSettings = SpectralSettings()):
    """(value, error, n_used) for 2 pi T~ [f(0+)/2 + sum f(xi_n)].

    f(0+) is ``zero_frequency_limit`` at XI_EPS, and half its
    extrapolation error enters the error.  Stops once two consecutive
    terms fall below matsubara_tail_tol relative to the running total,
    then adds a geometric tail bound to the error; after N_MATSUBARA_MAX
    terms it stops anyway and the last term becomes the tail bound.
    """
    if not temperature > 0.0:
        raise ValueError("temperature must be positive for a Matsubara sum")
    step = 2.0 * math.pi * temperature
    f_zero, zero_err = zero_frequency_limit(f, XI_EPS)
    total = 0.5 * f_zero
    prev_mag = None
    tail = 0.0
    n = 0
    small_in_a_row = 0
    for n in range(1, N_MATSUBARA_MAX + 1):
        term = np.asarray(f(step * n), dtype=float)
        total = total + term
        mag = float(np.max(np.abs(term)))
        scale = max(float(np.max(np.abs(total))), 1e-300)
        if mag < settings.matsubara_tail_tol * scale:
            small_in_a_row += 1
            if small_in_a_row >= 2:
                ratio = mag / prev_mag if prev_mag and prev_mag > 0 else 0.0
                ratio = min(ratio, 0.99)
                tail = mag * ratio / (1.0 - ratio)
                break
        else:
            small_in_a_row = 0
        prev_mag = mag if mag > 0 else prev_mag
    else:
        n = N_MATSUBARA_MAX
        tail = float(np.max(np.abs(term)))   # did not converge; be honest
    value = step * total
    error = step * (0.5 * zero_err + tail)
    return value, error, n
