"""Large-N weak-coupling estimate of the collective Casimir potential.

For N small spheres of radius R with dimensionless scattering strength
alpha_S (single-sphere amplitude alpha = alpha_S (xi R)^3 on the
imaginary axis) arranged with representative neighbor separation s, the
leading irreducibly-connected contribution sums (N-1)! equal ring
diagrams.  With X the total round-trip decay exponent (X = N kappa s,
so each of the N hops carries exp(-X/N)) the estimate is

    V = +-(-1)^N (1/(N s)) (N-1)! Int_0^inf dX e^{-X} F(X)^N,
    F(X) = alpha_S (R/s)^3 Q(X/N),

in units of hbar c.  Q is the per-hop translation amplitude with the
decay stripped: the l = l' = 1 scalar axial coefficient is
beta(x) = (e^{-x}/x)(3 + 6/x + 6/x^2), and Q(x) = x^3 e^{x} beta(x) =
3 x^2 + 6 x + 6 folds in the x^3 frequency growth of alpha.  Its
coefficients are frozen here and re-derivable from the translation
tables (``derive_a_bar``), and the integral always uses them.

The Stirling form keeps only the dominant N-dependence,

    |V| ~ (e^{-N} / N^3) lambda^N R^{3N} / s^{1+3N},  lambda = N alpha_S,

dropping O(1)^N normalization of Q; it reproduces the exact s and
alpha_S power laws of the integral but not its absolute scale.  The
overall sign alternates with N and its absolute orientation is left
unresolved; results carry the magnitude and the parity separately.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_laguerre

from .mie import ConstantPermittivity
from .specfun import mod_sph_bessel

# x^2 * Abar(x): per-hop l=1 amplitude polynomial, highest power first
DEFAULT_A_BAR = (3.0, 6.0, 6.0)


@dataclass(frozen=True)
class LargeNParams:
    """N spheres, strength alpha_S, radius R, neighbor separation s."""
    n: int
    alpha_s: float
    radius: float
    separation: float

    def __post_init__(self):
        if (isinstance(self.n, bool)
                or not isinstance(self.n, numbers.Integral) or self.n < 2):
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        for name in ("alpha_s", "radius", "separation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.separation <= 2.0 * self.radius:
            raise ValueError("separation must exceed 2R (no overlap)")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")

    @property
    def coupling(self):
        """lambda = N alpha_S, the quantity held fixed at large N."""
        return self.n * self.alpha_s


@dataclass(frozen=True)
class LargeNResult:
    """Magnitude of the potential in hbar c / L0, sign kept as metadata.

    parity is (-1)^N; the absolute orientation of the alternating sign
    is not resolved here, so the potential is +-parity * magnitude with
    the overall sign left to the caller.
    """
    log_magnitude: float
    parity: int
    n: int

    @property
    def magnitude(self):
        return math.exp(self.log_magnitude)


def derive_a_bar():
    """Recover DEFAULT_A_BAR from the scalar axial translation series.

    Evaluates e^{x} x^3 beta_{(1,0),(1,0)}(x) at four x and solves for
    the quadratic coefficients; the fit must be exact (residual at
    rounding level) because the function is that polynomial.
    """
    from .specfun import sph_harm
    from .translation import _beta_terms

    def q_of(x):
        tot = 0.0
        for p, w in _beta_terms(1, 0, 1, 0):
            tot += (w * mod_sph_bessel("e", p, x)
                    * sph_harm(p, 0, 0.0, 0.0).real)
        return tot * x ** 3 * math.exp(x)

    xs = np.linspace(1.5, 4.5, 4)
    vand = np.vander(xs, 3)
    coef, *_ = np.linalg.lstsq(vand, [q_of(x) for x in xs], rcond=None)
    resid = np.abs(vand @ coef - [q_of(x) for x in xs]).max()
    if resid > 1e-9:
        raise RuntimeError(f"hop amplitude is not quadratic (resid {resid})")
    return tuple(float(c) for c in coef)


def largen_potential_integral(params: LargeNParams):
    """Ring-diagram integral with the DEFAULT_A_BAR hop, in the log domain.

    Gauss-Laguerre is exact here: e^{-X} times the polynomial
    F(X)^N of degree 2N needs only n >= N + 1 nodes.
    """
    n = params.n
    if n > 353:   # scipy's roots_laguerre gives NaN weights from 364 nodes
        raise ValueError(f"n = {n} is above 353, past which the rule's "
                         "weights are NaN; use --method asymptotic")
    if params.alpha_s == 0.0:
        return LargeNResult(log_magnitude=-math.inf, parity=(-1) ** n, n=n)
    hop_scale = abs(params.alpha_s) * (params.radius / params.separation) ** 3
    if hop_scale == 0.0:
        raise ValueError("alpha_s (R/s)^3 underflows; use --method asymptotic")
    nodes, weights = roots_laguerre(max(40, n + 10))
    f = hop_scale * np.polyval(DEFAULT_A_BAR, nodes / n)
    # logsumexp of ln(w_i) + N ln f_i, then the (N-1)!/(N s) prefactor;
    # from N = 200 the far weights underflow to 0 and get ln w = -inf
    log_w = np.log(weights, out=np.full_like(weights, -np.inf),
                   where=weights > 0.0)
    logs = log_w + n * np.log(f)
    top = logs.max()
    log_int = top + math.log(np.sum(np.exp(logs - top)))
    log_mag = (math.lgamma(n) - math.log(n * params.separation) + log_int)
    return LargeNResult(log_magnitude=log_mag, parity=(-1) ** n, n=n)


def largen_asymptotic(params: LargeNParams):
    """Stirling form: |V| = (e^{-N}/N^3) lambda^N R^{3N} / s^{1+3N}."""
    n = params.n
    if n < 3:
        raise ValueError("the Stirling form needs N >= 3")
    if params.alpha_s == 0.0:
        return LargeNResult(log_magnitude=-math.inf, parity=(-1) ** n, n=n)
    log_mag = (-n - 3.0 * math.log(n)
               + n * math.log(abs(params.coupling))
               + 3.0 * n * math.log(params.radius)
               - (1.0 + 3.0 * n) * math.log(params.separation))
    return LargeNResult(log_magnitude=log_mag, parity=(-1) ** n, n=n)


# ------------------------------------------------------------ crosscheck

def ring_scene(n, radius, separation, eps, l_max=1):
    """N spheres on a circle with neighbor center distance = separation."""
    from .scattering import SceneConfig, SphereSpec
    circum_r = separation / (2.0 * math.sin(math.pi / n))
    spheres = []
    for i in range(n):
        phi = 2.0 * math.pi * i / n
        spheres.append(SphereSpec(
            label=f"s{i}",
            center=(circum_r * math.cos(phi), circum_r * math.sin(phi), 0.0),
            radius=radius,
            permittivity=ConstantPermittivity(eps)))
    return SceneConfig(spheres=tuple(spheres), l_max=l_max)


@dataclass(frozen=True)
class CrosscheckReport:
    """s-scaling of the N-event ring term vs the large-N estimate."""
    n: int
    separations: np.ndarray
    ring_energies: np.ndarray       # |fixed-order-N interaction energy|
    estimate_magnitudes: np.ndarray
    exponent_fit: float
    exponent_predicted: float
    ratio: np.ndarray               # ring / estimate, finite and smooth

    @property
    def exponent_rel_error(self):
        return abs(self.exponent_fit - self.exponent_predicted) \
            / abs(self.exponent_predicted)


def largen_crosscheck(n, eps_minus_one=1e-2, radius=1.0,
                      separations=(10.0, 13.0, 16.0, 20.0), l_max=1):
    """Fit the s-exponent of the N-event ring energy against -(1+3N).

    The sphere strength enters the estimate as the static dipole factor
    alpha_S = (eps-1)/(eps+2); the absolute normalization of the
    estimate is heuristic, so only the scaling (and the smoothness of
    the ratio) is meaningful.
    """
    from .scattering import interaction_energy
    if not isinstance(n, numbers.Integral) or n < 3:
        raise ValueError(f"crosscheck needs a ring of N >= 3 spheres, "
                         f"got N = {n!r}")
    eps = 1.0 + eps_minus_one
    alpha_s = (eps - 1.0) / (eps + 2.0)
    seps = np.asarray(separations, dtype=float)
    ring = np.empty(seps.size)
    est = np.empty(seps.size)
    for i, s in enumerate(seps):
        scene = ring_scene(n, radius, s * radius, eps, l_max=l_max)
        val, _, _ = interaction_energy(scene, fixed_k=n)
        ring[i] = abs(val)
        est[i] = largen_potential_integral(
            LargeNParams(n=n, alpha_s=alpha_s, radius=radius,
                         separation=s * radius)).magnitude
    slope = np.polyfit(np.log(seps), np.log(ring), 1)[0]
    return CrosscheckReport(
        n=n, separations=seps, ring_energies=ring,
        estimate_magnitudes=est, exponent_fit=float(slope),
        exponent_predicted=-(1.0 + 3.0 * n), ratio=ring / est)
