"""N-sphere multiple-scattering Casimir forces, energies, decompositions.

Geometry and scattering combine into the block system

    M_ij(i xi) = T_i A^{i<-j}(r_i - r_j),   M_ii = 0

over target-sphere wave labels (D = 2 l_max (l_max + 2) per sphere).
The interaction energy and the force on sphere t are

    E    = (1/2 pi) Int_0^inf ln det(1 - M) d xi
    F_t  = +(1/2 pi) Int_0^inf tr[(1 - M)^{-1} dM/dr_t] d xi

(T = 0; at T > 0 the integral becomes the Matsubara sum, see
``spectral``).  By default the inverse is evaluated exactly - the full
geometric series over closed scattering paths; ``fixed_k=k`` keeps paths
with exactly k scattering events, tr[M^{k-1} dM], the order-by-order
structure that the three-body decomposition and the large-N estimator
sample.  Every result is asked of one scene: a force, an energy, the
potential of one sphere relative to infinity (E minus E without it) or
a three-body remainder; a path of positions is a loop over scenes.

Units: lengths are in an arbitrary common unit L0, frequencies in
c/L0, energies in hbar c / L0, forces in hbar c / L0^2.  When
``length_unit_m`` is set (required at finite temperature), reduced
temperature and SI conversion factors are derived from it, and
permittivity models are evaluated at xi in rad/s.

Scaling strategy: each frequency assembles one dense array, the
symmetric form S M S^{-1} with S = diag(|T~|^{-1/2}), T~ = T e^{-2 kappa R}
(Rahi et al., PRD 80, 085021, 2009); a force also gets dM/dr_t in that
form.  It needs no reference length, so a pair's blocks are the same in
any scene, and it is symmetric when every eps_rel - 1 has one sign.
Determinants and traces are similarity-invariant, so the energy, the
resummed force, every fixed order and the l_max - 1 truncation estimate
are read from these arrays, at any gap.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisSpec
from .constants import C_LIGHT, HBAR_C, matsubara_scale
from .mie import ConstantPermittivity, PermittivityModel, mie_diag
from .spectral import (XI_EPS, SpectralSettings, integrate_zero_t,
                       matsubara_sum)
from .translation import KIND_OUTGOING, _gradient_stack, translation_matrix

_TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------- scene

@dataclass(frozen=True)
class SphereSpec:
    """One sphere: center and radius in scene length units."""
    label: str
    center: tuple
    radius: float
    permittivity: PermittivityModel

    def __post_init__(self):
        object.__setattr__(self, "center",
                           tuple(float(c) for c in self.center))
        if len(self.center) != 3:
            raise ValueError(f"sphere {self.label!r}: center must be 3-vector")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"sphere {self.label!r}: center must be finite")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"sphere {self.label!r}: radius must be "
                             "positive and finite")
        if not isinstance(self.permittivity, PermittivityModel):
            raise ValueError(f"sphere {self.label!r}: permittivity must be a "
                             f"PermittivityModel, got {self.permittivity!r}")

    @property
    def center_array(self):
        return np.array(self.center)


@dataclass(frozen=True)
class SceneConfig:
    """Immutable N-sphere scene plus evaluation settings."""
    spheres: tuple
    background: PermittivityModel = ConstantPermittivity(1.0)
    l_max: int = 3
    temperature_kelvin: float = 0.0
    length_unit_m: float = 0.0       # meters per scene length unit; 0 = unset
    spectral: SpectralSettings = field(default_factory=SpectralSettings)

    def __post_init__(self):
        object.__setattr__(self, "spheres", tuple(self.spheres))
        if not self.spheres:
            raise ValueError("scene needs at least one sphere")
        if not all(isinstance(s, SphereSpec) for s in self.spheres):
            raise ValueError(f"spheres must be SphereSpec entries, "
                             f"got {self.spheres!r}")
        for name, kind in (("background", PermittivityModel),
                           ("spectral", SpectralSettings)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        labels = [s.label for s in self.spheres]
        if len(set(labels)) != len(labels):
            raise ValueError("sphere labels must be unique")
        BasisSpec(self.l_max)   # checks l_max
        if not 0.0 <= self.temperature_kelvin < math.inf:
            raise ValueError("temperature_kelvin must be finite and >= 0")
        if not 0.0 <= self.length_unit_m < math.inf:
            raise ValueError("length_unit_m must be finite and >= 0")
        if self.temperature_kelvin > 0.0 and self.length_unit_m <= 0.0:
            raise ValueError(
                "finite temperature needs length_unit_m to fix the "
                "Matsubara scale")
        for a, b, gap in self._pair_gaps():
            if gap <= 0.0:
                raise ValueError(
                    f"spheres {a.label!r} and {b.label!r} overlap "
                    f"(gap {gap:g}); the wave expansion requires "
                    "non-overlapping spheres")

    def _pair_gaps(self):
        """(sphere a, sphere b, surface gap) for every unordered pair."""
        for a, b in itertools.combinations(self.spheres, 2):
            yield a, b, float(np.linalg.norm(a.center_array - b.center_array)
                              - a.radius - b.radius)

    @property
    def basis(self):
        return BasisSpec(self.l_max)

    @property
    def frequency_unit(self):
        """Factor from scene frequency to permittivity-model frequency."""
        return C_LIGHT / self.length_unit_m if self.length_unit_m > 0 else 1.0

    @property
    def reduced_temperature(self):
        if self.temperature_kelvin == 0.0:
            return 0.0
        return matsubara_scale(self.temperature_kelvin, self.length_unit_m)

    @property
    def min_gap(self):
        return min((gap for _, _, gap in self._pair_gaps()), default=math.inf)

    def index_of(self, label):
        for i, s in enumerate(self.spheres):
            if s.label == label:
                return i
        raise KeyError(f"no sphere labeled {label!r}")

    def moved(self, label, new_center):
        idx = self.index_of(label)
        spheres = list(self.spheres)
        spheres[idx] = replace(spheres[idx],
                               center=tuple(float(c) for c in new_center))
        return replace(self, spheres=tuple(spheres))


# ----------------------------------------------------------------- results

@dataclass(frozen=True)
class ForceResult:
    """Force on a target sphere, in hbar c / L0^2 scene units.

    error combines the quadrature estimate with the l_max vs l_max - 1
    truncation delta, which reuses the same frequency evaluations;
    n_freq counts all of them.  For a fixed order k, exponent_scale is
    -kappa(xi_ref) times the length of the shortest closed k-hop walk
    through the target, the decay of its leading paths at the reference
    frequency xi_ref = 1 / (2 sqrt(eps_b) min_gap), eps_b the background
    at spectral.XI_EPS; -inf when no such walk exists (odd k for a
    pair).  It is 0.0 for resummed results.
    """
    force: np.ndarray
    error: np.ndarray
    target: str
    l_max: int
    n_freq: int
    exponent_scale: float
    si_factor: float   # N per (hbar c / L0^2); 0 when length_unit_m unset

    @property
    def force_si(self):
        if self.si_factor == 0.0:
            raise ValueError("set length_unit_m on the scene for SI output")
        return self.force * self.si_factor


# ------------------------------------------------------ frequency assembly

def _materials(scene: SceneConfig, xi):
    """(kappa, eps_rel per sphere) at xi; every per-xi path checks xi here."""
    if not 0.0 < xi < math.inf:
        raise ValueError(f"xi must be finite and positive, got {xi!r}")
    xm = xi * scene.frequency_unit
    eps_b = float(scene.background.eps_imag_freq(xm))
    if not eps_b > 0.0:
        raise ValueError("background permittivity must stay positive")
    kappa = math.sqrt(eps_b) * xi
    eps_rel = [float(s.permittivity.eps_imag_freq(xm)) / eps_b
               for s in scene.spheres]
    return kappa, eps_rel


def _assemble(scene: SceneConfig, xi, target=None):
    """(m, dm): the symmetric form S M(i xi) S^{-1} as one dense
    (N D, N D) array and, for a force, dm = dM/dr_target in the same form
    as (3, N D, N D), else None.

    Block (i, j) is (s_i h_i) A^{i<-j} (h_j e^{-kappa gap_ij}), with
    h = sqrt|T~|, s = sign T~ from one Mie vector T~ per distinct
    (radius, eps_rel); a label with T~ = 0 gets a zero row and column.
    Each unordered pair i < j is translated once, value and gradient
    together when it holds the target: with P = diag((-1)^{l+pol}),
    A^{j<-i} = P A^{i<-j} P and grad A(-d) = -P grad A(d) P.
    """
    basis, spheres = scene.basis, scene.spheres
    kappa, eps_rel = _materials(scene, xi)
    keys = [(s.radius, e) for s, e in zip(spheres, eps_rel)]
    mie = {k: mie_diag(basis, kappa * k[0], k[1])
           for k in dict.fromkeys(keys)}
    cols = [np.sqrt(np.abs(mie[k])) for k in keys]
    rows = [np.copysign(h, mie[k])[:, None] for h, k in zip(cols, keys)]
    par = np.array([(-1.0) ** (l + pol) for pol, l, _ in basis.labels()])
    pp = par[:, None] * par
    ds, size = basis.size, len(spheres) * basis.size
    m = np.zeros((size, size))
    dm = None if target is None else np.zeros((3, size, size))
    for (i, si), (j, sj) in itertools.combinations(enumerate(spheres), 2):
        bi, bj = slice(i * ds, (i + 1) * ds), slice(j * ds, (j + 1) * ds)
        d = si.center_array - sj.center_array
        decay = math.exp(-kappa * (float(np.linalg.norm(d))
                                   - si.radius - sj.radius))
        if target in (i, j):
            a, grad = _gradient_stack(basis, KIND_OUTGOING, kappa, d)
            # d(r_i - r_j) is +dr_i and -dr_j
            if target == j:
                grad = -grad
            dm[:, bi, bj] = rows[i] * grad * (cols[j] * decay)
            dm[:, bj, bi] = rows[j] * (pp * grad) * (cols[i] * decay)
        else:
            a = translation_matrix(basis, KIND_OUTGOING, kappa, d)
        m[bi, bj] = rows[i] * a * (cols[j] * decay)
        m[bj, bi] = rows[j] * (pp * a) * (cols[i] * decay)
    return m, dm


def logdet_energy_oracle(scene: SceneConfig, xi):
    """ln det(1 - M(i xi)) straight from an LU factorization.

    Independent of the eigenvalue route used by ``energy_integrand``;
    resolves couplings down to rounding of the determinant (fine for
    ordinary dielectric contrast, not for nearly-transparent spheres).
    """
    m = _assemble(scene, xi)[0]
    sign, logabs = np.linalg.slogdet(np.eye(m.shape[0]) - m)
    if sign <= 0.0:
        raise RuntimeError(
            f"det(1 - M) not positive at xi={xi:g} (sign {sign}); "
            "passive scatterers cannot do this - check the scene")
    return float(logabs)


def _subsets(scene: SceneConfig, groups, lower=False):
    """Index arrays into M: a row per sphere group, then its l < l_max
    cut if lower; None reads all of M in place.  T is diagonal in l, and
    a block involves only its two spheres, so these principal submatrices
    are the sub-scene's M and dM, entry for entry."""
    basis = scene.basis
    ls = np.array([l for _, l, _ in basis.labels()])
    rows = []
    for group, cut in itertools.product(groups, range(1 + lower)):
        idx = np.add.outer(basis.size * np.array(sorted(group)),
                           np.flatnonzero(ls <= basis.l_max - cut)).ravel()
        rows.append(None if idx.size == ls.size * len(scene.spheres) else idx)
    return rows


def _principal(a, s):
    """Principal submatrix of a on s over its last two axes, C-contiguous
    so traces sum in the order of a scene that small; a itself for None."""
    return a if s is None else a.take(s, -2).take(s, -1)


def _energy_rows(scene: SceneConfig, xi, k, subsets):
    """ln det(1 - M) / 2 pi per row of ``_subsets`` for k None, else
    the k-event term -tr[M^k] / (2 pi k).

    sum log(1 - lam) is taken as 0.5 log1p(|lam|^2 - 2 Re lam), which
    does not round the coupling away by forming 1 - M, but the sum still
    cancels at weak contrast (tr M = 0): against a 60-digit ln det of the
    same M on an l_max 3 triple it was off by up to 3.4e-11 relative at
    eps - 1 = 1e-2 and 1.3e-7 at 1e-6.  A row that is exactly zero, such
    as a one-sphere group (M_ii = 0), has ln det 0 without ``eigvals``.
    """
    m = _assemble(scene, xi)[0]
    rows = []
    for s in subsets:
        ms = _principal(m, s)
        if k is not None:
            trace = np.sum(np.linalg.matrix_power(ms, k - 1) * ms.T)
            rows.append(-float(trace) / (_TWO_PI * k))
            continue
        if not ms.any():
            rows.append(0.0)
            continue
        lam = np.linalg.eigvals(ms)
        q = lam.real ** 2 + lam.imag ** 2 - 2.0 * lam.real   # |1-lam|^2 - 1
        if np.any(q <= -1.0):
            raise RuntimeError(
                f"det(1 - M) not positive at xi={xi:g}; passive scatterers "
                "cannot do this - check the scene")
        rows.append(0.5 * float(np.sum(np.log1p(q))) / _TWO_PI)
    return np.array(rows)


def energy_integrand(scene: SceneConfig, xi):
    """ln det(1 - M) / 2 pi, via eigenvalues of M."""
    return float(_energy_rows(scene, xi, None, [None])[0])


def _scattering_events(k, name):
    """k as an int >= 2; raises ValueError naming the argument."""
    if not isinstance(k, numbers.Integral) or k < 2:
        raise ValueError(f"{name} must be an integer number of scattering "
                         f"events >= 2, got {k!r}")
    return int(k)


# ------------------------------------------------------------------ force

def _force_args(scene: SceneConfig, target, fixed_k):
    """(target index, k): k is None for the resummed force, else fixed_k.
    Raises on a bad argument before any evaluation."""
    if len(scene.spheres) < 2:
        raise ValueError("force needs at least two spheres")
    t = scene.index_of(target)
    return t, (None if fixed_k is None
               else _scattering_events(fixed_k, "fixed_k"))


def _force_rows(scene: SceneConfig, t, xi, k, subsets):
    """(len(subsets), 3) force integrands tr[X dM/dr_t] / 2 pi, one per
    row of ``_subsets``, with X = (1 - M)^{-1} for the resummed order
    (k None) and M^{k-1} for fixed k.
    """
    m, dm = _assemble(scene, xi, t)
    rows = []
    for s in subsets:
        ms = _principal(m, s)
        if k is None:
            x = np.linalg.inv(np.eye(ms.shape[0]) - ms)
        else:
            x = np.linalg.matrix_power(ms, k - 1)
        rows.append(np.einsum("ij,aji->a", x, _principal(dm, s)))
    return np.stack(rows) / _TWO_PI


def _path_exponent(scene: SceneConfig, t, xi, k):
    """-kappa(xi) times the length of the shortest closed k-hop walk
    through sphere t, or -inf when there is none.  A max-plus power of
    the hop matrix -kappa |r_i - r_j|, no hop from a sphere to itself.
    """
    kappa, _ = _materials(scene, xi)
    centers = [s.center_array for s in scene.spheres]
    hop = np.full((len(centers), len(centers)), -math.inf)
    for i, j in itertools.permutations(range(len(centers)), 2):
        hop[i, j] = -kappa * float(np.linalg.norm(centers[i] - centers[j]))
    walk = hop
    for _ in range(k - 1):
        walk = np.max(walk[:, :, None] + hop[None, :, :], axis=1)
    return float(walk[t, t])


def force_integrand(scene: SceneConfig, target, xi, *, fixed_k=None):
    """(3,) force integrand; F = Int_0^inf (T=0) or Matsubara-summed."""
    t, k = _force_args(scene, target, fixed_k)
    return _force_rows(scene, t, xi, k, [None])[0]


# --------------------------------------------------------------- spectral

def _decay_scale(scene: SceneConfig):
    eps_b = float(scene.background.eps_imag_freq(
        XI_EPS * scene.frequency_unit))
    return 2.0 * math.sqrt(eps_b) * scene.min_gap


def _spectral_value(scene: SceneConfig, f):
    """(value, error, n_freq) for Int f d xi or its Matsubara sum."""
    count = {"n": 0}

    def counted(xi):
        count["n"] += 1
        return f(xi)

    t_red = scene.reduced_temperature
    if t_red == 0.0:
        val, err = integrate_zero_t(counted, _decay_scale(scene),
                                    scene.spectral)
    else:
        val, err, _ = matsubara_sum(counted, t_red, scene.spectral)
    return val, err, count["n"]


def _si_force_factor(scene: SceneConfig):
    if scene.length_unit_m <= 0.0:
        return 0.0
    return HBAR_C / scene.length_unit_m ** 2


def _group_forces(scene: SceneConfig, t, k, groups, truncation_error=True):
    """(force, error, n_freq) on sphere t, a (3,) row per sphere group,
    from one quadrature; the error adds each group's truncation estimate
    |F(l_max) - F(l_max - 1)|, read from its l_max - 1 row."""
    lower = truncation_error and scene.l_max >= 2
    subsets = _subsets(scene, groups, lower)
    val, qerr, n_freq = _spectral_value(
        scene, lambda xi: _force_rows(scene, t, xi, k, subsets))
    if not lower:
        return val, qerr, n_freq
    return val[::2], qerr[::2] + np.abs(val[::2] - val[1::2]), n_freq


def casimir_force(scene: SceneConfig, target, *, fixed_k=None,
                  truncation_error=True):
    """Force on the target sphere with quadrature + truncation errors,
    both from one set of frequency evaluations (``_group_forces``).
    fixed_k=k keeps only the paths with exactly k scattering events."""
    t, k = _force_args(scene, target, fixed_k)
    force, error, n_freq = _group_forces(
        scene, t, k, [range(len(scene.spheres))], truncation_error)
    expo = 0.0
    if k is not None:
        expo = _path_exponent(scene, t, 1.0 / _decay_scale(scene), k)
    return ForceResult(force=force[0], error=error[0], target=target,
                       l_max=scene.l_max, n_freq=n_freq,
                       exponent_scale=float(expo),
                       si_factor=_si_force_factor(scene))


def interaction_energy(scene: SceneConfig, *, fixed_k=None):
    """(energy, error, n_freq) in hbar c / L0; ln-det route.  The error
    is the quadrature estimate only: unlike ``casimir_force`` and
    ``target_potential`` it has no |E(l_max) - E(l_max - 1)| term."""
    if len(scene.spheres) < 2:
        raise ValueError("interaction energy needs at least two spheres")
    k = None if fixed_k is None else _scattering_events(fixed_k, "fixed_k")
    val, err, n_freq = _spectral_value(
        scene, lambda xi: _energy_rows(scene, xi, k, [None]))
    return float(val[0]), float(err[0]), n_freq


def three_body_force(scene: SceneConfig, target):
    """F(target | other two) minus the two pair forces, same settings."""
    if len(scene.spheres) != 3:
        raise ValueError("three-body decomposition needs exactly 3 spheres")
    t = scene.index_of(target)
    groups = [range(3)] + [(t, j) for j in range(3) if j != t]
    force, error, n_freq = _group_forces(scene, t, None, groups)
    return ForceResult(force=force[0] - force[1] - force[2],
                       error=error.sum(axis=0), target=target,
                       l_max=scene.l_max,
                       n_freq=n_freq, exponent_scale=0.0,
                       si_factor=_si_force_factor(scene))


def three_body_energy(scene: SceneConfig):
    """(V3, error, n_freq): E(1,2,3) - E(1,2) - E(1,3) - E(2,3).

    The error is the sum of the four energy rows' own quadrature
    estimates, not an estimate of V3's error: the rows' values cancel
    in the difference but their estimates add, so the reported error
    can exceed V3's actual error by orders of magnitude (at T = 0 on an
    eps = 4 triangle it reads 16.6 % of V3, while V3 is within 1.2e-3
    relative of a 120-node value).
    """
    if len(scene.spheres) != 3:
        raise ValueError("three-body decomposition needs exactly 3 spheres")
    subsets = _subsets(scene, [range(3), (0, 1), (0, 2), (1, 2)])
    val, err, n_freq = _spectral_value(
        scene, lambda xi: _energy_rows(scene, xi, None, subsets))
    return float(val[0] - val[1:].sum()), float(err.sum()), n_freq


def target_potential(scene: SceneConfig, target):
    """(V, error, n_freq) of the target relative to infinity, hbar c / L0.

    V = E(scene) - E(scene without the target), one quadrature of the
    row difference (``_energy_rows`` over ``_subsets``); the error adds
    the quadrature estimate and |V - V(l_max - 1)|, as for forces.
    """
    if len(scene.spheres) < 2:
        raise ValueError("potential needs at least two spheres")
    t = scene.index_of(target)
    others = [i for i in range(len(scene.spheres)) if i != t]
    subsets = _subsets(scene, [range(len(scene.spheres)), others],
                       scene.l_max >= 2)
    # rows [V] or [V, V(l_max - 1)]: the all-sphere half minus the rest
    val, qerr, n_freq = _spectral_value(scene, lambda xi: np.subtract(
        *np.split(_energy_rows(scene, xi, None, subsets), 2)))
    return float(val[0]), float(qerr[0] + abs(val[0] - val[-1])), n_freq
