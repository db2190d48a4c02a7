"""Translation operators for vector spherical waves at imaginary frequency.

A source wave centered at -d, evaluated near the origin, expands in
regular target waves:

    W^kind_{P,lm}(r + d) = sum_{P',l',mu} A_{(P'l'mu),(Plm)}(d) W^reg_{P',l'mu}(r)

valid for |r| < |d| when kind is outgoing (and everywhere, with the same
series over i_p, when kind is regular).  Rows are target labels, columns
source labels, so coefficient vectors map as c_target = A c_source.

Assembly reduces every block to the scalar addition theorem

    beta_{(l,n),(l',n')}(d) = 4 pi sum_p Z_p(kappa d) Y_{p,n-n'}(d^) G(l,n|l',n'|p)

(Z_p = e_p outgoing, i_p regular) through two exact operator identities:
the angular-momentum expansion M_lm = -c_l sum_delta v_delta(l,m)
psi_{l,m+delta} and the gradient expansion grad psi_lm =
kappa sum u^(p')_q(l,m) psi_{p',m+q}.  The resulting Gaunt-weighted
tables depend only on l_max and are cached; each evaluation contracts
them with a small (p, q) lookup of radial values times harmonics of d^.

Cartesian gradients with respect to d reuse the same tables: the lookup
entry Z_p Y_pq is replaced by its exact gradient, again via the u
expansion.  No finite differences anywhere.

Scaling: outgoing radial functions decay like e^{-kappa d}; matrices are
returned as (mantissa, exponent) pairs with the factor e^{exponent}
removed, exponent = -kappa|d| (outgoing) or +kappa|d| (regular).

Public matrices are in the real-m basis (real entries).  The production
``translation_matrix`` composes the axial operator with rotations; the
direct angular series is ``translation_matrix_direct``, kept as an
independent cross-check and as the gradient engine.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisSpec, to_real_basis
from .rotation import axis_euler_angles, rotate_block
from .specfun import RadialKind, gaunt_yyc, mod_sph_bessel, sph_harm

KIND_OUTGOING = "outgoing"
KIND_REGULAR = "regular"

_FOUR_PI = 4.0 * math.pi


# ------------------------------------------------------------ coefficients

def _v_vec(l, m, delta):
    """v_delta(l, m) in M_lm = -c_l sum_delta v_delta(l,m) psi_{l,m+delta}."""
    if delta == 1:
        lam = math.sqrt(max((l - m) * (l + m + 1.0), 0.0))
        return np.array([0.5j * lam, 0.5 * lam, 0.0])
    if delta == -1:
        lam = math.sqrt(max((l + m) * (l - m + 1.0), 0.0))
        return np.array([0.5j * lam, -0.5 * lam, 0.0])
    return np.array([0.0, 0.0, 1j * m])


def _u_vec(l, m, p_to, q):
    """u^(p_to)_q(l, m) in grad psi_lm = kappa sum u psi_{p_to, m+q}."""
    if p_to == l + 1:
        den = (2.0 * l + 1.0) * (2.0 * l + 3.0)
        if q == 0:
            return np.array([0.0, 0.0,
                             math.sqrt(((l + 1.0) ** 2 - m * m) / den)])
        if q == 1:
            b = math.sqrt((l + m + 1.0) * (l + m + 2.0) / den)
            return np.array([-0.5 * b, 0.5j * b, 0.0])
        b = math.sqrt((l - m + 1.0) * (l - m + 2.0) / den)
        return np.array([0.5 * b, 0.5j * b, 0.0])
    if p_to == l - 1:
        den = (2.0 * l - 1.0) * (2.0 * l + 1.0)
        if abs(m + q) > p_to:
            return np.zeros(3, dtype=complex)
        if q == 0:
            return np.array([0.0, 0.0, math.sqrt((l * l - m * m) / den)])
        if q == 1:
            b = math.sqrt((l - m) * (l - m - 1.0) / den)
            return np.array([0.5 * b, -0.5j * b, 0.0])
        b = math.sqrt((l + m) * (l + m - 1.0) / den)
        return np.array([-0.5 * b, -0.5j * b, 0.0])
    raise ValueError("p_to must be l - 1 or l + 1")


def _c_norm(l):
    return 1.0 / math.sqrt(l * (l + 1.0))


# ----------------------------------------------------------------- tables

def _beta_terms(l, n, lp, np_):
    """(p, weight) terms of the scalar theorem; harmonic order is n - np_."""
    if abs(n) > l or abs(np_) > lp:
        return ()
    out = []
    for p in range(abs(l - lp), l + lp + 1):
        if (l + lp + p) % 2:
            continue
        if abs(n - np_) > p:
            continue
        g = gaunt_yyc(l, n, lp, np_, p)
        if g != 0.0:
            out.append((p, _FOUR_PI * g))
    return tuple(out)


@dataclass(frozen=True)
class _SparseTable:
    rows: np.ndarray      # target scalar index
    cols: np.ndarray      # source scalar index
    ps: np.ndarray        # radial order of the term
    qs: np.ndarray        # harmonic order of the term
    ws: np.ndarray        # complex weight
    p_max: int


def _pack(acc, p_max):
    keys = sorted(acc.keys())
    rows = np.array([k[0] for k in keys], dtype=np.int32)
    cols = np.array([k[1] for k in keys], dtype=np.int32)
    ps = np.array([k[2] for k in keys], dtype=np.int32)
    qs = np.array([k[3] for k in keys], dtype=np.int32)
    ws = np.array([acc[k] for k in keys], dtype=complex)
    keep = np.abs(ws) > 1e-300
    return _SparseTable(rows[keep], cols[keep], ps[keep], qs[keep],
                        ws[keep], p_max)


@lru_cache(maxsize=8)
def _build_tables(l_max):
    """Gaunt-weighted series tables for the scalar-polarization blocks.

    mm: coefficients of target M from source M.
    mn: coefficients of target M from source N.
    The remaining blocks follow from curl duality (NN = MM, NM = -MN).
    """
    spec = BasisSpec(l_max)
    acc_mm = {}
    acc_mn = {}
    p_max = 0
    deltas = (-1, 0, 1)
    for l in range(1, l_max + 1):
        cl = _c_norm(l)
        for m in range(-l, l + 1):
            col = spec.scalar_index(l, m)
            vsrc = {d: _v_vec(l, m, d) for d in deltas}
            for lp in range(1, l_max + 1):
                clp = _c_norm(lp)
                for mu in range(-lp, lp + 1):
                    row = spec.scalar_index(lp, mu)
                    for dp in deltas:
                        nt = mu - dp           # target scalar order
                        if abs(nt) > lp:
                            continue
                        vtgt = _v_vec(lp, nt, dp)
                        # -- M source ------------------------------------
                        for d in deltas:
                            ns = m + d
                            if abs(ns) > l:
                                continue
                            dot = complex(vsrc[d] @ vtgt)
                            if dot == 0.0:
                                continue
                            w0 = -cl * clp * dot
                            for p, g in _beta_terms(l, ns, lp, nt):
                                key = (row, col, p, ns - nt)
                                acc_mm[key] = acc_mm.get(key, 0.0) + w0 * g
                                p_max = max(p_max, p)
                        # -- N source: N_lm expands via (u x v) ----------
                        for d in deltas:
                            ns0 = m + d
                            if abs(ns0) > l:
                                continue
                            for p_src in (l - 1, l + 1):
                                if p_src < 0:
                                    continue
                                for q in deltas:
                                    ns = ns0 + q
                                    if abs(ns) > p_src:
                                        continue
                                    u = _u_vec(l, ns0, p_src, q)
                                    cross = np.cross(u, vsrc[d])
                                    dot = complex(cross @ vtgt)
                                    if dot == 0.0:
                                        continue
                                    w0 = -cl * clp * dot
                                    for p, g in _beta_terms(p_src, ns, lp, nt):
                                        key = (row, col, p, ns - nt)
                                        acc_mn[key] = acc_mn.get(key, 0.0) \
                                            + w0 * g
                                        p_max = max(p_max, p)
    return _pack(acc_mm, p_max), _pack(acc_mn, p_max)


# ------------------------------------------------------------- evaluation

def _scaled_radial(kind, p_max, x):
    """Z_p(x) e^{-+x} for p = 0..p_max (e-kind outgoing, i-kind regular)."""
    p = np.arange(p_max + 1)
    if kind == KIND_OUTGOING:
        return (-1.0) ** p * (2.0 / math.pi) * mod_sph_bessel(
            RadialKind.DECAYING, p, x, scaled=True)
    return mod_sph_bessel(RadialKind.REGULAR, p, x, scaled=True)


def _harmonic_lut(p_max, theta, phi):
    """Y_pq(theta, phi) table, indexed [p, q + p_max]; 0 where |q| > p."""
    return sph_harm(np.arange(p_max + 1)[:, None],
                    np.arange(-p_max, p_max + 1), theta, phi)


def _gradient_lut(kind, p_max, kappa, dist, theta, phi):
    """grad_d [Z_p(kappa d) Y_pq(d^)] (scaled), indexed [axis, p, q + p_max]."""
    z = _scaled_radial(kind, p_max + 1, kappa * dist)
    y = _harmonic_lut(p_max + 1, theta, phi)
    off = p_max + 1
    out = np.zeros((3, p_max + 1, 2 * p_max + 1), dtype=complex)
    for p in range(p_max + 1):
        for q in range(-p, p + 1):
            vec = np.zeros(3, dtype=complex)
            for p_to in (p - 1, p + 1):
                if p_to < 0:
                    continue
                for qs in (-1, 0, 1):
                    u = _u_vec(p, q, p_to, qs)
                    if not u.any():
                        continue
                    vec += u * (z[p_to] * y[p_to, q + qs + off])
            out[:, p, q + p_max] = kappa * vec
    return out


def _contract(table, lut, ds, p_max):
    vals = table.ws * lut[table.ps, table.qs + p_max]
    flat = table.rows.astype(np.int64) * ds + table.cols
    re = np.bincount(flat, weights=vals.real, minlength=ds * ds)
    im = np.bincount(flat, weights=vals.imag, minlength=ds * ds)
    return (re + 1j * im).reshape(ds, ds)


def _assemble(basis, mm, mn):
    ds = basis.scalar_size
    out = np.empty((2 * ds, 2 * ds), dtype=complex)
    out[:ds, :ds] = mm
    out[:ds, ds:] = mn
    out[ds:, :ds] = -mn
    out[ds:, ds:] = mm
    return out


# -------------------------------------------------------------- public API

@dataclass
class TranslationBlock:
    """Real-m basis translation operator as mantissa * e^{exponent}."""

    matrix: np.ndarray
    exponent: float
    kind: str
    kappa: float
    displacement: np.ndarray
    basis: BasisSpec

    @property
    def full(self):
        """Unscaled matrix; may overflow/underflow for extreme kappa d."""
        return self.matrix * math.exp(self.exponent)


def _check_args(basis, kind, kappa, dist):
    if kind not in (KIND_OUTGOING, KIND_REGULAR):
        raise ValueError(f"kind must be '{KIND_OUTGOING}' or '{KIND_REGULAR}'")
    if kappa <= 0.0 or dist <= 0.0:
        raise ValueError("kappa and |displacement| must be positive")


def _block_exponent(kind, kappa, dist):
    return -kappa * dist if kind == KIND_OUTGOING else kappa * dist


def translation_matrix_direct(basis: BasisSpec, kind, kappa, displacement):
    """Translation operator from the angular series at general d^."""
    d = np.asarray(displacement, dtype=float)
    dist = float(np.linalg.norm(d))
    _check_args(basis, kind, kappa, dist)
    theta = math.acos(max(-1.0, min(1.0, d[2] / dist)))
    phi = math.atan2(d[1], d[0])
    tab_mm, tab_mn = _build_tables(basis.l_max)
    p_max = tab_mm.p_max
    lut = (_scaled_radial(kind, p_max, kappa * dist)[:, None]
           * _harmonic_lut(p_max, theta, phi))
    ds = basis.scalar_size
    mm = _contract(tab_mm, lut, ds, p_max)
    mn = _contract(tab_mn, lut, ds, p_max)
    mat = to_real_basis(_assemble(basis, mm, mn), basis.l_max)
    return TranslationBlock(mat, _block_exponent(kind, kappa, dist), kind,
                            float(kappa), d, basis)


def axial_translation(basis: BasisSpec, kind, kappa, distance):
    """Translation operator for displacement d = distance * z^."""
    return translation_matrix_direct(basis, kind, kappa,
                                     (0.0, 0.0, float(distance)))


def translation_matrix(basis: BasisSpec, kind, kappa, displacement):
    """Translation operator, composed as rotation * axial * rotation^T."""
    d = np.asarray(displacement, dtype=float)
    dist = float(np.linalg.norm(d))
    _check_args(basis, kind, kappa, dist)
    if d[0] == 0.0 and d[1] == 0.0 and d[2] > 0.0:
        return axial_translation(basis, kind, kappa, dist)
    ax = axial_translation(basis, kind, kappa, dist)
    alpha, beta = axis_euler_angles(d)
    rot = rotate_block(basis, alpha, beta, 0.0)
    mat = rot @ ax.matrix @ rot.T
    return TranslationBlock(mat, ax.exponent, kind, float(kappa), d, basis)


def _gradient_stack(basis: BasisSpec, kind, kappa, displacement):
    """(grad (3, D, D), exponent): full gradient is grad * e^{exponent}."""
    d = np.asarray(displacement, dtype=float)
    dist = float(np.linalg.norm(d))
    _check_args(basis, kind, kappa, dist)
    theta = math.acos(max(-1.0, min(1.0, d[2] / dist)))
    phi = math.atan2(d[1], d[0])
    tab_mm, tab_mn = _build_tables(basis.l_max)
    p_max = tab_mm.p_max
    glut = _gradient_lut(kind, p_max, kappa, dist, theta, phi)
    # the lookup differentiates the unscaled series but evaluates with
    # scaled radials, so the contraction is already e^{-exponent} d/dd A
    ds = basis.scalar_size
    dim = basis.size
    exponent = _block_exponent(kind, kappa, dist)
    out = np.empty((3, dim, dim))
    for a in range(3):
        mm = _contract(tab_mm, glut[a], ds, p_max)
        mn = _contract(tab_mn, glut[a], ds, p_max)
        out[a] = to_real_basis(_assemble(basis, mm, mn), basis.l_max)
    return out, exponent


def translation_gradient(basis: BasisSpec, kind, kappa, displacement):
    """Cartesian gradient d/dd of the translation operator.

    Returns one TranslationBlock per axis, sharing the value operator's
    exponent (full gradient component = matrix * e^{exponent}).
    """
    d = np.asarray(displacement, dtype=float)
    grad, exponent = _gradient_stack(basis, kind, kappa, displacement)
    return tuple(
        TranslationBlock(grad[a], exponent, kind, float(kappa), d, basis)
        for a in range(3))


def gradient_fd_check(basis: BasisSpec, kappa, displacement,
                      kind=KIND_OUTGOING, step=1e-4):
    """Max relative deviation of the analytic gradient from Richardson
    finite differences of the value operator.

    The two routes share nothing past the coupling tables: the gradient
    contracts shifted-degree lookups, the value route plain ones.
    """
    d = np.asarray(displacement, dtype=float)
    grad, expo = _gradient_stack(basis, kind, kappa, d)

    def full(dv):
        blk = translation_matrix(basis, kind, kappa, dv)
        return blk.matrix * math.exp(blk.exponent - expo)

    h = step * (1.0 + float(np.linalg.norm(d)))
    scale = float(np.abs(grad).max())
    worst = 0.0
    for a in range(3):
        e_a = np.zeros(3)
        e_a[a] = 1.0
        g1 = (full(d + h * e_a) - full(d - h * e_a)) / (2.0 * h)
        g2 = (full(d + 0.5 * h * e_a) - full(d - 0.5 * h * e_a)) / h
        rich = (4.0 * g2 - g1) / 3.0
        worst = max(worst, float(np.abs(rich - grad[a]).max()) / scale)
    return worst
