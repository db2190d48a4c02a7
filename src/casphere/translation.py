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

Cartesian gradients with respect to d come from the axial operator: its
commutators with the rotation generators, and its series with Z_p' in
place of Z_p.  No finite differences anywhere.

Scaling: outgoing radial functions decay like e^{-kappa d}; matrices are
returned as (mantissa, exponent) pairs with the factor e^{exponent}
removed, exponent = -kappa|d| (outgoing) or +kappa|d| (regular).

Public matrices are in the real-m basis (real entries).  The production
``translation_matrix`` composes the axial operator with rotations; the
direct angular series at a general d^ is ``translation_matrix_direct``,
kept as an independent cross-check.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisSpec, to_real_basis
from .rotation import axis_euler_angles, rotate_block
from .specfun import (RadialKind, gaunt_yyc, mod_sph_bessel,
                      mod_sph_bessel_dx, sph_harm)

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

def _scaled_radial(kind, p_max, x, dx=False):
    """Z_p(x) e^{-+x} (Z_p'(x) e^{-+x} with dx), p = 0..p_max, Z = e or i."""
    p = np.arange(p_max + 1)
    radial = mod_sph_bessel_dx if dx else mod_sph_bessel
    if kind == KIND_OUTGOING:
        return (-1.0) ** p * (2.0 / math.pi) * radial(
            RadialKind.DECAYING, p, x, scaled=True)
    return radial(RadialKind.REGULAR, p, x, scaled=True)


def _contract(table, lut, ds, p_max):
    vals = table.ws * lut[table.ps, table.qs + p_max]
    flat = table.rows.astype(np.int64) * ds + table.cols
    re = np.bincount(flat, weights=vals.real, minlength=ds * ds)
    im = np.bincount(flat, weights=vals.imag, minlength=ds * ds)
    return (re + 1j * im).reshape(ds, ds)


def _series(basis, kind, x, theta, phi, dx=False):
    """Real-basis operator: the coupling tables contracted with the scaled
    Z_p(x) (Z_p'(x) with dx) times Y_pq(theta, phi)."""
    tab_mm, tab_mn = _build_tables(basis.l_max)
    p_max = tab_mm.p_max
    # indexed [p, q + p_max]; Y_pq is 0 where |q| > p
    lut = (_scaled_radial(kind, p_max, x, dx)[:, None]
           * sph_harm(np.arange(p_max + 1)[:, None],
                      np.arange(-p_max, p_max + 1), theta, phi))
    ds = basis.scalar_size
    mm = _contract(tab_mm, lut, ds, p_max)
    mn = _contract(tab_mn, lut, ds, p_max)
    return to_real_basis(np.block([[mm, mn], [-mn, mm]]), basis.l_max)


@lru_cache(maxsize=8)
def _generators(l_max):
    """Real-basis (G_x, G_y) with rotate_block = 1 + eps G_a + O(eps^2)
    for a rotation by eps about x^ or y^.  In the complex basis G_a is
    -i L_a: its (l, m + delta), (l, m) entry is -v_delta(l, m)_a."""
    spec = BasisSpec(l_max)
    gen = np.zeros((2, spec.scalar_size, spec.scalar_size), dtype=complex)
    for l in range(1, l_max + 1):
        for m in range(-l, l):
            row, col = spec.scalar_index(l, m + 1), spec.scalar_index(l, m)
            gen[:, row, col] = -_v_vec(l, m, 1)[:2]
            gen[:, col, row] = -_v_vec(l, m + 1, -1)[:2]
    # the same block acts on both polarizations
    return tuple(np.kron(np.eye(2), to_real_basis(g, l_max)) for g in gen)


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
    phi, theta = axis_euler_angles(d)
    mat = _series(basis, kind, kappa * dist, theta, phi)
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
    if d[0] == 0.0 and d[1] == 0.0 and d[2] > 0.0:
        return axial_translation(basis, kind, kappa, dist)
    ax = axial_translation(basis, kind, kappa, dist)
    alpha, beta = axis_euler_angles(d)
    rot = rotate_block(basis, alpha, beta, 0.0)
    mat = rot @ ax.matrix @ rot.T
    return TranslationBlock(mat, ax.exponent, kind, float(kappa), d, basis)


def _gradient_stack(basis: BasisSpec, kind, kappa, displacement):
    """(grad (3, D, D), exponent): full gradient is grad * e^{exponent}.

    At d = |d| z^ a transverse shift rotates the axial operator A, so
    d_x A = [G_y, A] / |d| and d_y A = [A, G_x] / |d|, while d_z A is
    kappa times the Z_p' series.  At a general d the three rotate like
    the value, and their Cartesian index by Rz(alpha) Ry(beta).
    """
    d = np.asarray(displacement, dtype=float)
    dist = float(np.linalg.norm(d))
    ax = axial_translation(basis, kind, kappa, dist).matrix
    g_x, g_y = _generators(basis.l_max)
    axial = np.stack([(g_y @ ax - ax @ g_y) / dist,
                      (ax @ g_x - g_x @ ax) / dist,
                      kappa * _series(basis, kind, kappa * dist, 0.0, 0.0,
                                      dx=True)])
    alpha, beta = axis_euler_angles(d)
    rot = rotate_block(basis, alpha, beta, 0.0)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cart = np.array([[ca * cb, -sa, ca * sb], [sa * cb, ca, sa * sb],
                     [-sb, 0.0, cb]])
    grad = np.einsum("ab,bij->aij", cart, rot @ axial @ rot.T)
    return grad, _block_exponent(kind, kappa, dist)


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

    The routes share the axial operator and the rotations, not the
    derivatives: rotation generators and Z_p' on one side, values at
    six nearby displacements on the other.
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
