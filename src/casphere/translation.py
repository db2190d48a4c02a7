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
kappa sum u^(p')_q(l,m) psi_{p',m+q}.

Production evaluates the series only on the z axis, where Y_pq(z^)
vanishes unless q = 0: the axial operator is W @ Z_p(kappa d) with
real-basis weights W[row, col, p] cached per l_max.  The full Gaunt
tables over (row, col, p, q), contracted with Z_p times Y_pq(d^), give
the general-direction series, kept as the test and selfcheck oracle.

Cartesian gradients with respect to d come from the axial operator: its
commutators with the rotation generators, and W @ Z_p'.  No finite
differences anywhere.

The kind of a translation is a ``specfun.RadialKind``: ``KIND_OUTGOING``
(e_p) or ``KIND_REGULAR`` (i_p).  Scaling: the series reads the scaled
tables e_p(x) e^{+x} and i_p(x) e^{-x}, so every operator and gradient
comes back as a plain real array with the factor e^{-kappa|d|}
(outgoing) or e^{+kappa|d|} (regular) removed; callers apply it.

Public matrices are in the real-m basis (real entries).  The production
``translation_matrix`` composes the axial operator with rotations; the
direct angular series at a general d^ is ``translation_matrix_direct``,
kept as the cross-check.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisSpec, to_real_basis
from .rotation import axis_euler_angles, rotate_block
from .specfun import (RadialKind, _value_and_dx, gaunt_yyc, mod_sph_bessel,
                      sph_harm)

KIND_OUTGOING = RadialKind.OUTGOING
KIND_REGULAR = RadialKind.REGULAR

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


def _cross(a, b):
    """a x b for 3-vectors, without np.cross's per-call overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


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


def _terms(l, m, lp, mu, axial=False):
    """(block, p, q, weight) terms coupling source (l, m) to target (lp, mu).

    block 0 is MM (target M from source M), block 1 is MN (target M from
    source N); q is the harmonic order of Y_pq(d^).  With axial only the
    q = 0 terms are made: Y_pq(z^) vanishes for q != 0.
    """
    norm = -_c_norm(l) * _c_norm(lp)
    for dp in (-1, 0, 1):
        nt = mu - dp           # target scalar order
        if abs(nt) > lp:
            continue
        vtgt = _v_vec(lp, nt, dp)
        for d in (-1, 0, 1):
            ns0 = m + d
            if abs(ns0) > l:
                continue
            vsrc = _v_vec(l, m, d)
            # M_lm is a v-combination of psi_l; N_lm expands via (u x v)
            sources = [(0, l, 0)] + [(1, p_src, q) for p_src in (l - 1, l + 1)
                                     for q in (-1, 0, 1)
                                     if abs(ns0 + q) <= p_src]
            for block, l_src, q in sources:
                ns = ns0 + q
                if axial and ns != nt:
                    continue
                vec = _cross(_u_vec(l, ns0, l_src, q), vsrc) if block else vsrc
                dot = complex(vec @ vtgt)
                if dot == 0.0:
                    continue
                for p, g in _beta_terms(l_src, ns, lp, nt):
                    yield block, p, ns - nt, norm * dot * g


def _scalar_pairs(l_max):
    """((col, (l, m)), (row, (lp, mu))) over one polarization's labels."""
    lms = [(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]
    return itertools.product(enumerate(lms), repeat=2)


@lru_cache(maxsize=8)
def _build_tables(l_max):
    """Gaunt-weighted series tables for the scalar-polarization blocks.

    mm: coefficients of target M from source M.
    mn: coefficients of target M from source N.
    The remaining blocks follow from curl duality (NN = MM, NM = -MN).
    """
    acc = ({}, {})
    p_max = 0
    for (col, (l, m)), (row, (lp, mu)) in _scalar_pairs(l_max):
        for block, p, q, w in _terms(l, m, lp, mu):
            key = (row, col, p, q)
            acc[block][key] = acc[block].get(key, 0.0) + w
            p_max = max(p_max, p)
    return _pack(acc[0], p_max), _pack(acc[1], p_max)


@lru_cache(maxsize=8)
def _axial_weights(l_max):
    """Read-only real-basis W[row, col, p]: the operator at d = |d| z^ is
    W @ Z_p(kappa |d|), p = 0..2 l_max + 1.

    The q = 0 terms of the scalar theorem with Y_p0(z^) folded in; the
    axial operator conserves m, so only target m = source m is visited,
    and only for m >= 0: the mirror through the xz-plane makes MM even
    and MN odd in m.
    """
    ds = l_max * (l_max + 2)
    w = np.zeros((2, 2 * l_max + 2, ds, ds), dtype=complex)
    for (col, (l, m)), (row, (lp, mu)) in _scalar_pairs(l_max):
        if mu == m >= 0:
            for block, p, _, wt in _terms(l, m, lp, mu, axial=True):
                val = wt * math.sqrt((2 * p + 1) / _FOUR_PI)
                w[block, p, row, col] += val
                if m:   # (l, -m) sits 2 m below (l, m)
                    w[block, p, row - 2 * m, col - 2 * m] += \
                        (-1) ** block * val
    out = np.empty((2 * ds, 2 * ds, 2 * l_max + 2))
    for p in range(out.shape[-1]):
        mm, mn = w[:, p]
        out[..., p] = to_real_basis(np.block([[mm, mn], [-mn, mm]]), l_max)
    out.flags.writeable = False
    return out


# ------------------------------------------------------------- evaluation

def _contract(table, lut, ds, p_max):
    vals = table.ws * lut[table.ps, table.qs + p_max]
    flat = table.rows.astype(np.int64) * ds + table.cols
    re = np.bincount(flat, weights=vals.real, minlength=ds * ds)
    im = np.bincount(flat, weights=vals.imag, minlength=ds * ds)
    return (re + 1j * im).reshape(ds, ds)


def _series(basis, kind, x, theta, phi):
    """Real-basis operator: the coupling tables contracted with the scaled
    Z_p(x) times Y_pq(theta, phi)."""
    tab_mm, tab_mn = _build_tables(basis.l_max)
    p_max = tab_mm.p_max
    # indexed [p, q + p_max]; Y_pq is 0 where |q| > p
    p = np.arange(p_max + 1)
    lut = (mod_sph_bessel(kind, p, x, scaled=True)[:, None]
           * sph_harm(p[:, None], np.arange(-p_max, p_max + 1), theta, phi))
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

def _check(kind, kappa, dist):
    """Raise ValueError unless kind is a RadialKind and kappa, dist > 0."""
    if kappa <= 0.0 or dist <= 0.0:
        raise ValueError("kappa and |displacement| must be positive")
    RadialKind(kind)


def translation_matrix_direct(basis: BasisSpec, kind, kappa, displacement):
    """Translation operator from the angular series at general d^."""
    d = np.asarray(displacement, dtype=float)
    dist = float(np.linalg.norm(d))
    _check(kind, kappa, dist)
    phi, theta = axis_euler_angles(d)
    return _series(basis, kind, kappa * dist, theta, phi)


def axial_translation(basis: BasisSpec, kind, kappa, distance):
    """Translation operator for displacement d = distance * z^."""
    dist = float(distance)
    _check(kind, kappa, dist)
    w = _axial_weights(basis.l_max)
    return w @ mod_sph_bessel(kind, np.arange(w.shape[-1]), kappa * dist,
                              scaled=True)


def _turn(basis, d, ax):
    """(R ax R^T, R, alpha, beta): the axial operator turned to d^ by
    R = rotate_block(alpha, beta, 0); on +z^, where R is 1 up to
    rounding, ax itself."""
    alpha, beta = axis_euler_angles(d)
    rot = rotate_block(basis, alpha, beta, 0.0)
    if d[0] == 0.0 and d[1] == 0.0 and d[2] > 0.0:
        return ax, rot, alpha, beta
    return rot @ ax @ rot.T, rot, alpha, beta


def translation_matrix(basis: BasisSpec, kind, kappa, displacement):
    """Translation operator, composed as rotation * axial * rotation^T."""
    d = np.asarray(displacement, dtype=float)
    ax = axial_translation(basis, kind, kappa, float(np.linalg.norm(d)))
    return _turn(basis, d, ax)[0]


def _gradient_stack(basis: BasisSpec, kind, kappa, displacement):
    """(value, grad): the operator (D, D) and its Cartesian gradient
    (3, D, D) from one Z_p, Z_p' table and one rotation; value is
    ``translation_matrix``'s, bit for bit.

    At d = |d| z^ a transverse shift rotates the axial operator A, so
    d_x A = [G_y, A] / |d| and d_y A = [A, G_x] / |d|, while d_z A is
    kappa times the Z_p' series.  At a general d the three rotate like
    the value, and their Cartesian index by Rz(alpha) Ry(beta).
    """
    d = np.asarray(displacement, dtype=float)
    dist = float(np.linalg.norm(d))
    _check(kind, kappa, dist)
    w = _axial_weights(basis.l_max)
    z, dz = _value_and_dx(kind, np.arange(w.shape[-1]), kappa * dist, True)
    ax = w @ z
    g_x, g_y = _generators(basis.l_max)
    axial = np.stack([(g_y @ ax - ax @ g_y) / dist,
                      (ax @ g_x - g_x @ ax) / dist, kappa * (w @ dz)])
    value, rot, alpha, beta = _turn(basis, d, ax)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cart = np.array([[ca * cb, -sa, ca * sb], [sa * cb, ca, sa * sb],
                     [-sb, 0.0, cb]])
    grad = np.einsum("ab,bij->aij", cart, rot @ axial @ rot.T)
    return value, grad


def translation_gradient(basis: BasisSpec, kind, kappa, displacement):
    """Cartesian gradient d/dd of the translation operator, (3, D, D),
    without the same e^{-+kappa|d|} as the value."""
    return _gradient_stack(basis, kind, kappa, displacement)[1]


def gradient_fd_check(basis: BasisSpec, kappa, displacement,
                      kind=KIND_OUTGOING):
    """Max relative deviation of the analytic gradient from Richardson
    finite differences of the value operator, step 1e-4 (1 + |d|).

    The routes share the axial operator and the rotations, not the
    derivatives: rotation generators and Z_p' on one side, values at
    six nearby displacements on the other.
    """
    d = np.asarray(displacement, dtype=float)
    grad = _gradient_stack(basis, kind, kappa, d)[1]

    def exponent(dv):
        """ln of the factor e^{-+kappa|dv|} the operators come without."""
        x = kappa * float(np.linalg.norm(dv))
        return -x if RadialKind(kind) is KIND_OUTGOING else x

    def full(dv):
        return (translation_matrix(basis, kind, kappa, dv)
                * math.exp(exponent(dv) - exponent(d)))

    h = 1e-4 * (1.0 + float(np.linalg.norm(d)))
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
