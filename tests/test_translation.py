"""Translation operators against the addition theorem, by quadrature.

The oracle route evaluates displaced vector wave fields directly from
scipy Bessel functions and spherical harmonics (tests/helpers.py) and
projects them back onto regular waves over a sphere of probe points;
the package's recurrence-built operators must reproduce those
projections.  The frozen number below is the sphere-quadrature value of
the (TM,1,0)->(TM,1,0) entry at kappa=1, |d|=3.
"""

import math

import numpy as np
import pytest

import helpers
import casphere.translation as tr
from casphere.basis import POL_TM, BasisSpec, real_combination_matrix
from casphere.mie import ConstantPermittivity
from casphere.scattering import (SceneConfig, SphereSpec, casimir_force,
                                 three_body_energy)
from casphere.spectral import SpectralSettings
from casphere.translation import (KIND_OUTGOING, KIND_REGULAR,
                                  _gradient_stack, axial_translation,
                                  translation_matrix,
                                  translation_matrix_direct)

KAPPA = 1.0
# sphere-quadrature projection of the displaced outgoing field, unscaled
A_NN_10_10_D3 = -0.022127585941271864


def to_complex_basis(block, l_max):
    c = real_combination_matrix(l_max)
    return c.T @ block @ np.conj(c)


def p_channel_projection(kappa, d, l_src, m_src, l_tgt, m_tgt,
                         n_theta=40, n_phi=80, r_probe=1.0):
    """A^NN entry by projecting the displaced outgoing N field.

    Expands N^out_{l m}(x + d z^) in regular waves about the origin and
    reads off the N_{l' m'} coefficient from the radial (r^ Y) channel,
    which the M waves cannot reach.
    """
    dirs, w = helpers.sphere_grid(n_theta, n_phi)
    pts = r_probe * dirs
    field = helpers.field_n("outgoing", l_src, m_src, kappa,
                            pts + np.array([0.0, 0.0, d]))
    _, theta, phi = helpers.to_spherical(pts)
    y = helpers.ylm(l_tgt, m_tgt, theta, phi)
    proj = np.sum(w * np.conj(y) * np.sum(dirs * field, axis=-1))
    radial = (math.sqrt(l_tgt * (l_tgt + 1.0))
              * float(helpers.mod_i(l_tgt, kappa * r_probe))
              / (kappa * r_probe))
    return complex(proj / radial)


# ------------------------------------------------------------ structure

def test_zero_shift_is_identity():
    basis = BasisSpec(3)
    for d in (1e-6, 1e-9):
        a = axial_translation(basis, KIND_REGULAR, KAPPA, d)
        # deviation is linear in kappa d
        assert np.abs(a - np.eye(basis.size)).max() < 2.0 * d


def test_axial_m_selection_exact():
    basis = BasisSpec(3)
    a = axial_translation(basis, KIND_OUTGOING, KAPPA, 3.0)
    labels = basis.labels()
    # complex-m basis: m' = m exactly
    a_c = to_complex_basis(a, 3)
    scale = np.abs(a_c).max()
    for i, (p1, l1, m1) in enumerate(labels):
        for j, (p2, l2, m2) in enumerate(labels):
            if m1 != m2:
                assert abs(a_c[i, j]) < 1e-14 * scale
    # real-m basis: same-pol couples m'=m, cross-pol couples m'=-m,
    # everything else is an exact zero (cross-pol carries the i*m factor)
    for i, (p1, l1, m1) in enumerate(labels):
        for j, (p2, l2, m2) in enumerate(labels):
            if (p1 == p2 and m1 != m2) or (p1 != p2 and m1 != -m2):
                assert a[i, j] == 0.0
    # the i*m factor kills the cross-pol m=0 entries
    for l1 in range(1, 4):
        for l2 in range(1, 4):
            assert a[basis.index(0, l1, 0), basis.index(1, l2, 0)] == 0.0


def test_invalid_arguments_raise():
    basis = BasisSpec(1)
    with pytest.raises(ValueError):
        translation_matrix(basis, KIND_OUTGOING, KAPPA, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        axial_translation(basis, "incoming", KAPPA, 2.0)
    with pytest.raises(ValueError):
        axial_translation(basis, "k", KAPPA, 2.0)
    with pytest.raises(ValueError):
        axial_translation(basis, KIND_OUTGOING, -1.0, 2.0)
    with pytest.raises(ValueError):
        translation_matrix_direct(basis, "k", KAPPA, [0.0, 0.0, 2.0])


# ---------------------------------------------------- quadrature oracle

def test_axial_entry_matches_sphere_quadrature():
    basis = BasisSpec(2)
    a = axial_translation(basis, KIND_OUTGOING, KAPPA, 3.0)
    idx = basis.index(POL_TM, 1, 0)
    got = a[idx, idx] * math.exp(-KAPPA * 3.0)
    assert got == pytest.approx(A_NN_10_10_D3, rel=5e-12)
    live = p_channel_projection(KAPPA, 3.0, 1, 0, 1, 0)
    assert abs(live.imag) < 1e-15
    assert got == pytest.approx(live.real, rel=1e-11)


def test_general_entries_match_sphere_quadrature():
    # off-diagonal and l-changing entries, still axial so m is conserved
    basis = BasisSpec(2)
    a = axial_translation(basis, KIND_OUTGOING, KAPPA, 2.5)
    for (ls, ms), (lt, mt) in [((1, 0), (2, 0)), ((2, 1), (1, 1)),
                               ((2, -1), (2, -1))]:
        got = (a[basis.index(POL_TM, lt, mt), basis.index(POL_TM, ls, ms)]
               * math.exp(-KAPPA * 2.5))
        live = p_channel_projection(KAPPA, 2.5, ls, ms, lt, mt)
        assert got == pytest.approx(live.real, rel=1e-10)


def test_field_completeness_at_generic_displacement():
    # the expanded field must reproduce the displaced outgoing field
    # pointwise, improving with truncation order
    dvec = np.array([0.9, -1.4, 2.2])
    rng = np.random.default_rng(3)
    probe = 0.1 * np.linalg.norm(dvec) * np.stack(
        [v / np.linalg.norm(v) for v in rng.normal(size=(6, 3))])
    exact = helpers.field_n("outgoing", 1, 1, KAPPA, probe + dvec)
    devs = []
    for lm in (2, 3, 4):
        basis = BasisSpec(lm)
        a = translation_matrix(basis, KIND_OUTGOING, KAPPA, dvec)
        a_c = to_complex_basis(a * math.exp(-KAPPA * np.linalg.norm(dvec)),
                               lm)
        ds = basis.scalar_size
        approx = helpers.translated_field_sum(
            a_c[0:ds, ds:], a_c[ds:, ds:], None, 1, 1, KAPPA, basis, probe)
        devs.append(np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))
    assert devs[2] < 2e-3
    assert devs[0] > devs[1] > devs[2]


# ------------------------------------------------- algebraic properties

def test_plus_z_displacement_equals_axial():
    basis = BasisSpec(3)
    ax = axial_translation(basis, KIND_OUTGOING, KAPPA, 2.7)
    gen = translation_matrix(basis, KIND_OUTGOING, KAPPA, [0.0, 0.0, 2.7])
    assert np.array_equal(gen, ax)


def test_rotation_route_matches_direct_angular_series():
    # two construction routes: rotations around the axial weights vs
    # the Gaunt tables' series at general direction; they share only
    # the term enumeration, restricted to q = 0 and m' = m on the axis
    basis = BasisSpec(3)
    for dvec in ([1.3, -0.8, 2.1], [0.0, 2.4, -1.0], [-1.1, -1.7, 0.4]):
        a = translation_matrix(basis, KIND_OUTGOING, KAPPA, dvec)
        b = translation_matrix_direct(basis, KIND_OUTGOING, KAPPA, dvec)
        assert np.abs(a - b).max() < 1e-11 * np.abs(a).max()


@pytest.mark.parametrize("l_max", range(1, 7))
def test_production_matches_direct_series_at_random_directions(l_max):
    basis = BasisSpec(l_max)
    rng = np.random.default_rng(100 + l_max)
    for dvec in rng.normal(size=(3, 3)) * 2.0:
        for kind in (KIND_OUTGOING, KIND_REGULAR):
            a = translation_matrix(basis, kind, 0.8, dvec)
            b = translation_matrix_direct(basis, kind, 0.8, dvec)
            assert np.abs(a - b).max() < 1e-12 * np.abs(b).max()


def test_axial_weights_couple_only_equal_abs_m():
    basis = BasisSpec(4)
    w = tr._axial_weights(4)
    assert not w.flags.writeable
    abs_m = np.array([abs(m) for (_, _, m) in basis.labels()])
    assert np.all(w[abs_m[:, None] != abs_m[None, :]] == 0.0)
    assert np.abs(w).max() > 0.0


def test_production_never_builds_the_gaunt_tables(monkeypatch):
    # the tables and the general-direction series are the oracle only
    def oracle_only(*args, **kwargs):
        raise AssertionError("oracle route reached from production")

    for name in ("_build_tables", "_series", "sph_harm"):
        monkeypatch.setattr(tr, name, oracle_only)
    fast = SpectralSettings(n_nodes=12)
    eps = ConstantPermittivity(2.6)
    pair = SceneConfig(spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, eps),
                                SphereSpec("b", (0.3, -0.4, 3.5), 1.0, eps)),
                       l_max=2, spectral=fast)
    assert np.all(np.isfinite(casimir_force(pair, "b").force))
    trio = SceneConfig(spheres=pair.spheres + (
        SphereSpec("c", (2.9, 0.2, 1.4), 0.8, eps),), l_max=1, spectral=fast)
    assert math.isfinite(three_body_energy(trio)[0])


def test_reciprocity_under_displacement_reversal():
    # A(-d) = P A(d) P and grad A(-d) = -P grad A(d) P with
    # P = diag((-1)^{l+pol}); the removed e^{-kappa|d|} is even in d
    basis = BasisSpec(3)
    par = np.array([(-1.0) ** (l + pol) for (pol, l, m) in basis.labels()])
    pp = par[:, None] * par[None, :]
    for dvec in ([1.3, -0.8, 2.1], [0.0, 0.0, 2.7], [2.4, 0.0, 0.0]):
        dvec = np.array(dvec)
        for kappa in (KAPPA, 0.3):
            a_p = translation_matrix(basis, KIND_OUTGOING, kappa, dvec)
            a_m = translation_matrix(basis, KIND_OUTGOING, kappa, -dvec)
            scale = np.abs(a_p).max()
            assert np.abs(a_m - pp * a_p).max() < 1e-13 * scale
            _, g_p = _gradient_stack(basis, KIND_OUTGOING, kappa, dvec)
            _, g_m = _gradient_stack(basis, KIND_OUTGOING, kappa, -dvec)
            scale = np.abs(g_p).max()
            assert np.abs(g_m + pp * g_p).max() < 1e-13 * scale


def test_gradient_stack_value_is_the_translation_matrix():
    # a force reads the value from _gradient_stack and an energy from
    # translation_matrix; both must give the same M, bit for bit
    rng = np.random.default_rng(31)
    dirs = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0],
            [0, -1, 0]] + rng.normal(size=(4, 3)).tolist()
    for l_max in (1, 3):
        basis = BasisSpec(l_max)
        for kind in (KIND_OUTGOING, KIND_REGULAR):
            for u in dirs:
                dvec = 2.3 * np.array(u, dtype=float) / np.linalg.norm(u)
                value, _ = _gradient_stack(basis, kind, 0.7, dvec)
                a = translation_matrix(basis, kind, 0.7, dvec)
                assert np.array_equal(value, a), (l_max, kind, u)


def test_large_distance_leading_behavior():
    # the unscaled TM(1,0) self-coupling falls off as
    # e^{-kappa d}/(kappa d)^2: the scaled entry times (kappa d)^2
    # converges, with O(1/(kappa d)) remainder
    basis = BasisSpec(2)
    idx = basis.index(POL_TM, 1, 0)
    c = {}
    for d in (40.0, 80.0, 160.0):
        a = axial_translation(basis, KIND_OUTGOING, KAPPA, d)
        c[d] = a[idx, idx] * (KAPPA * d) ** 2
    assert abs(c[80.0] / c[40.0] - 1.0) < 0.02
    assert abs(c[160.0] / c[80.0] - 1.0) < 0.01
    assert abs(c[160.0] / c[80.0] - 1.0) < abs(c[80.0] / c[40.0] - 1.0)


def test_collinear_regular_closure():
    # regular->regular translations compose: A(d1) A(d2) = A(d1+d2) on
    # the l<=4 block when the product runs in a larger internal basis
    l_keep, l_int = 4, 8
    big = BasisSpec(l_int)
    a1 = axial_translation(big, KIND_REGULAR, KAPPA, 0.6)
    a2 = axial_translation(big, KIND_REGULAR, KAPPA, 0.9)
    small = BasisSpec(l_keep)
    idx = [big.index(*lab) for lab in small.labels()]
    # each comes without e^{kappa |d|}, and 0.6 + 0.9 = 1.5
    composed = (a1 @ a2)[np.ix_(idx, idx)]
    direct = axial_translation(small, KIND_REGULAR, KAPPA, 1.5)
    scale = np.abs(direct).max()
    assert np.abs(composed - direct).max() < 1e-8 * scale
