"""Multi-sphere scattering: energies, forces, decompositions.

Independent routes checked against each other:
  * eigenvalue-based integrand vs a straight LU log-determinant,
  * analytic force integrands vs finite differences of the energy,
  * resummed operator inverse vs explicit fixed-order powers,
  * low-frequency numerics vs the closed dipole-dipole force law.
"""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from casphere.basis import BasisSpec
from casphere.constants import HBAR_C
from casphere.mie import (ConstantPermittivity, DrudeLorentzPermittivity,
                          TabulatedPermittivity, mie_coefficient, mie_diag)
from casphere.scattering import (SceneConfig, SphereSpec, casimir_force,
                                 energy_integrand, force_integrand,
                                 interaction_energy, logdet_energy_oracle,
                                 target_potential, three_body_energy,
                                 three_body_force)
from casphere.scattering import (_assemble, _energy_rows, _force_rows,
                                 _path_exponent)
from casphere.spectral import (CHECK_NODES, SpectralSettings, integrate_zero_t,
                               matsubara_sum)
from casphere.translation import (KIND_OUTGOING, _gradient_stack,
                                  translation_matrix)

EPS4 = ConstantPermittivity(4.0)
BASIS2 = BasisSpec(2)
FAST = SpectralSettings(n_nodes=24)


def two_spheres(d=3.0, l_max=3, r1=1.0, r2=1.0, eps=EPS4):
    return SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), r1, eps),
                 SphereSpec("b", (0.0, 0.0, d), r2, eps)),
        l_max=l_max)


def three_spheres(l_max=2):
    return SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, EPS4),
                 SphereSpec("b", (0.0, 0.0, 3.2), 1.0, EPS4),
                 SphereSpec("c", (2.9, 0.0, 1.4), 0.8, EPS4)),
        l_max=l_max)


# ----------------------------------------------------------- per-frequency

def test_zero_contrast_is_exactly_silent():
    vac = ConstantPermittivity(1.0)
    sc = two_spheres(eps=vac, l_max=2)
    assert energy_integrand(sc, 0.7) == 0.0
    assert logdet_energy_oracle(sc, 0.7) == 0.0
    assert np.all(force_integrand(sc, "b", 0.7) == 0.0)


def test_axial_scene_forces_along_axis():
    sc = two_spheres(l_max=2)
    fi = force_integrand(sc, "b", 0.8)
    assert fi[2] < 0.0
    assert fi[1] == 0.0
    assert abs(fi[0]) < 1e-15 * abs(fi[2])


def test_energy_integrand_routes_agree():
    # eigenvalue/log1p route vs LU log-determinant
    for sc in (two_spheres(d=2.6, l_max=2), three_spheres()):
        for xi in (0.2, 0.8, 2.5):
            a = logdet_energy_oracle(sc, xi)
            b = 2.0 * math.pi * energy_integrand(sc, xi)
            assert abs(a - b) < 5e-16 + 1e-11 * abs(a)


def test_weak_contrast_keeps_relative_precision():
    # at tiny contrast forming 1 - M first would round the coupling
    # away; the log1p route must still see a finite negative integrand
    weak = ConstantPermittivity(1.0 + 1e-9)
    sc = two_spheres(eps=weak, l_max=1)
    val = energy_integrand(sc, 0.5)
    assert val < 0.0
    # two-scattering magnitude scales like the contrast squared
    ref = energy_integrand(two_spheres(eps=ConstantPermittivity(1.0 + 1e-6),
                                       l_max=1), 0.5)
    assert val / ref == pytest.approx(1e-6, rel=1e-3)


def test_resummed_equals_fixed_order_sum():
    sc = two_spheres(d=2.6, l_max=2)
    xi = 0.8
    res = force_integrand(sc, "b", xi)
    acc = np.zeros(3)
    for k in range(2, 13):
        acc += force_integrand(sc, "b", xi, fixed_k=k)
    m = _assemble(sc, xi)[0]
    nrm = np.linalg.norm(m, 2)
    tail = nrm ** 13 / (1.0 - nrm)
    assert np.abs(res - acc).max() < 50.0 * tail + 1e-14
    # ln det(1 - M) = -sum_k tr[M^k] / k, and tr M = 0
    energy = sum(_energy_rows(m, k, [None])[0] for k in range(2, 13))
    assert abs(energy - energy_integrand(sc, xi)) < 50.0 * tail + 1e-16


def test_force_integrand_differentiates_energy_integrand():
    sc = two_spheres(l_max=3)
    xi, h = 0.8, 1e-5
    an = force_integrand(sc, "b", xi)
    for axis, dv in ((2, np.array([0.0, 0.0, 1.0])),
                     (0, np.array([1.0, 0.0, 0.0]))):
        def e_of(shift):
            s = sc.moved("b", np.array([0.0, 0.0, 3.0]) + shift * dv)
            return logdet_energy_oracle(s, xi) / (2.0 * math.pi)

        fd = -(e_of(h) - e_of(-h)) / (2.0 * h)
        assert abs(fd - an[axis]) < 5e-7 * max(abs(an[axis]), 1e-12)


def test_fixed_order_exponent_tracking():
    sc = two_spheres(d=2.6, l_max=2)
    xi = 0.9
    top2 = _path_exponent(sc, 1, xi, 2)
    assert top2 == -(2.0 * (xi * 2.6))
    s3 = three_spheres()
    d12, d13 = 3.2, float(np.linalg.norm([2.9, 0.0, 1.4]))
    d23 = float(np.linalg.norm([2.9, 0.0, 1.4 - 3.2]))
    top3 = _path_exponent(s3, 2, xi, 3)
    perim = -xi * (d12 + d23 + d13)
    assert top3 == pytest.approx(perim, rel=1e-12)
    # the shortest closed 4-hop walk t-j-l-j-t does not return to t
    # halfway: 2 * 5 + 2 * 2.3 beats 4 * 5 and the t-l-j-l-t walk
    kite = SceneConfig(
        spheres=(SphereSpec("t", (0.0, 0.0, 0.0), 1.0, EPS4),
                 SphereSpec("j", (0.0, 0.0, 5.0), 1.0, EPS4),
                 SphereSpec("l", (0.0, 2.3, 5.0), 1.0, EPS4)), l_max=1)
    assert _path_exponent(kite, 0, 0.4, 4) == pytest.approx(-5.84, rel=1e-12)
    assert _path_exponent(sc, 1, xi, 3) == -math.inf


def _lower_labels(basis, n_spheres=1):
    keep = [i for i, (_, l, _) in enumerate(basis.labels())
            if l < basis.l_max]
    return np.concatenate([np.array(keep) + s * basis.size
                           for s in range(n_spheres)])


def test_lower_truncation_is_a_principal_submatrix():
    off_axis = SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, EPS4),
                 SphereSpec("b", (0.7, -0.4, 2.9), 0.8, EPS4)), l_max=2)
    for sc in (off_axis, three_spheres(l_max=2)):
        lower = replace(sc, l_max=1)
        keep = _lower_labels(sc.basis)
        idx = _lower_labels(sc.basis, len(sc.spheres))
        d = sc.spheres[1].center_array - sc.spheres[0].center_array
        for xi in (0.01, 0.3, 1.7, 9.0):
            m, dm = _assemble(sc, xi, target=1)
            m_lo, dm_lo = _assemble(lower, xi, target=1)
            assert np.array_equal(m[np.ix_(idx, idx)], m_lo)
            assert np.array_equal(dm[:, idx[:, None], idx], dm_lo)
            assert np.array_equal(m, _assemble(sc, xi)[0])
            value, grad = _gradient_stack(sc.basis, KIND_OUTGOING, xi, d)
            value_lo, grad_lo = _gradient_stack(lower.basis,
                                                KIND_OUTGOING, xi, d)
            assert np.array_equal(value[np.ix_(keep, keep)], value_lo)
            assert np.array_equal(grad[:, keep[:, None], keep], grad_lo)


def test_truncation_estimate_reuses_the_frequency_evaluations():
    sc = replace(three_spheres(l_max=2), spectral=FAST)
    for fixed_k in (None, 2):
        res = casimir_force(sc, "c", fixed_k=fixed_k)
        bare = casimir_force(sc, "c", fixed_k=fixed_k, truncation_error=False)
        lower = casimir_force(replace(sc, l_max=1), "c", fixed_k=fixed_k,
                              truncation_error=False)
        assert np.array_equal(res.force, bare.force)
        assert np.array_equal(res.error,
                              bare.error + np.abs(bare.force - lower.force))
        assert res.n_freq == bare.n_freq


def test_n_freq_counts_every_frequency_evaluation(monkeypatch):
    # every result, at T = 0 and at 293 K: one assembly per frequency
    import casphere.scattering as scattering
    calls, terms = [], []
    assemble, matsubara = scattering._assemble, scattering.matsubara_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    def summed(*args, **kwargs):
        out = matsubara(*args, **kwargs)
        terms.append(out[2])
        return out

    monkeypatch.setattr(scattering, "_assemble", counted)
    monkeypatch.setattr(scattering, "matsubara_sum", summed)
    pair = replace(two_spheres(l_max=2), spectral=FAST)
    triple = replace(three_spheres(l_max=1), spectral=FAST)
    hot = replace(triple, temperature_kelvin=293.0, length_unit_m=1e-6)
    counts = []
    for result in (lambda: casimir_force(pair, "b").n_freq,
                   lambda: interaction_energy(pair)[2],
                   lambda: three_body_energy(triple)[2],
                   lambda: three_body_force(triple, "c").n_freq,
                   lambda: target_potential(triple, "c")[2],
                   lambda: target_potential(hot, "c")[2]):
        calls.clear()
        counts.append(result())
        assert counts[-1] == len(calls)
    # both Gauss-Laguerre rules; the three f(0+) points and every term
    assert counts[:5] == [2 * FAST.n_nodes + CHECK_NODES] * 5
    assert counts[5] == 3 + terms[0]


def test_row_reductions_of_a_two_label_m_in_closed_form():
    # M = [[0, a], [b, 0]]: det(1 - M) = 1 - ab and tr M^2 = 2ab; with
    # dM = [[0, c], [e, 0]] along each axis, tr[(1 - M)^{-1} dM] is
    # (ae + bc) / (1 - ab).  The one-label rows are zero.
    a, b, c, e = 0.3, 0.2, -0.05, 0.07
    m = np.array([[0.0, a], [b, 0.0]])
    dm = np.broadcast_to(np.array([[0.0, c], [e, 0.0]]), (3, 2, 2))
    one = np.array([0])
    assert _energy_rows(m, None, [None, one]) == pytest.approx(
        [math.log(1.0 - a * b) / (2.0 * math.pi), 0.0], rel=1e-15)
    assert _energy_rows(m, 2, [None]) == pytest.approx(
        [-a * b / (2.0 * math.pi)], rel=1e-15)
    force = _force_rows(m, dm, None, [None, one])
    assert force == pytest.approx(np.array(
        [[(a * e + b * c) / (1.0 - a * b) / (2.0 * math.pi)] * 3,
         [0.0] * 3]), rel=1e-15)
    assert _force_rows(m, dm, 2, [None]) == pytest.approx(
        np.full((1, 3), (a * e + b * c) / (2.0 * math.pi)), rel=1e-15)


def test_assembly_translates_each_pair_once(monkeypatch):
    # the block (j, i) and its gradient are the parity mirror of (i, j)
    import casphere.scattering as scattering
    counts = {}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scattering, "translation_matrix", counted(
        "value", scattering.translation_matrix))
    monkeypatch.setattr(scattering, "_gradient_stack", counted(
        "gradient", _gradient_stack))
    sc = three_spheres()
    force_integrand(sc, "c", 0.7)
    assert counts == {"value": 1, "gradient": 2}
    counts.clear()
    energy_integrand(sc, 0.7)
    assert counts == {"value": 3}


def three_distinct_spheres():
    # no two share (radius, eps_rel): three Mie vectors per frequency
    return SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, EPS4),
                 SphereSpec("b", (0.0, 0.0, 3.2), 1.0,
                            ConstantPermittivity(2.6)),
                 SphereSpec("c", (2.9, 0.0, 1.4), 0.8, EPS4)),
        l_max=3)


@pytest.mark.parametrize("scene, target, calls", [
    (two_spheres(d=4.0, l_max=4), 1, 4),
    (three_distinct_spheres(), None, 12)],
    ids=["pair-force-lmax4", "three-distinct-energy"])
def test_assembly_radial_evaluations(monkeypatch, scene, target, calls):
    # a Mie vector takes three radial tables (i at x_B and x_s, e at x_B)
    # and a translation one (e_p with e_p' for a gradient), each table
    # one mod_sph_bessel call, counted on every module's own binding
    import casphere.mie as mie
    import casphere.scattering as scattering
    import casphere.specfun as specfun
    import casphere.translation as translation
    seen = []
    radial = specfun.mod_sph_bessel

    def counted(*args, **kwargs):
        seen.append(args)
        return radial(*args, **kwargs)

    for module in (specfun, translation, mie):
        monkeypatch.setattr(module, "mod_sph_bessel", counted)
    scattering._assemble(scene, 0.7, target)
    assert len(seen) == calls


@pytest.mark.parametrize("r2, calls", [(1.0, 1), (0.7, 2)])
def test_assembly_computes_one_mie_vector_per_distinct_sphere(
        monkeypatch, r2, calls):
    import casphere.scattering as scattering
    seen = []

    def counted(*args, **kwargs):
        seen.append(args)
        return mie_diag(*args, **kwargs)

    monkeypatch.setattr(scattering, "mie_diag", counted)
    sc = two_spheres(l_max=2, r2=r2)
    ds = sc.basis.size
    par = np.array([(-1.0) ** (l + pol) for pol, l, _ in sc.basis.labels()])
    for xi in (0.3, 1.1):
        seen.clear()
        m = scattering._assemble(sc, xi, target=1)[0]
        assert len(seen) == calls
        # block (i, j) is (s_i h_i) A^{i<-j} (h_j e^{-kappa gap}), with
        # h = sqrt|T~|, s = sign T~ and A^{1<-0} the parity mirror of
        # A^{0<-1}
        tt = [mie_diag(sc.basis, xi * s.radius, 4.0) for s in sc.spheres]
        h = [np.sqrt(np.abs(t)) for t in tt]
        decay = math.exp(-xi * (3.0 - 1.0 - r2))
        a01 = translation_matrix(sc.basis, KIND_OUTGOING, xi,
                                 [0.0, 0.0, -3.0])
        a10 = np.outer(par, par) * a01
        for i, a in enumerate((a01, a10)):
            got = m[i * ds:(i + 1) * ds, (1 - i) * ds:(2 - i) * ds]
            want = ((np.sign(tt[i]) * h[i])[:, None] * a
                    * (h[1 - i] * decay))
            assert np.array_equal(got, want)


def _blocks(scene, spheres):
    ds = scene.basis.size
    return np.concatenate([np.arange(i * ds, (i + 1) * ds) for i in spheres])


def test_pair_block_of_a_triangle_is_the_pair_matrix():
    # unequal radii: no scene-wide reference length enters a pair's blocks
    tri = three_spheres(l_max=2)
    for xi in (0.05, 0.3, 1.7):
        m_all = _assemble(tri, xi)[0]
        m_t, dm_t = _assemble(tri, xi, target=2)
        for i, j in itertools.combinations(range(3), 2):
            pair = replace(tri, spheres=(tri.spheres[i], tri.spheres[j]))
            idx = _blocks(tri, (i, j))
            assert np.array_equal(m_all[np.ix_(idx, idx)],
                                  _assemble(pair, xi)[0])
            if j == 2:
                m, dm = _assemble(pair, xi, target=1)
                assert np.array_equal(m_t[np.ix_(idx, idx)], m)
                assert np.array_equal(dm_t[:, idx[:, None], idx], dm)


def _thermal_triangle():
    gold = DrudeLorentzPermittivity(((1.88e32, 0.0, 5.3e13),))
    silica = DrudeLorentzPermittivity(((1.1 * 2e16 ** 2, 2e16, 0.0),))
    return SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, gold),
                 SphereSpec("b", (3.7, 0.0, 0.0), 0.8, silica),
                 SphereSpec("c", (1.4, 3.1, 0.6), 0.6,
                            ConstantPermittivity(2.6))),
        l_max=3, temperature_kelvin=293.0, length_unit_m=1e-7)


def test_round_trip_matrix_is_symmetric_for_same_sign_contrasts():
    off_axis = SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, EPS4),
                 SphereSpec("b", (0.7, -0.4, 2.9), 0.8,
                            ConstantPermittivity(10.0))), l_max=3)
    thermal = _thermal_triangle()
    matsubara = 2.0 * math.pi * thermal.reduced_temperature
    for sc, xi in ((three_spheres(l_max=3), 0.4), (off_axis, 0.05),
                   (off_axis, 2.0), (thermal, matsubara),
                   (thermal, 7 * matsubara)):
        m, dm = _assemble(sc, xi, target=1)
        assert np.abs(m - m.T).max() <= 1e-13 * np.abs(m).max()
        assert (np.abs(dm - dm.transpose(0, 2, 1)).max()
                <= 1e-13 * np.abs(dm).max())


def test_round_trip_matrix_stays_well_conditioned_at_high_l_max():
    # eps 2.6 unit pair, gap 0.5 R: a scale with a reference length
    # lets |M| and cond(1 - M) grow with l here
    eps = ConstantPermittivity(2.6)
    sc = two_spheres(d=2.5, l_max=8, eps=eps)
    for xi in (0.01, 1.0):
        m = _assemble(sc, xi)[0]
        assert np.abs(m).max() < 0.05
        assert np.linalg.cond(np.eye(m.shape[0]) - m) <= 1.2


def test_mixed_sign_contrasts_keep_the_energy():
    # eps 1.5 | background 2 | eps 4: the Mie signs differ between the
    # spheres, so the round-trip matrix is a similarity but not symmetric
    sc = SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0,
                            ConstantPermittivity(1.5)),
                 SphereSpec("b", (0.0, 0.0, 4.0), 1.0, EPS4)),
        background=ConstantPermittivity(2.0), l_max=3)
    for xi in (0.02, 0.3, 1.5):
        m = _assemble(sc, xi)[0]
        assert np.abs(m - m.T).max() > 1e-3 * np.abs(m).max()
        e = energy_integrand(sc, xi)
        assert e > 0.0
        assert e == pytest.approx(logdet_energy_oracle(sc, xi) / (2 * math.pi),
                                  rel=1e-12)


def test_dipole_limit_matches_dyadic_force_law():
    # two small spheres: the 2-event force must follow the closed
    # 7-term retarded dipole-dipole expression
    r, d, xi, eps = 0.02, 1.0, 1.3, 3.0
    sc = SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), r,
                            ConstantPermittivity(eps)),
                 SphereSpec("b", (0.0, 0.0, d), r,
                            ConstantPermittivity(eps))),
        l_max=1)
    got = force_integrand(sc, "b", xi, fixed_k=2)[2]
    # T_1 = (T_1 e^{-2x}) e^{2x}
    alpha = (-1.5 * mie_coefficient(1, 1, xi * r, eps)
             * math.exp(2.0 * xi * r) / xi ** 3)
    u = xi * d
    p = 6.0 + 12.0 * u + 10.0 * u ** 2 + 4.0 * u ** 3 + 2.0 * u ** 4
    pp = 12.0 + 20.0 * u + 12.0 * u ** 2 + 8.0 * u ** 3
    want = (alpha ** 2 / (2.0 * math.pi)) * math.exp(-2.0 * u) * (
        xi * (-2.0 * p + pp) - 6.0 * p / d) / d ** 6
    assert got == pytest.approx(want, rel=5e-3)


# ------------------------------------------------------------ whole forces

def test_force_is_minus_energy_gradient():
    sc = two_spheres(l_max=3)
    res = casimir_force(sc, "b", truncation_error=False)
    h = 1e-4
    e_hi, _, _ = interaction_energy(sc.moved("b", (0.0, 0.0, 3.0 + h)))
    e_lo, _, _ = interaction_energy(sc.moved("b", (0.0, 0.0, 3.0 - h)))
    fd = -(e_hi - e_lo) / (2.0 * h)
    assert res.force[2] < 0.0
    assert res.force[2] == pytest.approx(fd, rel=1e-6)


def test_newtons_third_law():
    sc = two_spheres(l_max=3)
    fa = casimir_force(sc, "a", truncation_error=False).force
    fb = casimir_force(sc, "b", truncation_error=False).force
    assert np.abs(fa + fb).max() < 1e-12 * np.abs(fb).max()
    s3 = three_spheres()
    forces = [casimir_force(s3, lab, truncation_error=False).force
              for lab in "abc"]
    net = np.sum(forces, axis=0)
    scale = np.abs(forces).max()
    assert np.abs(net).max() < 1e-11 * scale


def test_translation_invariance():
    s3 = three_spheres()
    shift = np.array([0.37, -1.2, 0.81])
    moved = SceneConfig(
        spheres=tuple(SphereSpec(s.label, tuple(s.center_array + shift),
                                 s.radius, s.permittivity)
                      for s in s3.spheres),
        l_max=s3.l_max)
    f1 = casimir_force(s3, "c", truncation_error=False).force
    f2 = casimir_force(moved, "c", truncation_error=False).force
    assert np.abs(f1 - f2).max() < 1e-12 * np.abs(f1).max()


def test_rotation_covariance():
    a, b, g = 0.7, 1.1, -0.4
    rz1 = np.array([[math.cos(a), -math.sin(a), 0.0],
                    [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[math.cos(b), 0.0, math.sin(b)], [0.0, 1.0, 0.0],
                   [-math.sin(b), 0.0, math.cos(b)]])
    rz2 = np.array([[math.cos(g), -math.sin(g), 0.0],
                    [math.sin(g), math.cos(g), 0.0], [0.0, 0.0, 1.0]])
    rot = rz1 @ ry @ rz2
    s3 = three_spheres()
    rotated = SceneConfig(
        spheres=tuple(SphereSpec(s.label, tuple(rot @ s.center_array),
                                 s.radius, s.permittivity)
                      for s in s3.spheres),
        l_max=s3.l_max)
    f = casimir_force(s3, "c", truncation_error=False).force
    f_r = casimir_force(rotated, "c", truncation_error=False).force
    assert np.abs(f_r - rot @ f).max() < 1e-10 * np.abs(f).max()


@pytest.mark.parametrize("d", [2.2, 2.3, 2.45])
def test_fixed_orders_stay_finite_at_small_gaps(d):
    # gaps of 0.2-0.45 R put the upper quadrature nodes at kappa R in
    # the hundreds; each order must stay finite there and the orders
    # must still sum to the resummed force
    sc = two_spheres(d=d, l_max=2, eps=ConstantPermittivity(2.6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = casimir_force(sc, "b", truncation_error=False).force
        acc = np.zeros(3)
        for k in (2, 4, 6, 8):
            part = casimir_force(sc, "b", fixed_k=k,
                                 truncation_error=False).force
            assert np.all(np.isfinite(part))
            acc += part
    assert np.abs(acc - full).max() < 1e-7 * np.abs(full).max()


def test_fixed_order_result_reports_exponent_scale():
    sc = two_spheres(d=2.6, l_max=1)
    res = casimir_force(sc, "b", fixed_k=2, truncation_error=False)
    # reference frequency 1/(2 min_gap) makes the tracked 2-event
    # exponent -d_center/min_gap
    assert res.exponent_scale == pytest.approx(-2.6 / 0.6, rel=1e-15)
    full = casimir_force(sc, "b", truncation_error=False)
    assert full.exponent_scale == 0.0
    assert abs(res.force[2]) < abs(full.force[2])
    assert res.force[2] < 0.0


# ----------------------------------------------------------- three bodies

def test_three_body_forces_sum_to_zero():
    s3 = three_spheres(l_max=1)
    tb = [three_body_force(s3, lab).force for lab in "abc"]
    net = np.sum(tb, axis=0)
    scale = np.abs(tb).max()
    assert scale > 0.0
    assert np.abs(net).max() < 1e-12 * scale


def test_three_body_force_is_a_correction():
    s3 = three_spheres()
    tb = three_body_force(s3, "c")
    full = casimir_force(s3, "c", truncation_error=False).force
    pair_sum = full - tb.force
    assert np.abs(tb.force).max() < 0.05 * np.abs(pair_sum).max()


def test_three_body_energy_decomposition():
    s3 = three_spheres(l_max=1)
    v3, err, n_freq = three_body_energy(s3)
    e_full, _, _ = interaction_energy(s3)
    assert abs(v3) < 0.1 * abs(e_full)
    assert np.isfinite(err) and n_freq > 0
    with pytest.raises(ValueError):
        three_body_energy(two_spheres())
    with pytest.raises(ValueError):
        three_body_force(two_spheres(), "a")


def _pair_scenes(scene, target=None):
    """The three two-sphere scenes, or the two that hold the target."""
    return [replace(scene, spheres=pair)
            for pair in itertools.combinations(scene.spheres, 2)
            if target is None or target in (s.label for s in pair)]


@pytest.mark.parametrize("l_max, temperature", [(1, 0.0), (2, 0.0),
                                                (1, 293.0), (2, 293.0)])
def test_three_body_rows_match_separate_pair_scenes(l_max, temperature):
    s3 = replace(three_spheres(l_max), spectral=FAST,
                 temperature_kelvin=temperature, length_unit_m=1e-6)
    v3, err, _ = three_body_energy(s3)
    want, want_err, _ = interaction_energy(s3)
    for pair in _pair_scenes(s3):
        e, e_err, _ = interaction_energy(pair)
        want -= e
        want_err += e_err
    assert abs(v3 - want) <= err + want_err
    res = three_body_force(s3, "c")
    full = casimir_force(s3, "c")
    want, want_err = full.force, full.error
    for pair in _pair_scenes(s3, "c"):
        p = casimir_force(pair, "c")
        want, want_err = want - p.force, want_err + p.error
    assert np.all(np.abs(res.force - want) <= res.error + want_err)


def test_three_body_makes_one_assembly_per_frequency(monkeypatch):
    import casphere.scattering as scattering
    calls = []
    assemble = scattering._assemble

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(scattering, "_assemble", counted)
    s3 = replace(three_spheres(), spectral=FAST)
    _, _, n_freq = three_body_energy(s3)
    assert n_freq == len(calls) == 2 * FAST.n_nodes + CHECK_NODES
    calls.clear()
    assert three_body_force(s3, "a").n_freq == len(calls) == n_freq


def test_shared_nodes_cancel_quadrature_error_in_the_remainder():
    # separate pair scenes are integrated on their own nodes, whose
    # errors do not cancel: 1.4e-2 from the 120-node V3 at 40 + 48 nodes
    s3 = SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, EPS4),
                 SphereSpec("b", (2.3, 0.0, 0.0), 1.0, EPS4),
                 SphereSpec("c", (1.1, 4.6, 0.4), 0.7, EPS4)), l_max=2)
    ref, _, _ = three_body_energy(replace(
        s3, spectral=SpectralSettings(n_nodes=112)))
    v3, _, _ = three_body_energy(s3)
    assert abs(v3 - ref) < 5e-3 * abs(ref)


# ------------------------------------------------------- path and thermal

def potentials(scene, target, path):
    """(V, error, n_freq) arrays of target_potential along path."""
    rows = [target_potential(scene.moved(target, p), target) for p in path]
    return tuple(np.array(col) for col in zip(*rows))


def test_target_potential_integrates_force():
    sc = two_spheres(l_max=1)
    seps = np.geomspace(3.0, 9.0, 25)
    path = np.stack([np.zeros_like(seps), np.zeros_like(seps), seps], axis=1)
    v, _, n_freq = potentials(sc, "b", path)
    # potential is attractive and decays monotonically to zero
    assert np.all(v < 0.0)
    assert np.all(np.diff(v) > 0.0)
    # each point is the pair's interaction energy there
    for i in (0, 12):
        e_i, _, n_i = interaction_energy(sc.moved("b", path[i]))
        assert v[i] == pytest.approx(e_i, rel=1e-12)
        assert n_freq[i] == n_i > 0
    with pytest.raises(ValueError, match="two spheres"):
        target_potential(replace(sc, spheres=sc.spheres[:1]), "a")
    with pytest.raises(KeyError):
        target_potential(sc, "zz")


def test_pair_path_skips_the_zero_one_sphere_rows(monkeypatch):
    # the target-less rows of a pair are one-sphere groups, M_ii = 0, so
    # only the pair row and its l_max - 1 cut need eigenvalues
    import casphere.scattering as scattering
    counts = {"eigvals": 0, "assemble": 0}
    eigvals, assemble = np.linalg.eigvals, scattering._assemble

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", eigvals))
    monkeypatch.setattr(scattering, "_assemble",
                        counted("assemble", assemble))
    sc = replace(two_spheres(l_max=2), spectral=FAST)
    _, _, n_freq = potentials(sc, "b", [[0.0, 0.0, 3.0], [0.0, 0.0, 4.5]])
    assert counts["assemble"] == n_freq.sum() > 0
    assert counts["eigvals"] == 2 * n_freq.sum()


def off_axis_three_spheres():
    # a-b is the smallest gap at every target position used below, so
    # the sub-scene without c integrates on the same nodes
    return SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, EPS4),
                 SphereSpec("b", (0.3, 0.2, 2.8), 1.0, EPS4),
                 SphereSpec("c", (3.6, 1.1, 1.5), 0.8, EPS4)),
        l_max=2)


def test_potential_is_energy_minus_energy_without_target():
    s3 = off_axis_three_spheres()
    path = [[3.6, 1.1, 1.5], [4.4, 1.3, 1.2]]
    v, err, _ = potentials(s3, "c", path)
    e_ab, _, _ = interaction_energy(replace(s3, spheres=s3.spheres[:2]))
    for p, v_p in zip(path, v):
        e_all, _, _ = interaction_energy(s3.moved("c", p))
        assert v_p == pytest.approx(e_all - e_ab, rel=1e-12)
    assert np.all(err > 0.0)


def test_potential_gradient_is_minus_force():
    s3 = off_axis_three_spheres()
    h = 1e-3
    c = np.array(s3.spheres[2].center)
    v, _, _ = potentials(s3, "c", [c + [h, 0.0, 0.0], c - [h, 0.0, 0.0]])
    f = casimir_force(s3, "c", truncation_error=False).force[0]
    assert -(v[0] - v[1]) / (2.0 * h) == pytest.approx(f, rel=1e-5)


def test_potential_at_finite_temperature_is_interaction_energy():
    warm = SceneConfig(spheres=two_spheres(l_max=2).spheres, l_max=2,
                       temperature_kelvin=293.0, length_unit_m=1e-6)
    v, _, n_freq = target_potential(warm, "b")
    e, _, n_e = interaction_energy(warm)
    assert v == pytest.approx(e, rel=1e-12)
    assert n_freq == n_e


def test_finite_temperature_run():
    warm = SceneConfig(spheres=two_spheres(l_max=2).spheres, l_max=2,
                       temperature_kelvin=300.0, length_unit_m=1e-6)
    cold = SceneConfig(spheres=warm.spheres, l_max=2)
    f_warm = casimir_force(warm, "b", truncation_error=False)
    f_cold = casimir_force(cold, "b", truncation_error=False)
    assert f_warm.force[2] < 0.0
    assert 0 < f_warm.n_freq < 500
    # thermal photons strengthen micron-scale attraction, within reason
    assert 1.0 < f_warm.force[2] / f_cold.force[2] < 3.0
    assert f_warm.force_si[2] == f_warm.force[2] * f_warm.si_factor


def test_si_conversion():
    sc = SceneConfig(spheres=two_spheres().spheres, l_max=1,
                     length_unit_m=1e-6)
    res = casimir_force(sc, "b", truncation_error=False)
    assert res.si_factor == pytest.approx(HBAR_C / 1e-6 ** 2, rel=1e-15)
    bare = casimir_force(two_spheres(l_max=1), "b", truncation_error=False)
    assert bare.si_factor == 0.0
    with pytest.raises(ValueError):
        bare.force_si


# ------------------------------------------------------------- validation

def test_scene_validation():
    with pytest.raises(ValueError, match="overlap"):
        two_spheres(d=1.5)
    try:
        two_spheres(d=1.5)
    except ValueError as exc:
        assert "'a'" in str(exc) and "'b'" in str(exc)
    with pytest.raises(ValueError):
        SceneConfig(spheres=(SphereSpec("a", (0, 0, 0), 1.0, EPS4),
                             SphereSpec("a", (0, 0, 3.0), 1.0, EPS4)))
    with pytest.raises(ValueError):
        SceneConfig(spheres=two_spheres().spheres, l_max=0)
    # translations reach radial order 2 l_max + 1, capped at L_HARD_CAP = 60
    SceneConfig(spheres=two_spheres().spheres, l_max=29)
    for bad in (30, 31, 3.5):
        with pytest.raises(ValueError, match="l_max"):
            SceneConfig(spheres=two_spheres().spheres, l_max=bad)
    with pytest.raises(ValueError):
        SceneConfig(spheres=two_spheres().spheres, temperature_kelvin=-1.0)
    with pytest.raises(ValueError):
        SceneConfig(spheres=two_spheres().spheres, temperature_kelvin=300.0)
    with pytest.raises(ValueError):
        SphereSpec("a", (0.0, 0.0), 1.0, EPS4)
    with pytest.raises(ValueError):
        SphereSpec("a", (0.0, 0.0, 0.0), -1.0, EPS4)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, names", [
    (lambda: SphereSpec("q", (0.0, NAN, 0.0), 1.0, EPS4), "'q'.*center"),
    (lambda: SphereSpec("q", (INF, 0.0, 0.0), 1.0, EPS4), "'q'.*center"),
    (lambda: SphereSpec("q", (0.0, 0.0, 0.0), NAN, EPS4), "'q'.*radius"),
    (lambda: SphereSpec("q", (0.0, 0.0, 0.0), INF, EPS4), "'q'.*radius"),
    (lambda: ConstantPermittivity(NAN), "permittivity"),
    (lambda: ConstantPermittivity(INF), "permittivity"),
    (lambda: SceneConfig(spheres=two_spheres().spheres,
                         temperature_kelvin=NAN), "temperature_kelvin"),
    (lambda: SceneConfig(spheres=two_spheres().spheres,
                         length_unit_m=NAN), "length_unit_m"),
    (lambda: DrudeLorentzPermittivity(((NAN, 1.0, 0.1),)), "oscillator"),
    (lambda: DrudeLorentzPermittivity(((1.0, 0.1),)), "oscillator"),
    (lambda: DrudeLorentzPermittivity(((-5.0, 1.0, 0.1),)), "oscillator"),
    (lambda: DrudeLorentzPermittivity(((5.0, 1.0, -0.1),)), "oscillator"),
    (lambda: TabulatedPermittivity((1.0, 2.0), (2.0, NAN)), "eps samples"),
    (lambda: TabulatedPermittivity((1.0, NAN), (2.0, 2.0)), "xi grid"),
    # not the models and settings a scene evaluates
    (lambda: SphereSpec("q", (0.0, 0.0, 0.0), 1.0, 2.6), "'q'.*permittivity"),
    (lambda: SceneConfig(spheres=((0.0, 0.0, 0.0),)), "spheres"),
    (lambda: SceneConfig(spheres=two_spheres().spheres, background=1.0),
     "background"),
    (lambda: SceneConfig(spheres=two_spheres().spheres,
                         spectral={"n_nodes": 40}), "spectral"),
], ids=["center-nan", "center-inf", "radius-nan", "radius-inf", "eps-nan",
        "eps-inf", "temperature-nan", "length-unit-nan", "drude-nan",
        "drude-two-entries", "drude-negative-amplitude",
        "drude-negative-damping", "tabulated-eps-nan", "tabulated-xi-nan",
        "permittivity-float", "spheres-tuple", "background-float",
        "spectral-dict"])
def test_non_finite_input_is_rejected_at_construction(build, names):
    with pytest.raises(ValueError, match=names):
        build()


def test_scene_plumbing():
    s3 = three_spheres()
    with pytest.raises(KeyError):
        s3.index_of("nope")
    moved = s3.moved("b", (0.0, 0.0, 4.0))
    assert moved.spheres[1].center == (0.0, 0.0, 4.0)
    assert s3.spheres[1].center == (0.0, 0.0, 3.2)
    assert s3.min_gap == pytest.approx(
        min(3.2 - 2.0, np.linalg.norm([2.9, 0, 1.4]) - 1.8,
            np.linalg.norm([2.9, 0, -1.8]) - 1.8))


def test_evaluation_argument_errors(monkeypatch):
    sc = two_spheres(l_max=1)
    with pytest.raises(ValueError):
        force_integrand(sc, "b", 0.0)
    with pytest.raises(KeyError):
        force_integrand(sc, "nope", 1.0)
    import casphere.scattering as scattering
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mie_diag(*args, **kwargs)

    monkeypatch.setattr(scattering, "mie_diag", counted)
    # a fixed order has one spelling, the keyword fixed_k
    routes = (lambda **kw: casimir_force(sc, "b", **kw),
              lambda **kw: force_integrand(sc, "b", 1.0, **kw),
              lambda **kw: interaction_energy(sc, **kw))
    for route in routes:
        for bad in (1, 0, 2.5, "3", True):
            with pytest.raises(ValueError, match="fixed_k"):
                route(fixed_k=bad)
        with pytest.raises(TypeError):
            route(order="fixed(2)")
    lone = SceneConfig(spheres=(SphereSpec("a", (0, 0, 0), 1.0, EPS4),))
    with pytest.raises(ValueError):
        casimir_force(lone, "a")
    assert calls == []


@pytest.mark.parametrize("temperature, unit", [(0.0, 0.0), (300.0, 1e-7)])
def test_interaction_energy_needs_two_spheres(temperature, unit):
    # at T = 0 min_gap is inf and every node maps to xi = 0; at T > 0
    # the sum of M_aa = 0 rows would read 0.0 as if it were an answer
    lone = SceneConfig(spheres=(SphereSpec(
        "a", (0, 0, 0), 1.0, ConstantPermittivity(2.6)),),
        temperature_kelvin=temperature, length_unit_m=unit)
    with pytest.raises(ValueError, match="at least two spheres"):
        interaction_energy(lone)


@pytest.mark.parametrize("call, names", [
    (lambda f: force_integrand(two_spheres(l_max=2), "b", NAN), "^xi must"),
    (lambda f: force_integrand(two_spheres(l_max=2), "b", INF), "^xi must"),
    (lambda f: energy_integrand(two_spheres(l_max=2), NAN), "^xi must"),
    (lambda f: energy_integrand(two_spheres(l_max=2), -1.0), "^xi must"),
    (lambda f: logdet_energy_oracle(two_spheres(l_max=2), NAN), "^xi must"),
    (lambda f: translation_matrix(BASIS2, KIND_OUTGOING, NAN, (0, 0, 3.0)),
     "kappa"),
    (lambda f: translation_matrix(BASIS2, KIND_OUTGOING, 1.0, (0, NAN, 3)),
     "displacement"),
    (lambda f: mie_diag(BASIS2, NAN, 2.6), "x = n_B xi R"),
    (lambda f: mie_diag(BASIS2, 1.0, NAN), "relative permittivity"),
    (lambda f: integrate_zero_t(f, NAN), "decay_scale"),
    (lambda f: matsubara_sum(f, NAN), "temperature"),
], ids=["force-xi-nan", "force-xi-inf", "energy-xi-nan", "energy-xi-negative",
        "logdet-xi-nan", "translation-kappa-nan", "translation-distance-nan",
        "mie-x-nan", "mie-eps-nan", "quadrature-decay-nan",
        "matsubara-temperature-nan"])
def test_nan_is_rejected_by_the_positivity_guards(call, names):
    # a guard written v <= 0 lets NaN through; the spectral routines
    # must refuse before evaluating their integrand at all
    evals = []

    def f(xi):
        evals.append(xi)
        return 1.0

    with pytest.raises(ValueError, match=names):
        call(f)
    assert evals == []
