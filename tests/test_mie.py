"""Sphere T-matrix coefficients and permittivity models.

Anchor values are frozen from a 40-digit mpmath evaluation of the same
Riccati-function ratios via direct differentiation of x z_l(x); the
dipole laws are closed forms.
"""

import math

import mpmath
import numpy as np
import pytest

import helpers
from casphere.basis import POL_TE, POL_TM, BasisSpec
from casphere.mie import (ConstantPermittivity, DrudeLorentzPermittivity,
                          TabulatedPermittivity, mie_coefficient, mie_diag)
from casphere.specfun import mod_sph_bessel

# (pol, l, x, eps_rel) -> T, mpmath at 40 digits
ANCHORS = [
    (POL_TM, 1, 0.7, 2.6, -0.081451143142375835),
    (POL_TE, 1, 0.7, 2.6, 0.0060090901272189161),
    (POL_TM, 2, 1.3, 4.0, 0.078874412530814952),
    (POL_TE, 3, 2.1, 1.5, 0.0056825218989633598),
    (POL_TM, 1, 5.0, 9.0, -3836.6704719883755),
]


def test_frozen_anchors():
    # the anchors are T; mie_coefficient returns T e^{-2x}
    for pol, l, x, eps, want in ANCHORS:
        assert mie_coefficient(pol, l, x, eps) == pytest.approx(
            want * math.exp(-2.0 * x), rel=5e-12)


def test_no_contrast_scatters_nothing():
    for pol in (POL_TE, POL_TM):
        for l in (1, 2, 5):
            assert mie_coefficient(pol, l, 0.8, 1.0) == 0.0


def test_domain_errors():
    for l in (0, 30, 1.5):
        with pytest.raises(ValueError, match=rf"^l must be .*, got {l}$"):
            mie_coefficient(POL_TM, l, 1.0, 2.0)
    with pytest.raises(ValueError, match="x = n_B xi R must be positive"):
        mie_coefficient(POL_TM, 1, 0.0, 2.0)
    with pytest.raises(ValueError):
        mie_coefficient(POL_TM, 1, -1.0, 2.0)
    with pytest.raises(ValueError):
        mie_coefficient(POL_TM, 1, 1.0, -2.0)
    with pytest.raises(ValueError):
        mie_coefficient(7, 1, 1.0, 2.0)


def test_tm_dipole_limit():
    # T^TM_1 -> -(2/3) x^3 (eps - 1)/(eps + 2)
    x = 1e-3
    for eps in (1.5, 2.6, 9.0):
        want = -(2.0 / 3.0) * x ** 3 * (eps - 1.0) / (eps + 2.0)
        t = mie_coefficient(POL_TM, 1, x, eps) * math.exp(2.0 * x)
        assert t == pytest.approx(want, rel=1e-5, abs=0.0)


def test_te_dipole_limit():
    # T^TE_1 -> (eps - 1) x^5 / 45
    x = 1e-2
    for eps in (1.5, 2.6):
        want = (eps - 1.0) * x ** 5 / 45.0
        t = mie_coefficient(POL_TE, 1, x, eps) * math.exp(2.0 * x)
        assert t == pytest.approx(want, rel=1e-4, abs=0.0)


def test_small_x_powers():
    # log-log slope between x = 1e-2 and 1e-3: 3 for TM1, 5 for TE1
    eps = 2.6
    for pol, power in ((POL_TM, 3.0), (POL_TE, 5.0)):
        t1 = mie_coefficient(pol, 1, 1e-2, eps) * math.exp(2e-2)
        t2 = mie_coefficient(pol, 1, 1e-3, eps) * math.exp(2e-3)
        slope = math.log(abs(t1) / abs(t2)) / math.log(10.0)
        assert slope == pytest.approx(power, abs=1e-3)


def test_higher_orders_are_smaller():
    for x in (0.3, 0.9):
        for pol in (POL_TE, POL_TM):
            mags = [abs(mie_coefficient(pol, l, x, 2.6)) for l in (1, 2, 3, 4)]
            assert mags[0] > mags[1] > mags[2] > mags[3]


def test_vanishing_at_small_and_scaled_large_argument():
    assert abs(mie_coefficient(POL_TM, 1, 1e-4, 2.6)) < 1e-11
    assert abs(mie_coefficient(POL_TE, 1, 1e-4, 2.6)) < 1e-19
    # the scaled coefficient saturates at an O(1) reflection amplitude
    assert 0.0 < abs(mie_coefficient(POL_TM, 1, 40.0, 2.6)) < 1.0


def _t_oracle(pol, l, x, eps_rel):
    """Unscaled T_{pol,l} from the scipy radial functions of ``helpers``."""
    def pair(kind, arg):
        return (float(helpers.radial(kind, l, arg)),
                float(helpers.riccati_dx(kind, l, arg)))

    (ib, spb), (eb, epb) = pair("regular", x), pair("outgoing", x)
    is_, sps = pair("regular", math.sqrt(eps_rel) * x)
    if pol == POL_TE:
        return (spb * is_ - ib * sps) / (eb * sps - epb * is_)
    return (ib * sps - eps_rel * spb * is_) / (eps_rel * epb * is_ - eb * sps)


def test_scaled_consistency_and_finiteness():
    # T e^{-2x} times e^{2x} against the unscaled scipy oracle
    x = 12.0
    for pol, l in ((POL_TE, 1), (POL_TM, 2)):
        s = mie_coefficient(pol, l, x, 2.6)
        assert s * math.exp(2.0 * x) == pytest.approx(
            _t_oracle(pol, l, x, 2.6), rel=1e-14)
    # e^{1600} overflows; the scaled coefficient does not
    assert math.isfinite(mie_coefficient(POL_TM, 1, 800.0, 2.6))


def test_diag_is_m_degenerate():
    basis = BasisSpec(2)
    diag = mie_diag(basis, 0.9, 2.6)
    assert diag.shape == (basis.size,)
    for pol in (POL_TE, POL_TM):
        for l in (1, 2):
            t = mie_coefficient(pol, l, 0.9, 2.6)
            for m in range(-l, l + 1):
                assert diag[basis.index(pol, l, m)] == t


def _t_one_order(pol, l, x, eps_rel, scaled):
    """T_{pol,l} from scalar radial calls, one (pol, l) at a time: the
    loop that ``mie_diag`` replaced, kept as its reference, in the ratio
    form with rho_l = i_{l+1} / i_l, sigma_l(z) = (l + 1) + z rho_l(z)
    and E_l'(x) = x e_{l-1}(x) - l e_l(x)."""
    n = math.sqrt(eps_rel)

    def rho(arg):
        return mod_sph_bessel("i", l + 1, arg) / mod_sph_bessel("i", l, arg)

    ib, rb, rs = mod_sph_bessel("i", l, x), rho(x), rho(n * x)
    eb, eb_lower = mod_sph_bessel("e", l, x), mod_sph_bessel("e", l - 1, x)
    epb, ss = x * eb_lower - l * eb, (l + 1) + n * x * rs
    if pol == POL_TE:
        t = ib * x * (rb - n * rs) / (eb * ss - epb)
    else:
        t = (ib * ((l + 1) * (1.0 - eps_rel) + x * (n * rs - eps_rel * rb))
             / (eps_rel * epb - eb * ss))
    return t if scaled else t * math.exp(2.0 * x)


@pytest.mark.parametrize("l_max, x, eps, scaled", [
    (4, 0.9, 2.6, False), (4, 0.05, 80.0, True), (5, 3.3, 0.5, False),
    (3, 1.3, 1.0, False), (6, 400.0, 2.6, True)])
def test_diag_equals_the_per_order_loop(l_max, x, eps, scaled):
    # scaled=False compares T itself, rebuilt as (T e^{-2x}) e^{2x}
    basis = BasisSpec(l_max)
    want = np.array([_t_one_order(pol, l, x, eps, scaled)
                     for pol, l, _ in basis.labels()])
    got = mie_diag(basis, x, eps)
    assert np.array_equal(got if scaled else got * math.exp(2.0 * x), want)


def _t_mpmath(pol, l, x, eps_rel):
    """T_{pol,l} e^{-2x} at 50 digits, from the defining ratio of Bessel
    functions with S_l' = i_l + x (i_{l-1} - (l+1)/x i_l)."""
    with mpmath.workdps(50):
        x, eps = mpmath.mpf(x), mpmath.mpf(eps_rel)
        n = mpmath.sqrt(eps)

        def i(order, z):
            return mpmath.sqrt(mpmath.pi / (2 * z)) \
                * mpmath.besseli(order + 0.5, z)

        def e(order, z):
            return (-1) ** order * mpmath.sqrt(2 / (mpmath.pi * z)) \
                * mpmath.besselk(order + 0.5, z)

        def sp(f, z):
            return f(l, z) + z * (f(l - 1, z) - (l + 1) / z * f(l, z))

        if pol == POL_TE:
            num = sp(i, x) * i(l, n * x) - i(l, x) * sp(i, n * x)
            den = e(l, x) * sp(i, n * x) - sp(e, x) * i(l, n * x)
        else:
            num = i(l, x) * sp(i, n * x) - eps * sp(i, x) * i(l, n * x)
            den = eps * sp(e, x) * i(l, n * x) - e(l, x) * sp(i, n * x)
        return num / den * mpmath.exp(-2 * x)


@pytest.mark.parametrize("pol, eps, tol", [
    pytest.param(POL_TE, 2.6, 2e-15, id="2.6-2e-15"),
    pytest.param(POL_TE, 1.01, 2e-13, id="1.01-2e-13"),
    pytest.param(POL_TM, 2.6, 2e-15, id="tm-2.6-2e-15"),
    pytest.param(POL_TM, 1.01, 2e-15, id="tm-1.01-2e-15")])
def test_te_numerator_keeps_precision_at_small_x(pol, eps, tol):
    # the difference forms S_l'(x) i_l(nx) - i_l(x) S_l'(nx) (TE) and
    # i_l(x) S_l'(nx) - eps S_l'(x) i_l(nx) (TM) cancel their (l + 1)
    # terms and were off by up to 1.6e-7 / 4.1e-5 (TE) and 1.1e-15 /
    # 6.1e-14 (TM) at eps 2.6 / 1.01; the ratio forms cancel none
    basis = BasisSpec(8)
    for x in (7.5e-3, 2.5e-4):
        diag = mie_diag(basis, x, eps)
        for l in (1, 4, 8):
            want = _t_mpmath(pol, l, x, eps)
            got = diag[basis.index(pol, l, 0)]
            assert abs((got - want) / want) < tol, (x, l)


@pytest.mark.parametrize("pol, tol", [
    pytest.param(POL_TE, 1e-5, id="te"), pytest.param(POL_TM, 1e-10, id="tm")])
def test_te_survives_nearly_transparent_spheres(pol, tol):
    # at eps - 1 = 1e-10 the difference form rounded 7 of these 15 TE
    # entries to 0; TE keeps the 1e-16 / (eps - 1) loss of forming
    # sqrt(eps) and rho_l(x) - n rho_l(nx) near eps = 1 (2.7e-6 here),
    # TM forms 1 - eps exactly and loses only in its x rho part (1.5e-11)
    basis = BasisSpec(3)
    eps = 1.0 + 1e-10
    diag = mie_diag(basis, 0.01, eps)
    for l in (1, 2, 3):
        want = _t_mpmath(pol, l, 0.01, eps)
        for m in range(-l, l + 1):
            got = diag[basis.index(pol, l, m)]
            assert abs((got - want) / want) < tol, (l, m)


def test_diag_is_finite_at_the_l_max_cap():
    # the TE ratios divide by i_l up to l_max 29: at x = 2.5e-4 (the
    # zero-frequency seed of a unit sphere) entries reach 5.8e-303, and
    # at 1e-6 the highest orders underflow to 0
    for x in (1e-6, 2.5e-4):
        diag = mie_diag(BasisSpec(29), x, 2.6)
        assert np.all(np.isfinite(diag))


def test_diag_evaluates_each_radial_table_once(monkeypatch):
    # three order tables, one mod_sph_bessel call each: i at x_B and
    # x_s, e at x_B; counted on the name mie itself calls
    import casphere.mie as mie
    calls = []
    radial = mie.mod_sph_bessel

    def counted(*args, **kwargs):
        calls.append(args)
        return radial(*args, **kwargs)

    monkeypatch.setattr(mie, "mod_sph_bessel", counted)
    mie_diag(BasisSpec(3), 0.9, 2.6)
    assert len(calls) == 3


# ----------------------------------------------------------- permittivity

def test_constant_permittivity():
    assert ConstantPermittivity(2.6).eps_imag_freq(17.3) == 2.6
    with pytest.raises(ValueError):
        ConstantPermittivity(-1.0)


def test_drude_lorentz_permittivity():
    model = DrudeLorentzPermittivity(((3.0, 2.0, 0.5),))
    assert model.eps_imag_freq(0.0) == pytest.approx(1.0 + 3.0 / 4.0)
    xi = 1.7
    want = 1.0 + 3.0 / (4.0 + xi * xi + 0.5 * xi)
    assert model.eps_imag_freq(xi) == pytest.approx(want, rel=1e-15)
    # static limit exceeds every finite-frequency value
    assert model.eps_imag_freq(0.0) > model.eps_imag_freq(0.3)
    assert model.eps_imag_freq(0.3) > model.eps_imag_freq(3.0)
    assert DrudeLorentzPermittivity().eps_imag_freq(1.0) == 1.0


def test_tabulated_permittivity():
    model = TabulatedPermittivity((1.0, 10.0, 100.0), (4.0, 3.0, 1.5))
    assert model.eps_imag_freq(1.0) == pytest.approx(4.0)
    assert model.eps_imag_freq(10.0) == pytest.approx(3.0)
    # log-linear between samples: midpoint of log(1), log(10)
    assert model.eps_imag_freq(math.sqrt(10.0)) == pytest.approx(3.5)
    # clamped outside the grid
    assert model.eps_imag_freq(0.01) == pytest.approx(4.0)
    assert model.eps_imag_freq(1e6) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        TabulatedPermittivity((1.0,), (2.0,))
    with pytest.raises(ValueError):
        TabulatedPermittivity((2.0, 1.0), (2.0, 2.0))
    with pytest.raises(ValueError):
        TabulatedPermittivity((1.0, 2.0), (2.0, -2.0))


def test_models_feed_coefficients():
    model = DrudeLorentzPermittivity(((3.0, 2.0, 0.5),))
    xi, radius = 1.2, 0.8
    eps = model.eps_imag_freq(xi)
    direct = mie_coefficient(POL_TM, 1, xi * radius, eps)
    assert np.isfinite(direct) and direct < 0.0
