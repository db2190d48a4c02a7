"""Sphere T-matrix coefficients and permittivity models.

Anchor values are frozen from a 40-digit mpmath evaluation of the same
Riccati-function ratios via direct differentiation of x z_l(x); the
dipole laws are closed forms.
"""

import math

import numpy as np
import pytest

from casphere.basis import POL_TE, POL_TM, BasisSpec
from casphere.mie import (ConstantPermittivity, DrudeLorentzPermittivity,
                          TabulatedPermittivity, mie_coefficient, mie_diag)
from casphere.specfun import riccati_ik

# (pol, l, x, eps_rel) -> T, mpmath at 40 digits
ANCHORS = [
    (POL_TM, 1, 0.7, 2.6, -0.081451143142375835),
    (POL_TE, 1, 0.7, 2.6, 0.0060090901272189161),
    (POL_TM, 2, 1.3, 4.0, 0.078874412530814952),
    (POL_TE, 3, 2.1, 1.5, 0.0056825218989633598),
    (POL_TM, 1, 5.0, 9.0, -3836.6704719883755),
]


def test_frozen_anchors():
    for pol, l, x, eps, want in ANCHORS:
        assert mie_coefficient(pol, l, x, eps) == pytest.approx(
            want, rel=5e-12)


def test_no_contrast_scatters_nothing():
    for pol in (POL_TE, POL_TM):
        for l in (1, 2, 5):
            assert mie_coefficient(pol, l, 0.8, 1.0) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
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
        assert mie_coefficient(POL_TM, 1, x, eps) == pytest.approx(
            want, rel=1e-5)


def test_te_dipole_limit():
    # T^TE_1 -> (eps - 1) x^5 / 45
    x = 1e-2
    for eps in (1.5, 2.6):
        want = (eps - 1.0) * x ** 5 / 45.0
        assert mie_coefficient(POL_TE, 1, x, eps) == pytest.approx(
            want, rel=1e-4)


def test_small_x_powers():
    # log-log slope between x = 1e-2 and 1e-3: 3 for TM1, 5 for TE1
    eps = 2.6
    for pol, power in ((POL_TM, 3.0), (POL_TE, 5.0)):
        t1 = mie_coefficient(pol, 1, 1e-2, eps)
        t2 = mie_coefficient(pol, 1, 1e-3, eps)
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
    assert 0.0 < abs(mie_coefficient(POL_TM, 1, 40.0, 2.6, scaled=True)) < 1.0


def test_scaled_consistency_and_overflow():
    x = 12.0
    for pol, l in ((POL_TE, 1), (POL_TM, 2)):
        s = mie_coefficient(pol, l, x, 2.6, scaled=True)
        u = mie_coefficient(pol, l, x, 2.6)
        assert s * math.exp(2.0 * x) == pytest.approx(u, rel=1e-14)
    with pytest.raises(OverflowError):
        mie_coefficient(POL_TM, 1, 800.0, 2.6)
    assert math.isfinite(mie_coefficient(POL_TM, 1, 800.0, 2.6, scaled=True))


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
    """T_{pol,l} from scalar Riccati calls, one (pol, l) at a time: the
    loop that ``mie_diag`` replaced, kept as its reference."""
    if eps_rel == 1.0:
        return 0.0

    def pair(arg):
        zi, spi = riccati_ik("i", l, arg, scaled=True)
        ze, spe = riccati_ik("e", l, arg, scaled=True)
        return (float(zi), float(spi)), (float(ze), float(spe))

    (ib, spb), (eb, epb) = pair(x)
    (is_, sps), _ = pair(math.sqrt(eps_rel) * x)
    if pol == POL_TE:
        t = (spb * is_ - ib * sps) / (eb * sps - epb * is_)
    else:
        t = (ib * sps - eps_rel * spb * is_) / (eps_rel * epb * is_ - eb * sps)
    return t if scaled else t * math.exp(2.0 * x)


@pytest.mark.parametrize("l_max, x, eps, scaled", [
    (4, 0.9, 2.6, False), (4, 0.05, 80.0, True), (5, 3.3, 0.5, False),
    (3, 1.3, 1.0, False), (6, 400.0, 2.6, True)])
def test_diag_equals_the_per_order_loop(l_max, x, eps, scaled):
    basis = BasisSpec(l_max)
    want = np.array([_t_one_order(pol, l, x, eps, scaled)
                     for pol, l, _ in basis.labels()])
    assert np.array_equal(mie_diag(basis, x, eps, scaled=scaled), want)


def test_diag_evaluates_each_radial_table_once(monkeypatch):
    # three Riccati pairs (i at x_B and x_s, e at x_B), each one
    # evaluation of z_l together with z_{l-1} for its derivative
    import casphere.specfun as specfun
    calls = []
    radial = specfun.mod_sph_bessel

    def counted(*args, **kwargs):
        calls.append(args)
        return radial(*args, **kwargs)

    monkeypatch.setattr(specfun, "mod_sph_bessel", counted)
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
