"""Special functions against closed forms and high-precision oracles.

Frozen constants below were produced by 40-digit arbitrary-precision
evaluation (mpmath) of the defining Bessel/Legendre formulas, or by
exact rational Wigner algebra (sympy); the Gaunt value is additionally
recomputed here by brute-force sphere quadrature of the triple-harmonic
integral using scipy's own spherical harmonics.
"""

import math
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.special import sph_harm_y

import helpers
from casphere import translation
from casphere.specfun import (L_HARD_CAP, RadialKind, _value_and_dx,
                              assoc_legendre, gaunt_coefficient, gaunt_yyc,
                              mod_sph_bessel, mod_sph_bessel_dx, riccati_ik,
                              sph_harm, wigner_3j)

# 40-digit reference values
I4_AT_3 = 0.12749717929736216
E4_AT_3 = 0.24094482469386007          # (-1)^4 (2/pi) k_4(3)
P10_5_AT_03 = -0.11482671339565856
GAUNT_21_1M1_1 = -math.sqrt(15.0) / (10.0 * math.sqrt(math.pi))


# -------------------------------------------------------- domain

def test_domain_errors():
    with pytest.raises(ValueError):
        mod_sph_bessel("i", L_HARD_CAP + 1, 1.0)
    with pytest.raises(ValueError, match="L_HARD_CAP"):
        mod_sph_bessel("e", np.array([0, 3, L_HARD_CAP + 1]), 1.0)
    # fractional orders and booleans are refused, not truncated
    for bad in (2.5, True, np.array([1.0, 2.5]), np.array([False, True])):
        with pytest.raises(ValueError, match=r"order l=.* is not an integer"):
            mod_sph_bessel("i", bad, 1.0)
    with pytest.raises(ValueError, match=r"order l=2\.7 is not an integer"):
        sph_harm(2.7, 1, 0.3, 0.2)
    with pytest.raises(ValueError, match=r"order l=1\.5 is not an integer"):
        assoc_legendre(1.5, 0, 0.3)
    # integer values of any dtype are orders as before
    assert mod_sph_bessel("i", 2.0, 1.0) == mod_sph_bessel("i", 2, 1.0)
    assert np.array_equal(mod_sph_bessel("i", np.array([1, 2], np.uint8), 1.0),
                          mod_sph_bessel("i", [1, 2], 1.0))
    with pytest.raises(ValueError):
        mod_sph_bessel("i", 2, -0.5)
    for kind in ("i", "e"):
        for bad in (math.nan, math.inf, [1.0, math.nan]):
            with pytest.raises(ValueError, match="finite x >= 0"):
                mod_sph_bessel(kind, 2, bad)
    with pytest.raises(ValueError):
        mod_sph_bessel("nope", 2, 0.5)
    # k_l is a definition in ``constants``, not a kind
    with pytest.raises(ValueError):
        mod_sph_bessel("k", 2, 0.5)


# --------------------------------------------------- order arrays

def _unscale(kind, x):
    """e^{+x} for the regular kind, e^{-x} for the outgoing one: the
    factor that turns a returned radial value back into z_l(x)."""
    return math.exp(x if RadialKind(kind) is RadialKind.REGULAR else -x)


def _unscaled(fn, kind, x):
    """fn as a caller rebuilds the unscaled function from it."""
    return lambda l: np.multiply(fn(kind, l, x), _unscale(kind, x))


def _order_cases():
    orders = (np.arange(13),)
    for x in (1e-6, 1.0, 60.0, 800.0):
        for fn in (mod_sph_bessel, mod_sph_bessel_dx, riccati_ik):
            for kind in ("i", "e"):
                # the returned scaled values, and (below x = 700, where
                # e^{x} is finite) the unscaled ones rebuilt from them
                for scaled in (False, True) if x < 700.0 else (True,):
                    call = (partial(fn, kind, x=x) if scaled
                            else _unscaled(fn, kind, x))
                    yield pytest.param(
                        call, orders,
                        id=f"{fn.__name__}-{kind}-scaled={scaled}-x={x:g}")
    harmonic_orders = (np.arange(13)[:, None], np.arange(-12, 13))
    for theta in (1e-6, 1.0, 60.0):
        yield pytest.param(partial(sph_harm, theta=theta, phi=-0.7),
                           harmonic_orders, id=f"sph_harm-theta={theta:g}")


@pytest.mark.parametrize("call, orders", _order_cases())
def test_order_array_equals_scalar_calls(call, orders):
    got = np.asarray(call(*orders))
    want = np.array([call(*map(int, ls)) for ls in np.broadcast(*orders)])
    # riccati_ik returns a (z, S') pair per call: the pair axis leads
    want = np.moveaxis(want, 0, -1).reshape(got.shape)
    assert np.array_equal(got, want)


# --------------------------------------------------------- i_l and e_l

def test_mod_sph_bessel_closed_forms():
    # returned scaled: i_0(1) e^{-1} = sinh(1) e^{-1}
    assert mod_sph_bessel("i", 0, 1.0) * math.exp(1.0) == pytest.approx(
        math.sinh(1.0), rel=1e-14)
    # declared normalization: e_0(x) = e^{-x}/x, e_1(x) = -e^{-x}(1/x + 1/x^2)
    assert mod_sph_bessel("e", 0, 1.0) * math.exp(-1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-14)
    assert mod_sph_bessel("e", 1, 2.0) * math.exp(-2.0) == pytest.approx(
        -math.exp(-2.0) * 0.75, rel=1e-14)


def test_mod_sph_bessel_oracle_values():
    assert mod_sph_bessel("i", 4, 3.0) == pytest.approx(
        I4_AT_3 * math.exp(-3.0), rel=1e-12)
    assert mod_sph_bessel("e", 4, 3.0) == pytest.approx(
        E4_AT_3 * math.exp(3.0), rel=1e-12)
    # the terminating sum against scipy's K_{l+1/2}, odd and even l
    for l in (1, 2, 7, 20):
        for x in (0.05, 1.3, 40.0):
            assert mod_sph_bessel("e", l, x) == pytest.approx(
                float(helpers.mod_e(l, x)) * math.exp(x), rel=1e-12)


def _regular_40_digits(l, x):
    """i_l(x) e^{-x} from 40-digit mpmath."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return (mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.exp(-x)
                * mpmath.besseli(l + mpmath.mpf(1) / 2, x))


@pytest.mark.parametrize("x", [1e-6, 1e-4, 3e-3, 0.05, 0.4, 1.0, 3.3, 17.0,
                               61.0, 244.0, 500.0, 800.0])
def test_regular_kind_matches_40_digit_values(x):
    # every order up to the cap, wherever the value is a normal double
    got = mod_sph_bessel("i", np.arange(L_HARD_CAP + 1), x)
    for l in range(L_HARD_CAP + 1):
        want = _regular_40_digits(l, x)
        if want > 1e-290:
            assert got[l] == pytest.approx(float(want), rel=2e-15, abs=0.0)


def test_regular_kind_at_zero():
    got = mod_sph_bessel("i", np.arange(L_HARD_CAP + 1), 0.0)
    assert np.array_equal(got, np.eye(1, L_HARD_CAP + 1)[0])
    assert mod_sph_bessel("i", 0, 0.0) == 1.0


def _outgoing_numpy_sum(l, x):
    """e_l(x) e^{x}: the terminating sum, vectorized over the orders."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        acc = np.ones_like(l, dtype=float)
        term = np.ones_like(l, dtype=float)
        for k in range(1, int(l.max()) + 1):
            term = term * ((l + k) * (l - k + 1) / (2.0 * k)) / x
            acc = np.where(k <= l, acc + term, acc)
        return np.where(l % 2, -acc, acc) / x


def test_outgoing_table_equals_the_vectorized_sum():
    # the per-x Python loop makes the same operations in the same order
    l = np.arange(L_HARD_CAP + 1)
    for x in np.geomspace(1e-6, 800.0, 40):
        assert np.array_equal(mod_sph_bessel("e", l, x),
                              _outgoing_numpy_sum(l, x))
    xs = np.array([0.3, 2.0, 0.3, 5.0])
    assert np.array_equal(mod_sph_bessel("e", 7, xs),
                          _outgoing_numpy_sum(np.full(4, 7), xs))


def test_mod_sph_bessel_scaled_variants():
    # i_l e^{-x} and e_l e^{+x} against the unscaled scipy oracle
    for l in (0, 2, 7):
        for x in (0.2, 4.0, 50.0):
            assert mod_sph_bessel("i", l, x) == pytest.approx(
                float(helpers.mod_i(l, x)) * math.exp(-x), rel=1e-13)
            assert mod_sph_bessel("e", l, x) == pytest.approx(
                float(helpers.mod_e(l, x)) * math.exp(x), rel=1e-13)


def test_mod_sph_bessel_finite_at_large_argument():
    # e^{800} overflows; the scaled values do not
    assert np.isfinite(mod_sph_bessel("i", 1, 800.0))
    assert np.isfinite(mod_sph_bessel("e", 1, 800.0))


def test_modified_wronskian():
    # i_l e'_l - i'_l e_l = (-1)^{l+1}/x^2 under the declared normalization
    for l in (0, 1, 6, 20):
        for x in (0.02, 0.9, 12.0, 80.0):
            i = mod_sph_bessel("i", l, x)
            ip = mod_sph_bessel_dx("i", l, x)
            e = mod_sph_bessel("e", l, x)
            ep = mod_sph_bessel_dx("e", l, x)
            w = i * ep - ip * e          # e^{+-x} scalings cancel
            assert w == pytest.approx((-1.0) ** (l + 1) / x**2, rel=1e-10)


def test_modified_recurrences():
    # i_l and e_l share z_{l-1} - z_{l+1} = (2l+1)/x z_l
    for kind in ("i", "e"):
        for l in (1, 3, 9):
            for x in (0.1, 2.2, 30.0):
                lhs = mod_sph_bessel(kind, l - 1, x) \
                    - mod_sph_bessel(kind, l + 1, x)
                rhs = (2 * l + 1) / x * mod_sph_bessel(kind, l, x)
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_derivatives_match_the_scipy_oracle():
    for kind, oracle in (("i", helpers.mod_i), ("e", helpers.mod_e)):
        for l in (0, 1, 4, 11):
            for x in (0.3, 2.5, 25.0):
                z, dz = _value_and_dx(kind, l, x)
                scale = 1.0 / _unscale(kind, x)
                assert z == pytest.approx(float(oracle(l, x)) * scale,
                                          rel=1e-12)
                h = 1e-5 * x
                fd = (oracle(l, x + h) - oracle(l, x - h)) / (2.0 * h)
                assert dz == pytest.approx(float(fd) * scale, rel=1e-7)


def test_riccati_pair_matches_product_rule():
    for kind in ("i", "e"):
        for l in (1, 4):
            z, sp = riccati_ik(kind, l, 1.7)
            dz = mod_sph_bessel_dx(kind, l, 1.7)
            assert z == pytest.approx(mod_sph_bessel(kind, l, 1.7), rel=1e-14)
            assert sp == pytest.approx(z + 1.7 * dz, rel=1e-14)


def test_value_and_dx_evaluates_the_radial_table_once(monkeypatch):
    # z_l and the lower neighbours z_{l-1} come from one call
    import casphere.specfun as specfun
    calls = []
    radial = specfun.mod_sph_bessel

    def counted(*args, **kwargs):
        calls.append(args)
        return radial(*args, **kwargs)

    monkeypatch.setattr(specfun, "mod_sph_bessel", counted)
    for kind in ("i", "e"):
        riccati_ik(kind, np.arange(1, 5), 0.7)
        mod_sph_bessel_dx(kind, 3, 2.0)
    assert len(calls) == 4


def test_radial_kind_enum_round_trip():
    assert RadialKind("i") is RadialKind.REGULAR
    assert RadialKind("e") is RadialKind.OUTGOING
    assert {k.value for k in RadialKind} == {"i", "e"}
    # translations take the kind itself
    assert translation.KIND_OUTGOING is RadialKind.OUTGOING
    assert translation.KIND_REGULAR is RadialKind.REGULAR


# ---------------------------------------------------- associated Legendre

def test_assoc_legendre_convention_values():
    # orthonormal convention: P~_1^0(u) = sqrt(3/4pi) u
    c = math.sqrt(3.0 / (4.0 * math.pi))
    assert assoc_legendre(1, 0, 1.0) == pytest.approx(c, rel=1e-14)
    assert assoc_legendre(1, 0, 0.7) == pytest.approx(0.7 * c, rel=1e-14)
    assert assoc_legendre(2, 2, 0.0) == pytest.approx(
        math.sqrt(15.0 / (32.0 * math.pi)), rel=1e-14)


def test_assoc_legendre_oracle_value():
    assert assoc_legendre(10, 5, 0.3) == pytest.approx(P10_5_AT_03, rel=1e-12)


def test_assoc_legendre_negative_m_phase():
    for l, m in ((3, 1), (5, 4), (10, 7)):
        for u in (-0.6, 0.25):
            assert assoc_legendre(l, -m, u) == pytest.approx(
                (-1.0) ** m * assoc_legendre(l, m, u), rel=1e-13)


def test_assoc_legendre_orthonormality():
    # 2 pi Int_{-1}^{1} P~_lm P~_l'm du = delta_{ll'}
    u, w = np.polynomial.legendre.leggauss(40)
    for m in (0, 2):
        for l in (max(m, 1), m + 3):
            for lp in (max(m, 1), m + 3):
                val = 2.0 * math.pi * np.sum(
                    w * assoc_legendre(l, m, u) * assoc_legendre(lp, m, u))
                assert val == pytest.approx(1.0 if l == lp else 0.0, abs=1e-12)


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(2, 1, 1.5)


def test_harmonic_table_vanishes_off_axis_at_the_poles():
    # an axial pair relies on Y_pq(d^) = 0 exactly for q != 0 at d^ = +-z^
    p = np.arange(10)[:, None]
    q = np.arange(-9, 10)
    for theta in (0.0, math.pi):
        for phi in (0.0, math.pi, -math.pi):
            table = sph_harm(p, q, theta, phi)
            assert np.all(table[:, q != 0] == 0.0)
            assert np.all(table[:, q == 0] != 0.0)


def test_sph_harm_matches_scipy():
    theta, phi = 1.1, -0.7
    for l, m in ((1, 0), (3, -2), (5, 5)):
        got = sph_harm(l, m, theta, phi)
        want = complex(sph_harm_y(l, m, theta, phi))
        assert got == pytest.approx(want, rel=1e-12)
    # outside |m| <= l the table entries are exactly zero
    assert sph_harm(2, 3, theta, phi) == 0.0
    assert sph_harm(0, -1, theta, phi) == 0.0


# ----------------------------------------------------- Wigner and Gaunt

def test_wigner_3j_selection_rules_and_exact_values():
    assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0
    assert wigner_3j(1, 1, 1, 1, 1, 1) == 0.0
    assert wigner_3j(3, 2, 1, 1, 1, -2) == 0.0            # parity zero
    # exact rational-sqrt values
    assert wigner_3j(2, 1, 1, 1, 0, -1) == pytest.approx(
        -math.sqrt(10.0) / 10.0, rel=1e-13)
    assert wigner_3j(2, 1, 1, 0, 0, 0) == pytest.approx(
        math.sqrt(30.0) / 15.0, rel=1e-13)


def test_gaunt_selection_rules_and_closed_form():
    assert gaunt_coefficient(5, 0, 1, 0, 2) == 0.0        # triangle
    assert gaunt_coefficient(2, 0, 2, 0, 3) == 0.0        # parity
    assert gaunt_coefficient(3, 3, 1, 1, 2) == 0.0        # |m3| > l3
    assert gaunt_coefficient(0, 0, 0, 0, 0) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), rel=1e-14)


def test_gaunt_oracle_value_and_quadrature():
    got = gaunt_coefficient(2, 1, 1, -1, 1)
    assert got == pytest.approx(GAUNT_21_1M1_1, rel=1e-13)
    # brute-force quadrature of Int Y_21 Y_1,-1 Y_10 dOmega
    u, w = np.polynomial.legendre.leggauss(30)
    theta = np.arccos(u)
    nphi = 60
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ww = np.repeat(w, nphi) * (2.0 * np.pi / nphi)
    trip = (sph_harm_y(2, 1, tt.ravel(), pp.ravel())
            * sph_harm_y(1, -1, tt.ravel(), pp.ravel())
            * sph_harm_y(1, 0, tt.ravel(), pp.ravel()))
    quad = float(np.sum(ww * trip).real)
    assert got == pytest.approx(quad, rel=1e-12)


def test_gaunt_symmetry_under_pair_permutation():
    cases = [(2, 1, 1, -1, 1), (3, 0, 2, 1, 3), (4, -2, 2, 2, 2)]
    for l1, m1, l2, m2, l3 in cases:
        a = gaunt_coefficient(l1, m1, l2, m2, l3)
        b = gaunt_coefficient(l2, m2, l1, m1, l3)
        c = gaunt_coefficient(l3, -m1 - m2, l2, m2, l1)
        assert a == pytest.approx(b, rel=1e-13)
        assert a == pytest.approx(c, rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_gaunt_yyc_matches_quadrature(p):
    # Int Y_lm Y*_l'm' Y*_{p,m-m'} dOmega, the coupling used by translations;
    # p = 2 is a selection-rule zero, p = 1 and 3 give 0.2185 and -0.1430
    l, m, lp, mpp = 2, 1, 1, 1
    got = gaunt_yyc(l, m, lp, mpp, p)
    u, w = np.polynomial.legendre.leggauss(30)
    theta = np.arccos(u)
    nphi = 60
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    tt, pp2 = np.meshgrid(theta, phi, indexing="ij")
    ww = np.repeat(w, nphi) * (2.0 * np.pi / nphi)
    trip = (sph_harm_y(l, m, tt.ravel(), pp2.ravel())
            * np.conj(sph_harm_y(lp, mpp, tt.ravel(), pp2.ravel()))
            * np.conj(sph_harm_y(p, m - mpp, tt.ravel(), pp2.ravel())))
    quad = float(np.sum(ww * trip).real)
    assert got == pytest.approx(quad, rel=1e-12, abs=1e-14)
