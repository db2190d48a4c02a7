"""Imaginary-frequency quadratures on integrands with known closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from casphere.spectral import (SpectralSettings, integrate_zero_t,
                               matsubara_sum, zero_frequency_limit)


def test_zero_integrand():
    val, err = integrate_zero_t(lambda xi: 0.0, 1.0)
    assert val == 0.0
    assert err == 0.0


def test_pure_exponential():
    val, err = integrate_zero_t(lambda xi: math.exp(-xi), 1.0)
    assert val == pytest.approx(1.0, rel=1e-12)
    assert err < 1e-12


def test_gamma_integrand():
    # Int xi^2 e^{-2 d xi} = Gamma(3)/(2d)^3, the shape of a dipole
    # energy integrand with optical path d
    for d in (0.7, 3.0):
        val, err = integrate_zero_t(
            lambda xi: xi * xi * math.exp(-2.0 * d * xi), 2.0 * d)
        want = 2.0 / (2.0 * d) ** 3
        assert val == pytest.approx(want, rel=1e-10)


def test_settings_validate_node_counts():
    # 185 nodes in all is the largest rule whose weights stay finite
    widest = SpectralSettings(n_nodes=177, check_nodes=8)
    val, _ = integrate_zero_t(lambda xi: math.exp(-xi), 1.0, widest)
    assert val == pytest.approx(1.0, rel=1e-12)
    for field, value in (("n_nodes", 178), ("n_nodes", 0),
                         ("check_nodes", 0)):
        with pytest.raises(ValueError, match=field):
            SpectralSettings(**{field: value})
    for removed in ("temperature", "adaptive", "rel_tol"):
        with pytest.raises(TypeError):
            SpectralSettings(**{removed: 0})


@pytest.mark.parametrize("field, value", [
    ("n_nodes", 40.5), ("n_nodes", True), ("n_nodes", "40"),
    ("check_nodes", 2.0), ("check_nodes", False),
    ("n_matsubara_max", 0), ("n_matsubara_max", 10.5),
    ("n_matsubara_max", True),
    ("matsubara_tail_tol", math.nan), ("matsubara_tail_tol", 0.0),
    ("matsubara_tail_tol", -1e-10), ("matsubara_tail_tol", math.inf),
    ("xi_eps", -1e-3), ("xi_eps", 0.0), ("xi_eps", math.nan),
    ("xi_eps", math.inf), ("xi_eps", True),
])
def test_settings_reject_bad_fields_naming_them(field, value):
    with pytest.raises(ValueError, match=field):
        SpectralSettings(**{field: value})


def test_settings_accept_numpy_scalars():
    s = SpectralSettings(n_nodes=np.int64(24), n_matsubara_max=np.int32(5),
                         matsubara_tail_tol=np.float64(1e-8), xi_eps=1)
    assert (s.n_nodes, s.n_matsubara_max, s.xi_eps) == (24, 5, 1)


def test_vector_integrand():
    d = np.array([1.0, 2.0])
    val, err = integrate_zero_t(
        lambda xi: xi * xi * np.exp(-2.0 * d * xi), 2.0)
    assert val.shape == err.shape == (2,)
    want = 2.0 / (2.0 * d) ** 3
    assert np.allclose(val, want, rtol=1e-9)


def test_error_estimate_tracks_true_error():
    # an integrand Gauss-Laguerre does not capture exactly, with a
    # mismatched decay scale on purpose
    exact = 0.5   # Int e^{-xi} cos xi
    val, err = integrate_zero_t(lambda xi: math.exp(-xi) * math.cos(xi), 2.0)
    true = abs(val - exact)
    assert true < 50.0 * err + 1e-12
    assert err < 1e-4


def test_gauss_laguerre_agrees_with_adaptive_quad():
    f = lambda xi: xi * xi * math.exp(-2.0 * xi) / (1.0 + 0.3 * xi)
    gl_val, gl_err = integrate_zero_t(f, 2.0)
    ad_val, ad_err = quad(f, 0.0, np.inf, epsrel=1e-8, limit=200)
    assert abs(gl_val - ad_val) <= 10.0 * (gl_err + ad_err) + 1e-12


def test_decay_scale_validation():
    with pytest.raises(ValueError):
        integrate_zero_t(lambda xi: 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_zero_t(lambda xi: 0.0, -1.0)


def test_zero_frequency_limit():
    f = lambda xi: (1.0 - math.cos(xi)) / (xi * xi)
    val, err = zero_frequency_limit(f)
    assert val == pytest.approx(0.5, abs=1e-7)
    assert abs(val - 0.5) < 10.0 * err + 1e-12
    # seed-independence, on a form free of subtractive cancellation
    g = lambda xi: math.sin(xi) / xi
    v1, _ = zero_frequency_limit(g, xi_eps=1e-3)
    v2, _ = zero_frequency_limit(g, xi_eps=1e-5)
    assert abs(v1 - v2) < 1e-6
    assert v2 == pytest.approx(1.0, abs=1e-9)


def test_matsubara_zero_integrand():
    val, err, n = matsubara_sum(lambda xi: 0.0, 0.01)
    assert val == 0.0 and err == 0.0


def test_matsubara_requires_positive_temperature():
    with pytest.raises(ValueError):
        matsubara_sum(lambda xi: 0.0, 0.0)


def test_matsubara_f_zero_weight():
    # the n = 0 term is zero_frequency_limit's f(0+) with weight
    # 2 pi T~ / 2; cap the sum length so the adaptive stop cannot
    # shorten the sum
    t = 0.013
    f = lambda xi: math.exp(-3.0 * xi)
    settings = SpectralSettings(n_matsubara_max=30)
    val, _, n = matsubara_sum(f, t, settings)
    assert n == 30
    step = 2.0 * math.pi * t
    f_zero, _ = zero_frequency_limit(f, settings.xi_eps)
    want = step * (0.5 * f_zero + sum(f(step * k) for k in range(1, 31)))
    assert val == pytest.approx(want, rel=1e-12)


def test_matsubara_approaches_integral_at_low_temperature():
    # xi_1 d = 0.05: the sum and the T = 0 integral differ by less
    # than 0.5 percent (they agree far better on this smooth toy)
    d = 1.0
    temp = 0.05 / (2.0 * math.pi * d)
    f = lambda xi: xi * xi * math.exp(-2.0 * d * xi)
    s_val, s_err, n = matsubara_sum(f, temp)
    i_val, _ = integrate_zero_t(f, 2.0 * d)
    assert n < 2000
    assert s_val == pytest.approx(i_val, rel=5e-3)


def test_matsubara_flags_unconverged_tail():
    settings = SpectralSettings(n_matsubara_max=40)
    val, err, n = matsubara_sum(lambda xi: 1.0 / (1.0 + xi), 0.05, settings)
    assert n == 40
    assert err > 0.0
