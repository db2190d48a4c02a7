"""Large-N ring-diagram estimator: exact closed forms and scaling laws."""

import math

import numpy as np
import pytest

from casphere.largen import (DEFAULT_A_BAR, LargeNParams, derive_a_bar,
                             largen_asymptotic, largen_crosscheck,
                             largen_potential_integral, ring_scene)


def params(n=6, alpha_s=0.1, radius=1.0, separation=8.0):
    return LargeNParams(n=n, alpha_s=alpha_s, radius=radius,
                        separation=separation)


def test_hop_polynomial_rederives_from_translation_tables():
    got = derive_a_bar()
    assert len(got) == 3
    for g, w in zip(got, DEFAULT_A_BAR):
        assert g == pytest.approx(w, abs=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        LargeNParams(n=1, alpha_s=0.1, radius=1.0, separation=8.0)
    with pytest.raises(ValueError):
        LargeNParams(n=4, alpha_s=0.1, radius=1.0, separation=1.5)
    with pytest.raises(ValueError):
        LargeNParams(n=4, alpha_s=0.1, radius=-1.0, separation=8.0)
    with pytest.raises(ValueError):
        largen_asymptotic(params(n=2))
    for bad in (2, 3.5):
        with pytest.raises(ValueError, match="N >= 3"):
            largen_crosscheck(bad)


@pytest.mark.parametrize("field, value", [
    ("n", 3.5), ("n", True), ("n", 1), ("alpha_s", math.nan),
    ("alpha_s", math.inf), ("radius", math.nan), ("separation", math.inf),
    ("separation", math.nan),
])
def test_parameters_reject_bad_values_naming_them(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must"):
        params(**{field: value})


def _exact_log_magnitude(p):
    """ln|V| from the exact moments Int e^{-X} X^j dX = j! of the
    integer polynomial N^2 P(X/N) = 3 X^2 + 6 N X + 6 N^2, raised to N."""
    n = p.n
    poly = [1]
    for _ in range(n):
        nxt = [0] * (len(poly) + 2)
        for j, c in enumerate(poly):
            nxt[j] += 6 * n * n * c
            nxt[j + 1] += 6 * n * c
            nxt[j + 2] += 3 * c
        poly = nxt
    moment = sum(c * math.factorial(j) for j, c in enumerate(poly))
    hop = abs(p.alpha_s) * (p.radius / p.separation) ** 3
    return (math.lgamma(n) - math.log(n * p.separation) + n * math.log(hop)
            - 2 * n * math.log(n) + math.log(moment))


@pytest.mark.parametrize("n", [50, 200, 349])
def test_integral_matches_exact_moment_sum(n):
    p = params(n=n, alpha_s=0.05)
    got = largen_potential_integral(p).log_magnitude
    assert got == pytest.approx(_exact_log_magnitude(p), rel=1e-13)


def test_integral_is_bounded_in_n():
    # the Gauss-Laguerre rule takes N + 10 nodes; from 364 nodes scipy
    # returns NaN weights, so N = 353 is the last N it resolves
    top = largen_potential_integral(params(n=353))
    assert math.isfinite(top.log_magnitude)
    with pytest.raises(ValueError, match="n = 354.*--method asymptotic"):
        largen_potential_integral(params(n=354))
    assert math.isfinite(largen_asymptotic(params(n=10 ** 6)).log_magnitude)


def test_negative_strength_gives_the_same_magnitude():
    for route in (largen_potential_integral, largen_asymptotic):
        assert route(params(alpha_s=-0.05)).log_magnitude \
            == route(params(alpha_s=0.05)).log_magnitude


def test_zero_strength():
    for route in (largen_potential_integral, largen_asymptotic):
        res = route(params(alpha_s=0.0))
        assert res.log_magnitude == -math.inf
        assert res.magnitude == 0.0


def test_underflowing_hop_is_rejected():
    # alpha_s (R/s)^3 below the smallest float leaves the integral no
    # log to take; the Stirling form works in logs throughout
    p = params(n=3, alpha_s=1e-320, separation=1000.0)
    with pytest.raises(ValueError, match="underflows"):
        largen_potential_integral(p)
    assert math.isfinite(largen_asymptotic(p).log_magnitude)


def test_two_sphere_closed_form_default_hop():
    # F(X)^2 is a quartic polynomial; Int e^{-X} X^k = k! sums it exactly
    p = params(n=2, alpha_s=0.07, separation=5.0)
    res = largen_potential_integral(p)
    hop = p.alpha_s * (p.radius / p.separation) ** 3
    q_half = np.array([3.0 / 4.0, 3.0, 6.0])   # Q(X/2), highest first
    sq = np.polymul(q_half, q_half)
    integral = sum(c * math.factorial(len(sq) - 1 - k)
                   for k, c in enumerate(sq))
    want = hop ** 2 * integral / (2.0 * p.separation)
    assert res.magnitude == pytest.approx(want, rel=1e-13)
    assert res.parity == 1


def test_log_domain_matches_naive_product():
    # at N = 6 nothing overflows, so the plain-float evaluation works
    from scipy.special import roots_laguerre
    p = params(n=6, alpha_s=0.05, separation=7.0)
    res = largen_potential_integral(p)
    nodes, weights = roots_laguerre(max(40, p.n + 10))
    hop = p.alpha_s * (p.radius / p.separation) ** 3
    f = hop * np.polyval(DEFAULT_A_BAR, nodes / p.n)
    naive = math.gamma(p.n) / (p.n * p.separation) * np.sum(weights * f ** p.n)
    assert res.magnitude == pytest.approx(naive, rel=1e-10)


def test_separation_exponent_is_one_plus_three_n():
    # doubling s rescales |V| by exactly 2^{-(1+3N)} on both routes
    for n in (4, 9, 30):
        for route in (largen_potential_integral, largen_asymptotic):
            a = route(params(n=n, separation=6.0))
            b = route(params(n=n, separation=12.0))
            drop = b.log_magnitude - a.log_magnitude
            assert drop == pytest.approx(-(1.0 + 3.0 * n) * math.log(2.0),
                                         rel=1e-12)


def test_strength_exponent_is_n():
    for n in (4, 9, 30):
        for route in (largen_potential_integral, largen_asymptotic):
            a = route(params(n=n, alpha_s=0.04))
            b = route(params(n=n, alpha_s=0.08))
            gain = b.log_magnitude - a.log_magnitude
            assert gain == pytest.approx(n * math.log(2.0), rel=1e-12)


def test_parity_alternates():
    for n in (3, 4, 5, 6):
        res = largen_potential_integral(params(n=n))
        assert res.parity == (-1) ** n


def test_asymptotic_ratio_at_fixed_coupling():
    # holding lambda = N alpha_S fixed, the Stirling magnitudes obey
    # |V(N+1)|/|V(N)| = (lambda R^3 / (e s^3)) (N/(N+1))^3 exactly
    lam, radius, s = 0.8, 1.0, 6.0
    for n in (5, 12, 25, 60):
        a = largen_asymptotic(LargeNParams(n, lam / n, radius, s))
        b = largen_asymptotic(LargeNParams(n + 1, lam / (n + 1), radius, s))
        got = b.log_magnitude - a.log_magnitude
        want = math.log(lam * radius ** 3 / (math.e * s ** 3)) \
            + 3.0 * math.log(n / (n + 1.0))
        assert got == pytest.approx(want, rel=1e-12)
    # the geometric factor alone tells the story once N is large
    n = 60
    a = largen_asymptotic(LargeNParams(n, lam / n, radius, s))
    b = largen_asymptotic(LargeNParams(n + 1, lam / (n + 1), radius, s))
    ratio = math.exp(b.log_magnitude - a.log_magnitude)
    dominant = lam * radius ** 3 / (math.e * s ** 3)
    assert ratio == pytest.approx(dominant, rel=0.05)


def test_integral_to_asymptotic_gap_per_sphere_shrinks():
    # the Stirling form drops the O(1)^N polynomial normalization, so
    # ln(integral/asymptotic)/N decreases toward ln Q(0) = ln 6
    lam, radius, s = 0.8, 1.0, 6.0
    gaps = []
    for n in (6, 10, 20, 40):
        p = LargeNParams(n, lam / n, radius, s)
        gap = (largen_potential_integral(p).log_magnitude
               - largen_asymptotic(p).log_magnitude) / n
        gaps.append(gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert abs(gaps[-1] - math.log(6.0)) < 0.3


def test_ring_scene_geometry():
    scene = ring_scene(5, 0.4, 3.0, 2.6)
    assert len(scene.spheres) == 5
    assert [s.label for s in scene.spheres] == [f"s{i}" for i in range(5)]
    centers = np.array([s.center_array for s in scene.spheres])
    assert np.all(centers[:, 2] == 0.0)
    for i in range(5):
        gap = np.linalg.norm(centers[i] - centers[(i + 1) % 5])
        assert gap == pytest.approx(3.0, rel=1e-12)
    radii = np.linalg.norm(centers, axis=1)
    assert np.allclose(radii, 3.0 / (2.0 * math.sin(math.pi / 5.0)))


def test_crosscheck_ring_scaling():
    report = largen_crosscheck(3)
    assert report.exponent_predicted == -10.0
    assert report.exponent_rel_error < 0.1
    assert np.all(np.isfinite(report.ratio)) and np.all(report.ratio > 0.0)
    # the heuristic normalization is off by an N-dependent constant,
    # but the ratio must be flat across separations (same power law)
    spread = report.ratio.max() / report.ratio.min()
    assert spread < 1.5


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_crosscheck_larger_rings(n):
    report = largen_crosscheck(n)
    assert report.exponent_predicted == -(1.0 + 3.0 * n)
    assert report.exponent_rel_error < 1e-2
    assert np.all(np.isfinite(report.ratio)) and np.all(report.ratio > 0.0)
    assert report.ratio.max() / report.ratio.min() < 1.5
