"""Extremal families: closed forms, series materializations, collisions."""

import cmath
import math
import random

import pytest

from polylandau import (
    BracketError,
    DerivAll,
    DerivNormalized,
    DomainError,
    ExtremalSpec,
    bounded_deriv_component,
    classical_landau,
    coeff_extremal_series,
    collision_pair,
    deriv_extremal_fn,
    deriv_radii,
    extremal_eval,
    normalized_extremal_fn,
    poly_eval,
    real_profile,
    real_profile_derivative,
    series_derivative,
    series_eval,
    unit_modulus_extremal_fn,
    univalence_margin_deriv,
)


B = DerivAll(2.0, (1.0,))


def test_spec_validation():
    with pytest.raises(DomainError):
        ExtremalSpec("unknown")
    with pytest.raises(DomainError):
        ExtremalSpec("deriv")  # missing profile
    with pytest.raises(DomainError):
        ExtremalSpec("deriv", profile=DerivNormalized((1.0,)))
    with pytest.raises(DomainError):
        ExtremalSpec("unit_modulus", order=1)
    with pytest.raises(DomainError):
        ExtremalSpec("classical", bound=1.0)
    with pytest.raises(DomainError):
        ExtremalSpec("coeff", bound=2.0, power=1)
    ExtremalSpec("coeff", bound=2.0, power=3)  # valid


def test_deriv_value_closed_form():
    spec = ExtremalSpec("deriv", profile=B)
    z = 0.2 + 0.1j
    expected = 4.0 * z + 6.0 * cmath.log(1 - z / 2.0) - 1.0 * z.conjugate() * z
    assert extremal_eval(spec, z) == pytest.approx(expected, abs=1e-14)


def test_normalized_value_closed_form():
    spec = ExtremalSpec("normalized", profile=DerivNormalized((0.5,)))
    z = 0.3 - 0.2j
    assert extremal_eval(spec, z) == pytest.approx(z - 0.5 * z.conjugate() * z, abs=1e-15)


def test_unit_modulus_value_closed_form():
    spec = ExtremalSpec("unit_modulus", order=3)
    z = 0.25 + 0.25j
    zb = z.conjugate()
    assert extremal_eval(spec, z) == pytest.approx(z + zb * z + zb * zb * z, abs=1e-15)


def test_classical_value_attains_boundary_radius():
    r0, big_r0 = classical_landau(2.0)
    spec = ExtremalSpec("classical", bound=2.0)
    assert abs(extremal_eval(spec, r0)) == pytest.approx(big_r0, abs=1e-12)


def test_bounded_ratio_is_bounded_by_m():
    spec = ExtremalSpec("coeff", bound=2.0, power=3)
    rng = random.Random(3)
    for _ in range(200):
        t = 2 * math.pi * rng.random()
        r = math.sqrt(rng.random())
        v = abs(extremal_eval(spec, complex(r * math.cos(t), r * math.sin(t))))
        assert v <= 2.0 + 1e-9


def test_deriv_component_series_matches_closed_form():
    comp = bounded_deriv_component(2.0)
    for z in (0.3, -0.5j, 0.6 + 0.2j):
        closed = 4.0 * z + 6.0 * cmath.log(1 - z / 2.0)
        assert series_eval(comp, z) == pytest.approx(closed, abs=1e-12)


def test_deriv_component_derivative_is_a_moebius_map():
    # |A0'(z)| = L0 |(1 - L0 z)/(L0 - z)| stays strictly below L0 on the disk
    comp = bounded_deriv_component(2.0)
    d = series_derivative(comp)
    rng = random.Random(11)
    for _ in range(300):
        t = 2 * math.pi * rng.random()
        r = 0.999 * math.sqrt(rng.random())
        z = complex(r * math.cos(t), r * math.sin(t))
        got = series_eval(d, z)
        expected = 2.0 * (1 - 2.0 * z) / (2.0 - z)
        assert got == pytest.approx(expected, abs=1e-9)
        assert abs(got) < 2.0


def test_deriv_component_degree_grows_near_one():
    assert bounded_deriv_component(1.05).degree > bounded_deriv_component(5.0).degree


def test_deriv_extremal_fn_matches_eval():
    F = deriv_extremal_fn(B)
    spec = ExtremalSpec("deriv", profile=B)
    for z in (0.1, 0.2 - 0.1j, 0.25j):
        assert poly_eval(F, z) == pytest.approx(extremal_eval(spec, z), abs=1e-12)


def test_normalized_extremal_fn_matches_eval():
    b = DerivNormalized((0.7, 0.2))
    F = normalized_extremal_fn(b)
    spec = ExtremalSpec("normalized", profile=b)
    for z in (0.4, -0.3 + 0.3j):
        assert poly_eval(F, z) == pytest.approx(extremal_eval(spec, z), abs=1e-15)


def test_unit_modulus_extremal_fn_matches_eval():
    F = unit_modulus_extremal_fn(3)
    spec = ExtremalSpec("unit_modulus", order=3)
    for z in (0.2, 0.1 + 0.4j):
        assert poly_eval(F, z) == pytest.approx(extremal_eval(spec, z), abs=1e-15)


def test_coeff_series_exact_leading_gap_coefficient():
    s = coeff_extremal_series(2.0, 3)
    assert s.coeffs[1] == 1
    assert s.coeffs[3] == -1.5  # -(M - 1/M) placed exactly
    assert s.coeffs[2] == 0
    # the j = 2 term sits at (n-1)j + 1 = 5 with value -(M^2-1)/M^2
    assert s.coeffs[5] == pytest.approx(-0.75, abs=1e-15)


def test_coeff_series_matches_closed_form():
    s = coeff_extremal_series(2.0, 2)
    spec = ExtremalSpec("classical", bound=2.0)
    for z in (0.3, 0.2 + 0.4j):
        assert series_eval(s, z) == pytest.approx(extremal_eval(spec, z), abs=1e-12)


def test_real_profile_matches_complex_eval():
    spec = ExtremalSpec("deriv", profile=B)
    for x in (0.0, 0.1, 0.26, 0.5):
        assert real_profile(x, B) == extremal_eval(spec, complex(x)).real


def test_real_profile_peaks_at_rho():
    res = deriv_radii(B)
    assert real_profile(res.rho, B) == pytest.approx(res.sigma, abs=1e-12)
    assert real_profile_derivative(res.rho, B) == pytest.approx(0.0, abs=1e-12)


def test_profile_derivative_equals_univalence_margin():
    # the growth of the extremal along the real axis is exactly the margin
    rng = random.Random(23)
    for _ in range(5):
        b = DerivAll(1.2 + 3.0 * rng.random(), tuple(rng.uniform(0, 2) for _ in range(2)))
        for i in range(50):
            x = i / 50 * min(1.0, 1.0 / b.lambda0)
            assert real_profile_derivative(x, b) == pytest.approx(
                univalence_margin_deriv(x, b), abs=1e-10
            )


def test_profile_domain_gate():
    with pytest.raises(DomainError):
        real_profile(1.5, B)
    with pytest.raises(DomainError):
        real_profile_derivative(-0.1, B)


def test_collision_pair_straddles_rho():
    res = deriv_radii(B)
    x1, x2 = collision_pair(B, 0.5)
    assert x2 < res.rho < x1 < 0.5
    spec = ExtremalSpec("deriv", profile=B)
    v1 = extremal_eval(spec, complex(x1))
    v2 = extremal_eval(spec, complex(x2))
    assert abs(v1 - v2) < 1e-10
    # the exponentials collide as well, breaking injectivity of exp(F)
    assert abs(cmath.exp(v1) - cmath.exp(v2)) < 1e-10


def test_collision_pair_at_full_window():
    x1, x2 = collision_pair(B, 1.0)
    assert abs(real_profile(x1, B) - real_profile(x2, B)) < 1e-12


def test_collision_requires_room_past_rho():
    res = deriv_radii(B)
    with pytest.raises(DomainError):
        collision_pair(B, res.rho)
    with pytest.raises(DomainError):
        collision_pair(B, 0.1)


def test_collision_pair_various_profiles():
    rng = random.Random(41)
    for _ in range(5):
        b = DerivAll(1.3 + 2.0 * rng.random(), tuple(rng.uniform(0.2, 1.5) for _ in range(rng.randrange(1, 3))))
        rho = deriv_radii(b).rho
        r = min(1.0, rho * 2.0)
        x1, x2 = collision_pair(b, r)
        assert x2 < rho < x1
        assert abs(real_profile(x1, b) - real_profile(x2, b)) < 1e-12
