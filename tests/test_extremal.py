"""Extremal witnesses: closed forms against series and 50-digit oracles, collisions."""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from polylandau import (
    BracketError,
    DerivAll,
    DerivNormalized,
    DomainError,
    ModulusAll,
    PolyAnalyticFn,
    TruncatedTaylorSeries,
    bounded_deriv_component,
    classical_landau,
    coeff_extremal_series,
    collision_pair,
    deriv_extremal_fn,
    deriv_radii,
    normalized_extremal_fn,
    poly_eval,
    poly_eval_array,
    real_profile,
    real_profile_derivative,
    series_derivative,
    series_eval,
    unit_modulus_extremal_fn,
    univalence_margin_deriv,
)
from polylandau.extremal import AUDIT_RADIUS, extremal_fn
from _oracles import deriv_lead_coeffs


B = DerivAll(2.0, (1.0,))


def _audit_grid(radial: int = 16, angular: int = 32) -> list[complex]:
    """A polar grid on |z| <= AUDIT_RADIUS, its outer circle included."""
    return [
        AUDIT_RADIUS * k / radial * cmath.exp(2j * math.pi * j / angular)
        for k in range(1, radial + 1)
        for j in range(angular)
    ]


def test_deriv_value_closed_form():
    z = 0.2 + 0.1j
    expected = 4.0 * z + 6.0 * cmath.log(1 - z / 2.0) - 1.0 * z.conjugate() * z
    assert deriv_extremal_fn(B)(z) == pytest.approx(expected, abs=1e-14)


def test_normalized_value_closed_form():
    z = 0.3 - 0.2j
    assert normalized_extremal_fn(DerivNormalized((0.5,)))(z) == pytest.approx(z - 0.5 * z.conjugate() * z, abs=1e-15)


def test_unit_modulus_value_closed_form():
    z = 0.25 + 0.25j
    zb = z.conjugate()
    assert unit_modulus_extremal_fn(3)(z) == pytest.approx(z + zb * z + zb * zb * z, abs=1e-15)


def test_classical_value_attains_boundary_radius():
    r0, big_r0 = classical_landau(2.0)
    assert abs(extremal_fn(ModulusAll((2.0,)))(r0)) == pytest.approx(big_r0, abs=1e-12)


def test_bounded_ratio_is_bounded_by_m():
    comp = extremal_fn(ModulusAll((2.0,))).components[0]
    rng = random.Random(3)
    for _ in range(200):
        t = 2 * math.pi * rng.random()
        r = math.sqrt(rng.random())
        assert abs(complex(comp.value(complex(r * math.cos(t), r * math.sin(t))))) <= 2.0 + 1e-9


@pytest.mark.parametrize("m", [1.5, 2.0, 10.0, 1e6])
def test_classical_component_is_normalized_and_reaches_its_bound(m):
    comp = extremal_fn(ModulusAll((m,))).components[0]
    assert comp.value(0j) == 0
    assert comp.derivative(0j) == 1
    worst = np.max(np.abs(comp.value(np.array(_audit_grid()))))
    assert 0.99 * m <= worst <= m * (1 + 1e-15)


def test_classical_component_matches_coefficient_series():
    comp = extremal_fn(ModulusAll((2.0,))).components[0]
    s = coeff_extremal_series(2.0, 2)
    d = series_derivative(s)
    for z in _audit_grid(8, 16):
        assert complex(comp.value(z)) == pytest.approx(series_eval(s, z), abs=1e-14)
        assert complex(comp.derivative(z)) == pytest.approx(series_eval(d, z), abs=1e-13)


def test_deriv_component_series_matches_closed_form():
    comp = bounded_deriv_component(2.0)
    for z in (0.3, -0.5j, 0.6 + 0.2j):
        closed = 4.0 * z + 6.0 * cmath.log(1 - z / 2.0)
        assert complex(comp.value(z)) == pytest.approx(closed, abs=1e-15)


def test_deriv_component_derivative_is_a_moebius_map():
    # |A0'(z)| = L0 |(1 - L0 z)/(L0 - z)| stays strictly below L0 on the disk
    comp = bounded_deriv_component(2.0)
    rng = random.Random(11)
    for _ in range(300):
        t = 2 * math.pi * rng.random()
        r = 0.999 * math.sqrt(rng.random())
        z = complex(r * math.cos(t), r * math.sin(t))
        got = complex(comp.derivative(z))
        expected = 2.0 * (1 - 2.0 * z) / (2.0 - z)
        assert got == pytest.approx(expected, abs=1e-14)
        assert abs(got) < 2.0


@pytest.mark.parametrize("lam", [2.0, 6.0])
def test_deriv_component_matches_taylor_series(lam):
    # 256 terms leave a tail below 1e-70 at |z| = AUDIT_RADIUS for L0 >= 2
    s = TruncatedTaylorSeries(deriv_lead_coeffs(lam, 256))
    d = series_derivative(s)
    comp = bounded_deriv_component(lam)
    for z in _audit_grid():
        assert abs(complex(comp.value(z)) - series_eval(s, z)) <= 1e-14 * (1 + abs(series_eval(s, z)))
        assert abs(complex(comp.derivative(z)) - series_eval(d, z)) <= 1e-14 * lam


def _deriv_lead_points(lam: float) -> list[complex]:
    # the audit grid, plus points beside the zero 1/L of A' and the zero of A past it
    pts = _audit_grid()
    rng = random.Random(5)
    pts += [AUDIT_RADIUS * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()) for _ in range(200)]
    if 1.0 / lam < AUDIT_RADIUS:
        pts += [complex(1.0 / lam * (1.0 + d), e) for d in (-1e-9, 1e-12, 0.0, 1e-6) for e in (0.0, 1e-10)]
    if lam < 1.5:
        pts += [complex(x, 0.0) for x in np.linspace(1.0 / lam, AUDIT_RADIUS, 64)]
    return pts


@pytest.mark.parametrize("lam", [1.0000001, 1.001, 1.2, 2.0, 6.0, 40.0, 1e3, 1e8])
def test_deriv_component_matches_50_digit_reference(lam):
    comp = bounded_deriv_component(lam)
    pts = _deriv_lead_points(lam)
    values = comp.value(np.array(pts))
    derivs = comp.derivative(np.array(pts))
    with mpmath.workdps(50):
        big = mpmath.mpf(lam)
        for z, a, da in zip(pts, values.tolist(), derivs.tolist()):
            w = mpmath.mpc(z)
            a_ref = big * big * w + (big**3 - big) * mpmath.log(1 - w / big)
            da_ref = big * (1 - big * w) / (big - w)
            assert abs(a - a_ref) <= 1e-14 * (1 + abs(a_ref)), (lam, z)
            assert abs(da - da_ref) <= 1e-14 * abs(da_ref), (lam, z)


def test_deriv_component_is_normalized():
    for lam in (1.0000001, 2.0, 1e8):
        comp = bounded_deriv_component(lam)
        assert comp.value(0j) == 0
        assert comp.derivative(0j) == 1


def test_deriv_component_rejects_bound_at_most_one():
    with pytest.raises(DomainError, match="0.9999999"):
        bounded_deriv_component(0.9999999)


def test_modulus_witness_reaches_each_bound():
    # the identity stand-in for a modulus component reaches only |z| = AUDIT_RADIUS
    grid = np.array(_audit_grid())
    F = extremal_fn(ModulusAll((2.0, 5.0)))
    for comp, m in zip(F.components, (2.0, 5.0)):
        worst = np.max(np.abs(poly_eval_array(PolyAnalyticFn((comp,)), grid)))
        assert worst >= 0.99 * m


def test_deriv_extremal_fn_matches_eval():
    F = deriv_extremal_fn(B)
    for z in (0.1, 0.2 - 0.1j, 0.25j):
        expected = 4.0 * z + 6.0 * cmath.log(1 - z / 2.0) - z.conjugate() * z
        assert poly_eval(F, z) == pytest.approx(expected, abs=1e-15)


def test_normalized_extremal_fn_matches_eval():
    F = normalized_extremal_fn(DerivNormalized((0.7, 0.2)))
    for z in (0.4, -0.3 + 0.3j):
        zb = z.conjugate()
        assert poly_eval(F, z) == pytest.approx(z - 0.7 * zb * z - 0.2 * zb * zb * z, abs=1e-15)


def test_unit_modulus_extremal_fn_matches_eval():
    F = unit_modulus_extremal_fn(3)
    for z in (0.2, 0.1 + 0.4j):
        zb = z.conjugate()
        assert poly_eval(F, z) == pytest.approx(z + zb * z + zb * zb * z, abs=1e-15)


def test_coeff_series_exact_leading_gap_coefficient():
    s = coeff_extremal_series(2.0, 3)
    assert s.coeffs[1] == 1
    assert s.coeffs[3] == -1.5  # -(M - 1/M) placed exactly
    assert s.coeffs[2] == 0
    # the j = 2 term sits at (n-1)j + 1 = 5 with value -(M^2-1)/M^2
    assert s.coeffs[5] == pytest.approx(-0.75, abs=1e-15)


def test_real_profile_matches_complex_eval():
    F = deriv_extremal_fn(B)
    for x in (0.0, 0.1, 0.26, 0.5):
        assert real_profile(x, B) == poly_eval(F, complex(x)).real


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
    F = deriv_extremal_fn(B)
    v1 = poly_eval(F, complex(x1))
    v2 = poly_eval(F, complex(x2))
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
