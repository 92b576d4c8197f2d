"""Radius computations: margins, roots, log variants, baselines."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from polylandau import (
    BracketError,
    DegenerateResultError,
    DerivAll,
    DerivNormalized,
    DomainError,
    MixedDerivModulus,
    ModulusAll,
    bianalytic_bounded_baseline,
    bianalytic_deriv_baseline,
    classical_landau,
    log_bound_from_modulus,
    log_deriv_radii,
    log_mixed_radii,
    log_modulus_radii,
    log_variant,
    poly_modulus_baseline,
)
from polylandau.radii import _bisect_decreasing, radii, univalence_margin
from _oracles import scan_root


def test_margins_are_one_at_zero():
    assert univalence_margin(0.0, DerivAll(2.0, (1.0,))) == pytest.approx(1.0)
    assert univalence_margin(0.0, DerivNormalized((1.0,))) == pytest.approx(1.0)
    assert univalence_margin(0.0, ModulusAll((2.0, 2.0))) == pytest.approx(1.0)
    assert univalence_margin(0.0, MixedDerivModulus(2.0, (2.0,))) == pytest.approx(1.0)


def test_deriv_margin_one_at_zero_needs_lambda0_factor():
    # L0 (1 - L0*0)/(L0 - 0) = 1 for every L0 > 1
    for lam0 in (1.1, 2.0, 7.5):
        assert univalence_margin(0.0, DerivAll(lam0, ())) == pytest.approx(1.0)


def test_quadratic_root_closed_form():
    res = radii(DerivAll(2.0, (1.0,)))
    assert res.rho == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-13)
    assert res.residual < 1e-12
    assert res.iterations > 0


def test_single_component_closed_form():
    # p = 1, L0 = 2: rho = 1/2 and sigma = 2 + 6 log(3/4)
    res = radii(DerivAll(2.0, ()))
    assert res.rho == pytest.approx(0.5, abs=1e-13)
    assert res.sigma == pytest.approx(2.0 + 6.0 * math.log(0.75), abs=1e-13)
    assert res.sigma == pytest.approx(0.2739075652893146, abs=1e-13)


def test_find_root_monotone_linear():
    root, _ = _bisect_decreasing(lambda x: 0.5 - x, 0.0, 1.0)
    assert root == pytest.approx(0.5, abs=1e-12)


def test_find_root_monotone_rejects_bad_bracket():
    with pytest.raises(BracketError) as err:
        _bisect_decreasing(lambda x: x + 1.0, 0.0, 1.0)
    # the diagnostic carries the offending endpoint value
    assert "2.0" in str(err.value)
    with pytest.raises(BracketError):
        _bisect_decreasing(lambda x: -x - 1.0, 0.0, 1.0)


def test_deriv_root_matches_grid_scan():
    b = DerivAll(1.7, (0.4, 0.9))
    res = radii(b)
    scanned = scan_root(lambda r: univalence_margin(r, b), 0.0, 1.0 / b.lead)
    assert res.rho == pytest.approx(scanned, abs=1e-6)


def test_modulus_root_matches_grid_scan():
    b = ModulusAll((2.0, 2.0))
    res = radii(b)
    scanned = scan_root(lambda r: univalence_margin(r, b), 0.0, 1.0 - 1e-9)
    assert res.rho == pytest.approx(scanned, abs=1e-6)


def test_mixed_root_matches_grid_scan():
    b = MixedDerivModulus(2.0, (2.0,))
    res = radii(b)
    hi = min(1.0 / b.lead, 1.0 - 1e-9)
    scanned = scan_root(lambda r: univalence_margin(r, b), 0.0, hi)
    assert res.rho == pytest.approx(scanned, abs=1e-6)


def test_normalized_branches():
    # light bounds leave the whole disk univalent
    light = radii(DerivNormalized((0.4,)))
    assert (light.rho, light.sigma) == (1.0, pytest.approx(0.6, abs=1e-15))
    assert light.iterations == 0
    # heavier bounds force a root
    heavy = radii(DerivNormalized((1.0,)))
    assert heavy.rho == pytest.approx(0.5, abs=1e-13)
    assert heavy.sigma == pytest.approx(0.25, abs=1e-13)


def test_modulus_remark_cases():
    two = radii(ModulusAll((1.0, 1.0)))
    assert two.rho == pytest.approx(0.5, abs=1e-12)
    assert two.sigma == pytest.approx(0.25, abs=1e-12)
    three = radii(ModulusAll((1.0, 1.0, 1.0)))
    assert three.rho == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert three.sigma == pytest.approx(5.0 / 27.0, abs=1e-12)


def test_modulus_single_trivial_component():
    res = radii(ModulusAll((1.0,)))
    assert (res.rho, res.sigma) == (1.0, 1.0)


def test_modulus_degenerate_sigma_flagged():
    # huge bounds push the root far left and the covered radius can stay positive;
    # degenerate sigma only occurs with extreme profiles, so force one
    res = radii(ModulusAll((1e6, 1e6, 1e6)))
    if res.sigma <= 0.0:
        assert "degenerate-sigma" in res.flags
    else:
        assert res.sigma > 0.0


def test_mixed_reduces_to_deriv_when_modulus_bounds_trivial():
    # M_1 = 1 kills the modulus terms and the families coincide at L_1 = 1
    mixed = radii(MixedDerivModulus(2.0, (1.0,)))
    pure = radii(DerivAll(2.0, (1.0,)))
    assert mixed.rho == pytest.approx(pure.rho, abs=1e-12)
    assert mixed.sigma == pytest.approx(pure.sigma, abs=1e-12)


def test_log_variant_fields_and_identity():
    base = radii(DerivAll(2.0, (1.0,)))
    log = log_variant(base)
    assert log.theorem == 5
    assert log.w == pytest.approx(math.cosh(base.sigma), abs=1e-15)
    assert log.r == pytest.approx(math.sinh(base.sigma), abs=1e-15)
    assert log.w**2 - log.r**2 == pytest.approx(1.0, abs=1e-12)
    assert (log.rho, log.sigma) == (base.rho, base.sigma)


def test_log_variant_rejects_nonpositive_sigma():
    base = radii(DerivAll(2.0, (1.0,)))
    from dataclasses import replace

    with pytest.raises(DegenerateResultError):
        log_variant(replace(base, sigma=-0.1))


def test_log_variant_flags_large_sigma():
    base = radii(DerivAll(2.0, (1.0,)))
    from dataclasses import replace

    flagged = log_variant(replace(base, sigma=1.2))
    assert "sharpness-not-asserted" in flagged.flags


def test_log_bound_from_modulus():
    assert log_bound_from_modulus(math.e) == pytest.approx(1.0 + math.pi, abs=1e-14)
    with pytest.raises(DomainError):
        log_bound_from_modulus(1.0)
    with pytest.raises(DomainError):
        log_bound_from_modulus(0.5)


def test_log_modulus_matches_direct_profile():
    mstars = (math.e, math.e)
    viaf = log_modulus_radii(mstars)
    direct = log_variant(radii(ModulusAll(tuple(log_bound_from_modulus(m) for m in mstars))))
    assert viaf == direct


def test_log_wrappers_share_rho_with_base():
    b = DerivAll(2.0, (1.0,))
    assert log_deriv_radii(b).rho == radii(b).rho
    n = DerivNormalized((1.0,))
    assert log_deriv_radii(n).rho == radii(n).rho
    m = MixedDerivModulus(2.0, (math.e,))
    got = log_mixed_radii(2.0, (math.e,))
    assert got.theorem == 8
    assert got.rho == radii(MixedDerivModulus(2.0, (log_bound_from_modulus(math.e),))).rho


def test_classical_landau_closed_form():
    r0, big_r0 = classical_landau(1.25)
    assert r0 == pytest.approx(0.5, abs=1e-14)
    assert big_r0 == pytest.approx(0.3125, abs=1e-14)


def test_bianalytic_deriv_reduction():
    r1, big_r1 = bianalytic_deriv_baseline(1.0, 2.0)
    assert r1 == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-14)
    res = radii(DerivAll(2.0, (1.0,)))
    assert res.rho == pytest.approx(r1, abs=1e-12)
    assert res.sigma == pytest.approx(big_r1, abs=1e-12)


def test_bianalytic_bounded_branches():
    assert bianalytic_bounded_baseline(0.4) == (1.0, pytest.approx(0.6, abs=1e-15))
    assert bianalytic_bounded_baseline(1.0) == (0.5, pytest.approx(0.25, abs=1e-15))
    assert bianalytic_bounded_baseline(0.5) == (1.0, pytest.approx(0.5, abs=1e-15))


def test_poly_modulus_baseline_positive_radii():
    r3, big_r3 = poly_modulus_baseline(2.0, 2)
    assert 0.0 < r3 < 1.0
    assert 0.0 < big_r3 < r3


def test_profile_validation():
    with pytest.raises(DomainError):
        DerivAll(1.0, ())
    with pytest.raises(DomainError):
        DerivAll(2.0, (-0.1,))
    with pytest.raises(DomainError):
        ModulusAll((0.9,))
    with pytest.raises(DomainError):
        ModulusAll(())
    with pytest.raises(DomainError):
        MixedDerivModulus(0.8, (2.0,))


def test_margin_domain_gates():
    with pytest.raises(DomainError):
        univalence_margin(-0.1, DerivAll(2.0, ()))
    with pytest.raises(DomainError):
        univalence_margin(1.0, ModulusAll((2.0,)))


_profiles = st.builds(
    DerivAll,
    st.floats(min_value=1.01, max_value=10.0),
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=0, max_size=5).map(tuple),
)


@given(_profiles)
@settings(max_examples=60, deadline=None)
def test_deriv_radii_invariants(b):
    res = radii(b)
    assert 0.0 < res.rho <= 1.0 / b.lead + 1e-15
    assert res.rho <= 1.0
    assert res.residual < 1e-12
    assert 0.0 < res.sigma < 1.0


# bounds in (1, 1.01) are excluded: they push the root within ~1e-8 of the
# pole at r = 1, where the margin's conditioning (|g'| ~ 1e8) makes a 1e-12
# residual unattainable in doubles
_modulus_bound = st.one_of(st.just(1.0), st.floats(min_value=1.01, max_value=20.0))


@given(st.lists(_modulus_bound, min_size=1, max_size=5).map(tuple))
@settings(max_examples=60, deadline=None)
def test_modulus_radii_invariants(ms):
    res = radii(ModulusAll(ms))
    assert 0.0 < res.rho <= 1.0
    assert res.residual < 1e-12
    if res.sigma <= 0.0:
        assert "degenerate-sigma" in res.flags


def test_margin_monotonicity_random_profiles():
    rng = random.Random(5)
    for _ in range(10):
        b = DerivAll(1.0 + 9.0 * rng.random() + 0.01, tuple(rng.uniform(0, 3) for _ in range(rng.randrange(4))))
        xs = [i / 400 * (1.0 / b.lead) for i in range(401)]
        vals = [univalence_margin(x, b) for x in xs]
        assert all(a > bb for a, bb in zip(vals, vals[1:]))
