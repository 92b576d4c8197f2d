"""Oracle checks: they must pass on honest inputs and fail with witnesses."""

import cmath
import math

import pytest

from polylandau import (
    DerivAll,
    DerivNormalized,
    DomainError,
    GridSpec,
    MixedDerivModulus,
    ModulusAll,
    PolyAnalyticFn,
    TruncatedTaylorSeries,
    VerificationReport,
    bounded_deriv_component,
    coeff_extremal_series,
    coefficient_bound_check,
    collision_pair,
    deriv_bound_check,
    deriv_extremal_fn,
    deriv_radii,
    exp_disk_check,
    hypothesis_audit,
    monotonicity_check,
    normalized_extremal_fn,
    schlicht_coverage_check,
    unit_modulus_extremal_fn,
    univalence_grid_check,
)


B = DerivAll(2.0, (1.0,))
SMALL_GRID = GridSpec(radial_count=12, angular_count=16)


def test_report_requires_witness_on_failure():
    with pytest.raises(DomainError):
        VerificationReport("x", False, -1.0, witness=None)
    VerificationReport("x", False, -1.0, witness=(0.5 + 0j,))  # fine
    VerificationReport("x", True, 1.0)  # fine without witness


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(radial_count=4)
    with pytest.raises(DomainError):
        GridSpec(margin=-1.0)


def test_univalence_identity_passes():
    report = univalence_grid_check(lambda z: z, 0.9, SMALL_GRID)
    assert report.passed
    assert report.measured_margin == pytest.approx(1.0, abs=1e-12)


def test_univalence_square_fails_with_symmetric_witness():
    # z^2 identifies +w and -w, so the scan must find a colliding pair
    report = univalence_grid_check(lambda z: z * z, 0.9, SMALL_GRID)
    assert not report.passed
    a, b = report.witness
    assert abs(a + b) < 1e-12
    assert report.measured_margin < 1e-9


def test_univalence_extremal_inside_rho_passes():
    rho = deriv_radii(B).rho
    report = univalence_grid_check(deriv_extremal_fn(B), 0.99 * rho)
    assert report.passed


def test_univalence_fails_on_injected_collision():
    # plant the collision pair as extra points: univalence must break
    x1, x2 = collision_pair(B, 0.5)
    report = univalence_grid_check(
        deriv_extremal_fn(B), 0.99 * deriv_radii(B).rho, SMALL_GRID,
        extra_points=(complex(x1), complex(x2)),
    )
    assert not report.passed
    assert report.measured_margin < 1e-9


def _polar_grid(r, grid):
    return [
        r * k / grid.radial_count * cmath.exp(1j * (2.0 * math.pi * j / grid.angular_count))
        for k in range(1, grid.radial_count + 1)
        for j in range(grid.angular_count)
    ]


def _pair_scan(fn, pts):
    """Pure-Python O(n^2) scan: first minimum of |fn(z) - fn(w)| / |z - w| over pairs i < j."""
    vals = [fn(z) for z in pts]
    best, pair = math.inf, None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dz = abs(pts[i] - pts[j])
            if dz > 1e-15:
                ratio = abs(vals[i] - vals[j]) / dz
                if ratio < best:
                    best, pair = ratio, (pts[i], pts[j])
    return best, pair


@pytest.mark.parametrize(
    "extra",
    [
        # both planted points sit in the last block of rows
        (-0.6 + 0.1j, -0.65 - 0.1j + 1e-6),
        # pairs with the grid node -0.5625 (row 228, first block)
        (-0.6875 + 1e-6,),
    ],
)
def test_univalence_scan_matches_pure_python_pair_loop(extra):
    # z + 0.8 z^2 identifies z and w exactly when z + w = -1.25
    fn = PolyAnalyticFn((TruncatedTaylorSeries((0, 1, 0.8)),))
    grid = GridSpec(radial_count=16, angular_count=24, margin=1e-6)  # 384 nodes: two row blocks
    report = univalence_grid_check(fn, 0.9, grid, extra_points=extra)
    best, pair = _pair_scan(fn, _polar_grid(0.9, grid) + list(extra))
    assert best == pytest.approx(8e-7, rel=1e-6)
    assert not report.passed
    assert report.measured_margin == pytest.approx(best, rel=1e-12)
    assert report.witness == pytest.approx(pair, abs=1e-15)


def test_univalence_rejects_collapsed_grid():
    # every node pair closer than 1e-15: nothing is compared, so nothing may pass
    with pytest.raises(DomainError, match="collapsed"):
        univalence_grid_check(lambda z: z, 1e-200, SMALL_GRID)


def test_coverage_identity_margin():
    report = schlicht_coverage_check(lambda z: z, 0.5, 0.5)
    assert report.passed
    assert report.measured_margin == pytest.approx(0.0, abs=1e-12)


def test_coverage_fails_past_boundary():
    b = DerivNormalized((1.0,))
    F = normalized_extremal_fn(b)
    # sigma = 0.25 at rho = 0.5; asking for 1% more must fail
    report = schlicht_coverage_check(F, 0.5, 0.25 * 1.01)
    assert not report.passed
    assert report.witness is not None


def test_coverage_requires_centered_map():
    with pytest.raises(DomainError):
        schlicht_coverage_check(lambda z: z + 1.0, 0.5, 0.4)


def test_deriv_bound_check_moebius_component():
    comp = bounded_deriv_component(2.0)
    report = deriv_bound_check(comp, 2.0, SMALL_GRID)
    assert report.passed
    # the identity series has derivative exactly 1, failing any bound below 1
    ident = TruncatedTaylorSeries((0, 1))
    report = deriv_bound_check(ident, 0.5, SMALL_GRID)
    assert not report.passed
    assert report.witness is not None


def test_coefficient_bound_check_classical_series():
    s = coeff_extremal_series(2.0, 2)
    report = coefficient_bound_check(s, 2.0)
    assert report.passed
    # equality at the bound: the n = 2 coefficient is exactly M - 1/M
    assert report.measured_margin == pytest.approx(0.0, abs=1e-15)


def test_coefficient_bound_check_violator():
    bad = TruncatedTaylorSeries((0, 1, 2.0))  # |c2| = 2 > 1.5
    report = coefficient_bound_check(bad, 2.0)
    assert not report.passed
    assert report.witness == (complex(2),)


def test_coefficient_bound_check_requires_normalization():
    with pytest.raises(DomainError):
        coefficient_bound_check(TruncatedTaylorSeries((0, 2)), 2.0)


def test_exp_disk_containment():
    for sigma in (0.1, 0.5, 0.9):
        report = exp_disk_check(sigma, samples=4000, seed=0)
        assert report.passed
        assert report.measured_margin > 0.0


def test_exp_disk_rejects_bad_sigma():
    with pytest.raises(DomainError):
        exp_disk_check(0.0)
    with pytest.raises(DomainError):
        exp_disk_check(1.0)


def test_exp_disk_deterministic_in_seed():
    a = exp_disk_check(0.5, samples=2000, seed=3)
    b = exp_disk_check(0.5, samples=2000, seed=3)
    assert a.measured_margin == b.measured_margin


def test_monotonicity_check():
    assert monotonicity_check(lambda x: 1 - x, 0.0, 1.0, samples=100).passed
    report = monotonicity_check(lambda x: (x - 0.5) ** 2, 0.0, 1.0, samples=100)
    assert not report.passed
    assert report.witness is not None


def test_hypothesis_audit_deriv_family():
    report = hypothesis_audit(deriv_extremal_fn(B), B, SMALL_GRID)
    assert report.passed


def test_hypothesis_audit_normalized_family():
    b = DerivNormalized((1.0,))
    assert hypothesis_audit(normalized_extremal_fn(b), b, SMALL_GRID).passed


def test_hypothesis_audit_modulus_family():
    b = ModulusAll((2.0, 2.0))
    assert hypothesis_audit(unit_modulus_extremal_fn(2), b, SMALL_GRID).passed


def test_hypothesis_audit_mixed_family():
    b = MixedDerivModulus(2.0, (2.0,))
    comps = [bounded_deriv_component(2.0), TruncatedTaylorSeries((0, 1))]
    assert hypothesis_audit(PolyAnalyticFn.normalized(comps), b, SMALL_GRID).passed


def test_hypothesis_audit_rejects_order_mismatch():
    with pytest.raises(DomainError):
        hypothesis_audit(unit_modulus_extremal_fn(3), ModulusAll((2.0, 2.0)), SMALL_GRID)


def test_hypothesis_audit_flags_violations():
    # a component violating its derivative bound: A_0' = 1 + 3z
    comps = [TruncatedTaylorSeries((0, 1, 1.5)), TruncatedTaylorSeries((0, -1))]
    fn = PolyAnalyticFn(tuple(comps))
    report = hypothesis_audit(fn, DerivAll(1.5, (1.0,)), SMALL_GRID)
    assert not report.passed
    assert "component 0" in report.note


def test_hypothesis_audit_flags_missing_normalization():
    comps = [TruncatedTaylorSeries((0.5, 1)), TruncatedTaylorSeries((0, -1))]
    fn = PolyAnalyticFn(tuple(comps))
    report = hypothesis_audit(fn, DerivAll(2.0, (1.0,)), SMALL_GRID)
    assert not report.passed
    assert "vanish" in report.note


def test_hypothesis_audit_flags_non_identity_schwarz_lead():
    # |A_0'| <= 1 with A_0'(0) = 1 forces A_0(z) = z; z + 0.1 z^2 breaks it near |z| = 1
    comps = [TruncatedTaylorSeries((0, 1, 0.1)), TruncatedTaylorSeries((0, -1))]
    report = hypothesis_audit(PolyAnalyticFn(tuple(comps)), DerivNormalized((1.0,)), SMALL_GRID)
    assert not report.passed
    assert "component 0 derivative exceeds 1.0" in report.note
