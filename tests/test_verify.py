"""Oracle checks: they must pass on honest inputs and fail with witnesses."""

import cmath
import contextlib
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polylandau import cli, verify
from polylandau import (
    DerivAll,
    DerivNormalized,
    DomainError,
    GridSpec,
    LogPAnalyticFn,
    MixedDerivModulus,
    ModulusAll,
    PolyAnalyticFn,
    TruncatedTaylorSeries,
    VerificationReport,
    boundary_simple_check,
    bounded_deriv_component,
    collision_pair,
    exp_disk_check,
    hypothesis_audit,
    jacobian_grid_check,
    log_bound_from_modulus,
    monotonicity_check,
    poly_eval,
    poly_jet,
    schlicht_coverage_check,
    unit_modulus_extremal_fn,
    univalence_grid_check,
    witness_pass,
)
from polylandau.extremal import BoundedRatio, DerivLead, Linear, extremal_fn
from polylandau.radii import radii, univalence_margin
from polylandau.verify import (
    _STAR_MARGIN,
    AUDIT_RADIUS,
    _circle,
    _crossings,
    _disk_grid,
    _star_shaped,
    _unit_scale,
)

from _oracles import Spirallike, chunked_crossings, coeff_extremal_series, coefficient_bound_check


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
    rho = radii(B).rho
    report = univalence_grid_check(extremal_fn(B), 0.99 * rho)
    assert report.passed


def test_univalence_fails_on_injected_collision():
    # plant the collision pair as extra points: univalence must break
    F, rho = extremal_fn(B), radii(B).rho
    x1, x2 = collision_pair(F, rho, 0.5)
    report = univalence_grid_check(
        F, 0.99 * rho, SMALL_GRID,
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


IDENTITY = PolyAnalyticFn((TruncatedTaylorSeries((0, 1)),))
SQUARE = PolyAnalyticFn((TruncatedTaylorSeries((0, 0, 1)),))
# z + 0.8 z^2 has F' = 1 + 1.6 z, which vanishes at z = -0.625
QUADRATIC = PolyAnalyticFn((TruncatedTaylorSeries((0, 1, 0.8)),))


def _degree_checks(fn, r, grid=GridSpec(), samples=512):
    jet = witness_pass(fn, r, grid, samples)
    return jacobian_grid_check(jet), boundary_simple_check(jet)


@contextlib.contextmanager
def _sweeps():
    """The vertex counts of the polygons the crossing sweep scans inside the block, in call order."""
    calls = []

    def spy(v):
        calls.append(len(v))
        return _crossings(v)

    with mock.patch.object(verify, "_crossings", spy):
        yield calls


def test_degree_checks_pass_on_the_identity():
    jac, boundary = _degree_checks(IDENTITY, 0.9)
    assert jac.passed and jac.measured_margin == 1.0
    assert boundary.passed and boundary.measured_margin == 0.0
    assert boundary.note.startswith("turning number 1, 0 crossing")


def test_boundary_check_fails_the_square_with_turning_number_two():
    jac, boundary = _degree_checks(SQUARE, 0.9)
    assert jac.passed  # |F_z| = 2|z| > 0 away from the origin: only the boundary shows the double cover
    assert not boundary.passed
    assert boundary.note.startswith("turning number 2,")
    assert boundary.witness is not None


def test_quadratic_fails_past_its_critical_point():
    assert all(report.passed for report in _degree_checks(QUADRATIC, 0.6))
    jac, boundary = _degree_checks(QUADRATIC, 0.65)
    assert jac.passed  # J = |1 + 1.6 z|^2 never turns negative
    assert not boundary.passed
    assert boundary.note.startswith("turning number 2,")


def test_jacobian_check_fails_a_sense_reversing_map():
    # F = z + 2 conj(z) z has |F_zbar| = 2|z| > |F_z| = |1 + 2 conj(z)| near |z| = 0.9
    fn = PolyAnalyticFn((TruncatedTaylorSeries((0, 1)), TruncatedTaylorSeries((0, 2))))
    report = jacobian_grid_check(witness_pass(fn, 0.9, SMALL_GRID))
    assert not report.passed
    assert report.measured_margin < 0.0
    assert abs(report.witness[0]) <= 0.9 + 1e-12


def test_boundary_check_counts_crossings_of_the_exp_image():
    # exp(4z) identifies z and z + 2 pi i / 4, which both fit in |z| < r once r > pi/4:
    # the log part 4z stays a circle turning once, so only the crossing test sees exp wrap around
    target = LogPAnalyticFn(PolyAnalyticFn((TruncatedTaylorSeries((0, 4)),)))
    assert all(report.passed for report in _degree_checks(target, 0.75))
    with _sweeps() as sweeps:
        jac, boundary = _degree_checks(target, 0.9)
    assert sweeps == [512]  # expm1(F) winds twice about 0, so the star certificate declines and the sweep runs
    assert jac.passed
    assert not boundary.passed
    assert boundary.note.startswith("turning number 1, 2 crossing edge pairs")
    a, b = boundary.witness
    assert abs(a) == pytest.approx(0.9) and abs(b) == pytest.approx(0.9)


def test_boundary_check_fails_a_zero_tangent():
    # F_z = 1 - 2z vanishes at the sample z = 0.5 itself, where the image curve stalls
    fn = PolyAnalyticFn((TruncatedTaylorSeries((0, 1, -1.0)),))
    report = boundary_simple_check(witness_pass(fn, 0.5, samples=64))
    assert (report.passed, report.measured_margin, report.witness) == (False, -1.0, (0.5 + 0j,))
    assert report.note == "turning number 1, 0 crossing edge pairs over 64 boundary samples, 1 with a zero tangent"


def test_witness_pass_validates_its_inputs():
    with pytest.raises(DomainError, match="r > 0"):
        witness_pass(IDENTITY, 0.0)
    with pytest.raises(DomainError, match="r > 0"):
        witness_pass(IDENTITY, -1.0)
    with pytest.raises(DomainError, match="at least 8 samples"):
        witness_pass(IDENTITY, 0.5, samples=4)
    with pytest.raises(DomainError, match="rho > 0"):
        witness_pass(IDENTITY, 0.5, rho=0.0)
    with pytest.raises(DomainError, match="no coverage circle"):
        witness_pass(IDENTITY, 0.5).coverage()


def test_boundary_check_is_scale_free():
    # rho is 5e-101: the image's turn products underflow unless the polygon is rescaled
    b = ModulusAll((1e100,))
    rho, fn = radii(b).rho, extremal_fn(b)
    assert all(report.passed for report in _degree_checks(fn, 0.99 * rho))
    # the classical map folds at about 1.19 rho
    assert not boundary_simple_check(witness_pass(fn, 1.2 * rho)).passed


@pytest.mark.parametrize(
    "b, factor",
    [
        (DerivAll(2.0, (1.0,)), 1.01),
        (DerivAll(3.0, ()), 1.01),
        (DerivNormalized((1.0, 1.0)), 1.01),
        (ModulusAll((2.0,)), 1.2),
    ],
)
def test_degree_checks_catch_a_radius_too_large(b, factor):
    # the pair scan passed every one of these at factor and beyond
    rho, fn = radii(b).rho, extremal_fn(b)
    with _sweeps() as sweeps:
        assert all(report.passed for report in _degree_checks(fn, 0.99 * rho))
        assert sweeps == []  # inside rho the image is star-shaped about 0, and the certificate proves it simple
        failed = [report for report in _degree_checks(fn, factor * rho) if not report.passed]
    assert failed and all(report.witness for report in failed)
    # a failed boundary check still comes from the sweep; where only the Jacobian fails (the first and third
    # cases), the boundary image stays star-shaped
    assert sweeps == ([512] if "boundary-simple" in {report.check_name for report in failed} else [])


def test_log_target_reads_the_derivatives_of_its_log_part():
    b = DerivAll(2.0, (1.0,))
    rho, F = radii(b).rho, extremal_fn(b)
    f = LogPAnalyticFn(F)
    same = jacobian_grid_check(witness_pass(F, rho, SMALL_GRID)).measured_margin
    assert jacobian_grid_check(witness_pass(f, rho, SMALL_GRID)).measured_margin == same
    assert boundary_simple_check(witness_pass(f, 0.99 * rho)).passed
    assert not jacobian_grid_check(witness_pass(f, 1.01 * rho)).passed


@st.composite
def _passes(draw):
    """A theorem 1-8 witness at orders 1-6, as verify builds it, a grid and the radii of its two circles.

    L0 reaches down to 1 + 1e-6; for a lead below 2 the circles may straddle |z| = L0/2, where
    its value takes the series form on one circle and the logarithm form on the other.
    """
    theorem, order = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    base = (theorem - 1) % 4 + 1
    lam0 = draw(st.one_of(st.floats(1e-6, 0.99), st.floats(0.99, 5.0)).map(lambda d: 1.0 + d))
    count = order if base == 3 else order - 1  # theorems 3 and 7 bound the lead too
    if base in (1, 2):
        bounds = draw(st.lists(st.floats(0.0, 2.0), min_size=count, max_size=count))
    elif theorem < 5:
        bounds = draw(st.lists(st.floats(1.0, 5.0), min_size=count, max_size=count))
    else:
        bounds = draw(st.lists(st.floats(1.5, 20.0), min_size=count, max_size=count))
    b = cli._build_profile(theorem, lam0 if base in (1, 4) else None, tuple(bounds))
    F = extremal_fn(b)
    if base in (1, 4) and lam0 < 2.0 and draw(st.booleans()):
        r = 0.5 * lam0 * (1.0 - draw(st.floats(1e-9, 0.2)))
        rho = min(1.0, 0.5 * lam0 * (1.0 + draw(st.floats(1e-9, 0.2))))
    else:
        r, rho = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0))
    grid = GridSpec(draw(st.integers(8, 12)), draw(st.integers(8, 16)))
    return (LogPAnalyticFn(F) if theorem >= 5 else F), F, grid, draw(st.integers(8, 64)), r, rho


@given(_passes())
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
def test_witness_pass_matches_the_separate_evaluations_bit_for_bit(case):
    # one pass over the grid, the boundary circle and the coverage circle rounds every point as three
    # separate evaluations do, signed zeros included: numpy's elementwise results do not depend on
    # where a point sits in an array, and a lead whose circles straddle L0/2 weights its forms exactly
    target, F, grid, samples, r, rho = case
    jet = witness_pass(target, r, grid, samples, rho)
    nodes, circle, circle_rho = _disk_grid(r, grid), _circle(r, samples), _circle(rho, samples)
    _, fz_grid, fzbar_grid = poly_jet(F, nodes, value=False)
    image, fz_circle, fzbar_circle = poly_jet(F, circle)
    image_rho = poly_eval(F, circle_rho)
    assert jet.nodes.tobytes() == np.concatenate([nodes, circle, circle_rho]).tobytes()
    assert jet.fz.tobytes() == np.concatenate([fz_grid, fz_circle]).tobytes()
    assert jet.fzbar.tobytes() == np.concatenate([fzbar_grid, fzbar_circle]).tobytes()
    assert jet.image.tobytes() == np.concatenate([image, image_rho]).tobytes()
    assert jet.coverage()[1] == poly_eval(F, 0j) == 0
    assert jet.log == (target is not F)


@st.composite
def _sharp_profiles(draw):
    """A profile of theorem 1, 2, 5 or 6 with 1-4 components, and whether its target is exp F."""
    theorem = draw(st.sampled_from((1, 2, 5, 6)))
    order = draw(st.integers(1, 4))
    if theorem in (1, 5):
        lam0 = draw(st.floats(1.05, 6.0))
        b = DerivAll(lam0, tuple(draw(st.floats(0.0, 2.0)) for _ in range(order - 1)))
    else:
        b = DerivNormalized(tuple(draw(st.floats(0.2, 2.0)) for _ in range(order - 1)))
    return b, theorem >= 5


@settings(max_examples=80, deadline=None)
@given(_sharp_profiles(), st.floats(0.01, 0.1))
def test_degree_checks_pass_inside_rho_and_fail_past_it(case, eps):
    b, is_log = case
    rho = radii(b).rho
    assume(rho < 1.0)
    F = extremal_fn(b)
    target = LogPAnalyticFn(F) if is_log else F
    with _sweeps() as sweeps:
        assert all(report.passed for report in _degree_checks(target, 0.99 * rho))
        assert sweeps == []
        jac, boundary = _degree_checks(target, min((1.0 + eps) * rho, 1.0))
    assert not (jac.passed and boundary.passed)
    assert boundary.passed or sweeps == [512]  # a boundary that fails past rho fails in the sweep


@settings(max_examples=40, deadline=None)
@given(
    st.floats(1.1, 5.0),
    st.lists(st.floats(0.0, 1.5), max_size=2),
)
def test_degree_checks_fail_wherever_the_pair_scan_finds_a_collision(lam0, lambdas):
    # the pair scan is the oracle: with the collision pair planted it reports a collision at |z| <= x1
    b = DerivAll(lam0, tuple(lambdas))
    rho = radii(b).rho
    fn = extremal_fn(b)
    x1, x2 = collision_pair(fn, rho, min(1.0, 1.5 * rho))
    scan = univalence_grid_check(fn, x1, SMALL_GRID, extra_points=(complex(x1), complex(x2)))
    if not scan.passed:
        assert not all(report.passed for report in _degree_checks(fn, x1, SMALL_GRID, 64))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.55, 2.0), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0))
def test_degree_checks_fail_on_quadratic_collisions_the_scan_finds(c, angle, t):
    # z + c z^2 identifies z and w exactly when z + w = -1/c; plant such a pair inside |z| <= 0.95
    z = -0.5 / c + t * (0.95 - 0.5 / c) * cmath.exp(1j * angle)
    w = -1.0 / c - z
    assume(abs(w) <= 0.95 and abs(z - w) > 1e-6)
    fn = PolyAnalyticFn((TruncatedTaylorSeries((0, 1, c)),))
    scan = univalence_grid_check(fn, 0.95, SMALL_GRID, extra_points=(z, w))
    if not scan.passed:
        assert not all(report.passed for report in _degree_checks(fn, 0.95, SMALL_GRID, 64))


# The crossing scan against the chunked scan it replaced.  The sweep tests only the edge pairs whose
# closed bounding boxes meet; the chunked scan tests every pair in overlapping chunks, so on
# near-collinear or repeated vertices it can also report a rounded "crossing" of two edges with
# disjoint boxes.  Restricted to meeting boxes the two sets agree on every polygon.

def _boxes_meet(v: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    end = np.roll(v, -1)
    lo_x, hi_x = np.minimum(v.real, end.real), np.maximum(v.real, end.real)
    lo_y, hi_y = np.minimum(v.imag, end.imag), np.maximum(v.imag, end.imag)
    return (lo_x[i] <= hi_x[j]) & (lo_x[j] <= hi_x[i]) & (lo_y[i] <= hi_y[j]) & (lo_y[j] <= hi_y[i])


def _pairs(i: np.ndarray, j: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(i.tolist(), j.tolist()))


def _check_crossings_against_the_oracle(v: np.ndarray, exact: bool) -> None:
    i, j = _crossings(v)
    found = _pairs(i, j)
    assert found == sorted(set(found)), "crossings must come ordered by i, then j, each once"
    oi, oj = chunked_crossings(v)
    meet = _boxes_meet(v, oi, oj)
    assert set(found) == set(_pairs(oi[meet], oj[meet]))
    if exact:
        assert set(found) == set(_pairs(oi, oj))


@st.composite
def _polygons(draw):
    """A closed polygon of 8-600 vertices, and whether the chunked scan must agree with the sweep exactly.

    Random walks and star polygons are in general position; integer lattices, lines with 1e-17 noise
    and repeated vertices are not.
    """
    kind = draw(st.sampled_from(("walk", "star", "lattice", "line", "repeated")))
    m = draw(st.integers(8, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "walk":
        v = np.cumsum(rng.normal(size=m) + 1j * rng.normal(size=m))
    elif kind == "star":
        step = draw(st.integers(1, m - 1))  # vertex k at angle 2 pi k step / m, on a slightly wobbly circle
        v = (1.0 + 0.1 * rng.uniform(size=m)) * np.exp(2j * np.pi * step * np.arange(m) / m)
    elif kind == "lattice":
        v = (rng.integers(-3, 4, size=m) + 1j * rng.integers(-3, 4, size=m)).astype(complex)
    elif kind == "line":
        x = rng.uniform(-1.0, 1.0, size=m)
        v = x + 1j * (draw(st.floats(-2.0, 2.0)) * x + 1e-17 * rng.normal(size=m))
    else:
        v = np.repeat(np.cumsum(rng.normal(size=m) + 1j * rng.normal(size=m)), rng.integers(1, 4, size=m))[:m]
    return v, kind in ("walk", "star")


@given(_polygons())
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
def test_crossings_match_the_chunked_scan_on_meeting_boxes(case):
    v, exact = case
    _check_crossings_against_the_oracle(v, exact)


@pytest.mark.parametrize(
    "b, is_log",
    [(DerivNormalized((1.0,)), False), (DerivNormalized((1.0, 0.5)), True),
     (ModulusAll((2.0, 2.0)), False), (ModulusAll((3.0, 1.5, 1.5)), True)],
)
@pytest.mark.parametrize("factor", [0.99, 1.5, 3.0])
def test_crossings_match_the_chunked_scan_on_witness_images(b, is_log, factor):
    # the boundary images verify-wide scans, inside rho and past the fold, where they cross themselves
    F = extremal_fn(b)
    target = LogPAnalyticFn(F) if is_log else F
    r = min(factor * radii(b).rho, 0.999)
    for samples in (64, 512, 600):
        _check_crossings_against_the_oracle(_unit_scale(target(_circle(r, samples))), exact=True)


def test_crossings_skip_a_rounded_crossing_of_disjoint_boxes():
    # nearly one line: edge 4 (v4 to v5) lies right of x = -0.330435, edge 7 (v7 to v0) left of
    # x = -0.330459, yet the chunked scan's turn test, rounded, finds them crossing
    v = np.array([
        -0.33045937737087616 - 0.09913781321126285j, -0.19286339386183138 - 0.05785901815854941j,
        -0.040600324599537 - 0.012180097379861105j, -0.669059945247553 - 0.20071798357426587j,
        -0.3286969516077578 - 0.09860908548232737j, -0.33043518041106323 - 0.09913055412331896j,
        0.15618835375182294 + 0.046856506125546864j, -0.7259228120825072 - 0.21777684362475216j,
    ])
    assert (4, 7) in _pairs(*chunked_crossings(v))
    assert _pairs(*_crossings(v)) == [(0, 4), (0, 5), (3, 7)]


# The star certificate against the sweep.  The certificate only ever accepts a polygon, as simple; the
# sweep must then find no crossing, and the polygon must wind once about the certificate's centre.

@st.composite
def _star_polygons(draw):
    """A closed polygon, the centre it is drawn about, and its winding number about that centre.

    "near-bound" polygons wind once, and their thinnest sectors have cross products just above
    ``_STAR_MARGIN`` at unit scale.  "spike" polygons wind once, with three consecutive vertices within
    1e-12 radians of one ray, two of them within 1e-8 of the centre: there the exact cross products are
    positive but far below the margin, and the sweep's rounded predicate may report a crossing.
    "winding" polygons turn left at every vertex and wind 2-5 times.  Each is scaled by 2^k for
    |k| <= 996, radii from about 1e-300 to 1e300, and may be moved off the origin by up to about 1e6
    times its radius.
    """
    kind = draw(st.sampled_from(("near-bound", "spike", "winding")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    winding = int(rng.integers(2, 6)) if kind == "winding" else 1
    m = draw(st.integers(max(8, 3 * winding), 600))
    rad = 0.5 + 0.49 * rng.uniform(size=m)
    gaps = rng.uniform(0.5, 1.5, size=m)
    if kind == "near-bound":
        thin = rng.choice(m, size=int(rng.integers(1, m // 3 + 1)), replace=False)
        room = _STAR_MARGIN * (1.0 + 10.0 ** rng.uniform(-3.0, 0.0, size=len(thin)))
        gaps[thin] = np.arcsin(room / (rad[thin] * rad[(thin + 1) % m]))
        rest = np.ones(m, dtype=bool)
        rest[thin] = False
        gaps[rest] *= (2.0 * np.pi - gaps[thin].sum()) / gaps[rest].sum()
    else:
        gaps *= 2.0 * np.pi * winding / gaps.sum()
    angles = rng.uniform(0.0, 2.0 * np.pi) + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    v = rad * np.exp(1j * angles)
    if kind == "spike":  # vertices s - 1, s and s + 1 move to the ray through vertex s, or within 1e-12 of it
        s, near = int(rng.integers(1, m - 1)), 10.0 ** rng.uniform(-12.0, -8.0)
        turns = np.array([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -12.0, size=3)
        v[s - 1:s + 2] = np.array([10.0 ** rng.uniform(-4.0, -1.0), near, near * rng.uniform(1.5, 5.0)]) * np.exp(
            1j * (angles[s] + turns))
    scale = 2.0 ** draw(st.integers(-996, 996))
    centre = scale * complex(*rng.normal(size=2)) * 10.0 ** draw(st.floats(-3.0, 6.0)) if draw(st.booleans()) else 0j
    return v * scale + centre, centre, winding


def _winding(v: np.ndarray, centre: complex) -> int:
    """The winding number of the closed polygon v about centre, from the sum of its vertex angles."""
    u = _unit_scale(v - centre)
    w = np.roll(u, -1)
    return int(np.rint(np.arctan2(u.real * w.imag - u.imag * w.real, u.real * w.real + u.imag * w.imag).sum()
                        / (2.0 * np.pi)))


@given(st.one_of(_polygons().map(lambda case: (case[0], 0j, None)), _star_polygons()))
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
def test_star_certificate_never_hides_a_crossing_the_sweep_finds(case):
    v, centre, winding = case
    accepted = _star_shaped(v - centre)
    if accepted:
        assert _pairs(*_crossings(_unit_scale(v))) == []
        assert _winding(v, centre) == 1
    assert winding in (None, 1) or not accepted


@pytest.mark.parametrize("centre", [0.0, 1.0])
def test_star_certificate_accepts_only_above_its_margin(centre):
    # at unit scale the cross product of 0.5 and 0.5 + i t is t/2 exactly, and 1 + u rounds back to u exactly
    for t, accepted in ((2.0 * _STAR_MARGIN, False), (2.0 * _STAR_MARGIN * (1.0 + 2.0**-20), True)):
        v = np.array([0.5, 0.5 + 1j * t, 0.5j, -0.5, -0.5j]) + centre
        assert _star_shaped(v - centre) is accepted
    assert _star_shaped(np.repeat(v, 2) - centre) is False  # a repeated vertex has cross product 0
    assert _star_shaped(np.concatenate((v, v)) - centre) is False  # every cross product clears it, winding twice


SPIRALLIKE = PolyAnalyticFn((Spirallike(1.2),))


def test_spirallike_map_runs_the_sweep_and_passes():
    # univalent but not starlike: its boundary image is simple, but not star-shaped about 0
    with _sweeps() as sweeps:
        jac, boundary = _degree_checks(SPIRALLIKE, 0.99)
    assert sweeps == [512]
    assert jac.passed and boundary.passed
    assert boundary.note == "turning number 1, 0 crossing edge pairs over 512 boundary samples"


@pytest.mark.parametrize("argv", [
    ["--theorem", "2", "-p", "3", "--lambdas", "1,0.5"],
    ["--theorem", "6", "-p", "3", "--lambdas", "1,0.5"],
    # exp F rounds onto the doubles next to 1 at these tiny radii, and expm1(F) keeps the image resolved
    ["--theorem", "5", "-p", "2", "--lambda0", "1.1", "--lambdas", "1e15"],
    ["--theorem", "5", "-p", "2", "--lambda0", "1.1", "--lambdas", "1e17"],
    ["--theorem", "6", "-p", "2", "--lambdas", "8e307"],
])
def test_verify_witness_takes_the_star_certificate(argv, capsys):
    with _sweeps() as sweeps:
        assert cli.main(["verify", *argv, "--grid", "8x16"]) == 0
    assert sweeps == []
    out = capsys.readouterr().out
    assert "PASS boundary-simple (margin = 0) turning number 1, 0 crossing edge pairs over 512 boundary samples" in out


def test_exp_coverage_reads_the_distance_of_a_tiny_image(capsys):
    # at rho = 5e-18 exp F rounds to 1 at every sample; in expm1 coordinates the least distance from exp F's
    # centre is that of F's least modulus, as it is exactly for exp F's disk about cosh(s) of radius sinh(s)
    argv = ["verify", "--theorem", "5", "-p", "2", "--lambda0", "1.1", "--lambdas", "1e17", "--grid", "8x16",
            "--format", "json", "--digits", "17"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = {check["name"]: check for check in doc["checks"]}
    s = 0.99 * doc["sigma"]
    # each margin is the least distance minus the target, s for F's disk and sinh(s) for exp F's
    least_f = checks["schlicht-coverage"]["measured_margin"] + s
    least_exp = checks["exp-coverage"]["measured_margin"] + math.sinh(s)
    assert least_exp == pytest.approx(least_f, rel=1e-15, abs=0.0)
    assert least_f == pytest.approx(2.5e-18, rel=1e-3)
    assert checks["exp-coverage"]["passed"]
    assert checks["exp-coverage"]["measured_margin"] == pytest.approx(2.5e-20, rel=1e-2)
    assert checks["exp-coverage"]["note"].split()[3] == checks["schlicht-coverage"]["note"].split()[3]


def _coverage(fn, rho, samples=512):
    """fn on the circle |z| = rho and fn(0), the values ``schlicht_coverage_check`` reads."""
    return fn(_circle(rho, samples)), fn(0j)


def test_coverage_identity_margin():
    report = schlicht_coverage_check(*_coverage(lambda z: z, 0.5), 0.5, 0.5)
    assert report.passed
    assert report.measured_margin == pytest.approx(0.0, abs=1e-12)


def test_coverage_fails_past_boundary():
    b = DerivNormalized((1.0,))
    F = extremal_fn(b)
    # sigma = 0.25 at rho = 0.5; asking for 1% more must fail
    report = schlicht_coverage_check(*witness_pass(F, 0.45, rho=0.5).coverage(), 0.5, 0.25 * 1.01)
    assert not report.passed
    assert report.witness is not None


@pytest.mark.parametrize("log", [False, True])
def test_coverage_requires_centered_map(log):
    # one origin test covers both disks: exp F's is read about expm1(F(0)) = 0, as F's about F(0) = 0
    with pytest.raises(DomainError, match="F\\(0\\) = 0"):
        schlicht_coverage_check(*_coverage(lambda z: z + 1.0, 0.5), 0.5, 0.4, log=log)


def test_exp_coverage_fails_past_the_sharp_witness():
    # theorem 5 on DerivAll(2, (0.5,)): exp F reaches exp(s) at z = rho, the right end of the disk about
    # cosh(s) of radius sinh(s) for s = min |F| on |z| = rho, so a disk for 1.02 s must fail there
    b = DerivAll(2.0, (0.5,))
    rho, F = radii(b).rho, extremal_fn(b)
    pts = _circle(rho, 512)
    s = float(np.min(np.abs(F(pts))))
    image, origin = _coverage(F, rho)
    assert schlicht_coverage_check(image, origin, rho, 0.99 * s, log=True).passed
    report = schlicht_coverage_check(image, origin, rho, 1.02 * s, log=True)
    assert report.check_name == "exp-coverage"
    assert not report.passed
    assert report.measured_margin < -1e-3
    assert abs(report.witness[0] - rho) <= abs(pts[1] - pts[0])


@pytest.mark.parametrize("lam0", [1.0 + 2.0**-52, 1.0 + 1e-13])
def test_hypothesis_audit_allows_ulps_of_a_derivative_bound_but_not_1e_12(lam0):
    b = DerivAll(lam0, (0.5,))
    assert hypothesis_audit(extremal_fn(b), b).passed
    # a higher component 1e-12 above its bound, relative
    report = hypothesis_audit(PolyAnalyticFn((DerivLead(lam0), Linear(complex(-0.5 * (1.0 + 1e-12))))), b)
    assert not report.passed
    assert report.note == "component 1 derivative exceeds 0.5 by 5e-13"
    # a lead whose derivative passes L0 by more than 1e-12 relative on the audit circle
    lead = DerivLead(lam0 * (1.0 + 2e-12))
    audit_circle = _circle(AUDIT_RADIUS, GridSpec().angular_count)
    assert float(np.max(np.abs(lead.derivative(audit_circle)))) > lam0 * (1.0 + 1e-12)
    report = hypothesis_audit(PolyAnalyticFn((lead, Linear(-0.5 + 0j))), b)
    assert not report.passed
    assert report.note.startswith(f"component 0 derivative exceeds {lam0!r} by ")


def test_hypothesis_audit_checks_derivative_bounds():
    b = DerivAll(2.0, (0.5,))
    assert hypothesis_audit(extremal_fn(b), b, SMALL_GRID).passed
    # -z has derivative of modulus exactly 1 against the bound 0.5
    report = hypothesis_audit(PolyAnalyticFn((DerivLead(2.0), Linear(-1 + 0j))), b, SMALL_GRID)
    assert not report.passed
    assert report.note == "component 1 derivative exceeds 0.5 by 0.5"


@pytest.mark.parametrize(
    "components, b, note",
    [
        # a modulus component must have derivative 1 at 0: 2z fails that, and its bound 1.5 on the audit circle
        ((Linear(1 + 0j), Linear(2 + 0j)), ModulusAll((1.5, 1.5)),
         "component 1 linear coefficient is not 1; component 1 modulus exceeds 1.5 by 0.498"),
        ((BoundedRatio(3.0),), ModulusAll((2.0,)), "component 0 modulus exceeds 2.0 by 0.996"),
        # a zero derivative bound makes the component vanish identically
        ((DerivLead(2.0), Linear(-0.5 + 0j)), DerivAll(2.0, (0.0,)),
         "component 1 should vanish, max modulus 0.4995"),
    ],
    ids=["linear-coefficient", "modulus-bound", "zero-bound"],
)
def test_hypothesis_audit_names_each_violated_bound(components, b, note):
    # a max modulus is matched to its leading digits: its last ones are those of libm's hypot
    report = hypothesis_audit(PolyAnalyticFn(components), b, SMALL_GRID)
    assert not report.passed
    assert report.note.startswith(note)


class _NanSlope:
    """A component that vanishes, with a NaN derivative everywhere."""

    def value(self, z):
        return 0j * z

    def derivative(self, z):
        return z * np.nan


def test_hypothesis_audit_fails_a_nan_derivative():
    report = hypothesis_audit(PolyAnalyticFn((DerivLead(2.0), _NanSlope())), DerivAll(2.0, (0.5,)), SMALL_GRID)
    assert not report.passed
    assert report.note == "component 1 derivative exceeds 0.5 by nan"


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


# at 8.250140171882186e-176 every draw rounds to real part 1, and only its imaginary part is left of the disk
@pytest.mark.parametrize("sigma", [8.250140171882186e-176, 0.1, 0.5, 0.9])
def test_exp_disk_containment(sigma):
    report = exp_disk_check(sigma, samples=4000, seed=0)
    assert report.passed
    assert report.measured_margin > 0.0


def test_exp_disk_fails_where_every_draw_rounds_onto_the_edge():
    # sinh(5e-324) u sin(t) rounds to 0 or to 5e-324 itself, so the farthest draw's logarithm has modulus sigma
    report = exp_disk_check(5e-324, seed=0)
    assert (report.passed, report.measured_margin, report.witness) == (False, 0.0, (1 - 5e-324j,))


def test_exp_disk_rejects_bad_sigma():
    with pytest.raises(DomainError):
        exp_disk_check(0.0)
    with pytest.raises(DomainError):
        exp_disk_check(1.0)


def test_exp_disk_rejects_fewer_than_one_sample():
    with pytest.raises(DomainError, match="at least 1 sample"):
        exp_disk_check(0.5, samples=0)


def test_exp_disk_deterministic_in_seed():
    a = exp_disk_check(0.5, samples=2000, seed=3)
    b = exp_disk_check(0.5, samples=2000, seed=3)
    assert a.measured_margin == b.measured_margin


def test_monotonicity_check():
    assert monotonicity_check(lambda x: 1 - x, 0.0, 1.0, samples=100).passed
    # strictly decreasing, but over 1000 samples some neighbouring values round to one double
    flat = monotonicity_check(lambda x: 1 - 1e-14 * x, 0.0, 1.0)
    assert flat.passed and flat.measured_margin == 0.0
    report = monotonicity_check(lambda x: (x - 0.5) ** 2, 0.0, 1.0, samples=100)
    assert not report.passed
    assert report.witness is not None


def test_monotonicity_rejects_fewer_than_two_samples():
    with pytest.raises(DomainError, match="at least 2 samples"):
        monotonicity_check(lambda x: 1 - x, 0.0, 1.0, samples=1)


@st.composite
def _profiles(draw):
    """A profile of theorem 1..8 and order 1..5; theorems 7 and 8 map factor bounds m* to log bounds."""
    theorem = draw(st.integers(1, 8))
    order = draw(st.integers(1, 5))
    base = theorem - 4 if theorem > 4 else theorem
    lam0 = draw(st.floats(1.0001, 50.0))
    lambdas = draw(st.lists(st.floats(0.0, 10.0), min_size=order - 1, max_size=order - 1))
    count = order if base == 3 else order - 1
    if theorem > 4:
        ms = [log_bound_from_modulus(m) for m in draw(st.lists(st.floats(1.01, 1e6), min_size=count, max_size=count))]
    else:
        ms = draw(st.lists(st.one_of(st.just(1.0), st.floats(1.0, 1e6)), min_size=count, max_size=count))
    if base == 3:
        return ModulusAll(tuple(ms))
    if base == 4:
        return MixedDerivModulus(lam0, tuple(ms))
    return DerivAll(lam0, tuple(lambdas)) if base == 1 else DerivNormalized(tuple(lambdas))


def _term_sum(r, b):
    """Sum of the magnitudes of the margin's terms at r, which bounds the rounding of their sum."""
    lam = b.lead
    total = 1.0 if lam is None else abs(lam * (1.0 - lam * r) / (lam - r))
    total += sum(gap * r ** (k + 1) * (2.0 - r + k * (1.0 - r)) / (1.0 - r) ** 2 for k, gap in b.excess)
    return total + sum(weight * r**k for k, weight, _ in b.linear)


_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60)


@given(_profiles(), _FRACTIONS)
@settings(max_examples=150, deadline=None)
def test_array_margin_matches_the_scalar_margin(b, fractions):
    # numpy's power may differ from libm's pow by an ulp, so equality holds to rounding only
    xs = np.array(fractions) * b.upper(1.0 - 1e-6)
    margins = np.broadcast_to(univalence_margin(xs, b), xs.shape)  # a profile with no terms gives 1.0
    for x, m in zip(xs, margins):
        scalar = univalence_margin(float(x), b)
        assert abs(m - scalar) <= 8.0 * sys.float_info.epsilon * _term_sum(float(x), b)


@given(
    _profiles(),
    _FRACTIONS,
    st.one_of(st.floats(max_value=-1e-300), st.floats(min_value=1.0 + 1e-15), st.just(math.nan)),
    st.integers(0, 59),
)
@settings(max_examples=100, deadline=None)
def test_array_margin_outside_the_domain_raises_the_scalar_error(b, fractions, bad, at):
    xs = np.array(fractions) * b.upper(1.0 - 1e-6)
    xs[at % len(xs)] = bad
    with pytest.raises(DomainError) as scalar:
        univalence_margin(bad, b)
    with pytest.raises(DomainError) as array:
        univalence_margin(xs, b)
    assert str(array.value) == str(scalar.value)


@given(_profiles(), st.integers(2, 1000))
@settings(max_examples=80, deadline=None)
def test_monotonicity_verdict_matches_a_scalar_loop(b, samples):
    hi = b.upper(1.0 - 1e-6)
    xs = np.linspace(0.0, hi, samples)
    vals = [univalence_margin(float(x), b) for x in xs]
    report = monotonicity_check(lambda r: univalence_margin(r, b), 0.0, hi, samples)
    assert report.passed == all(a >= c for a, c in zip(vals, vals[1:]))


def test_hypothesis_audit_deriv_family():
    report = hypothesis_audit(extremal_fn(B), B, SMALL_GRID)
    assert report.passed


def test_hypothesis_audit_normalized_family():
    b = DerivNormalized((1.0,))
    assert hypothesis_audit(extremal_fn(b), b, SMALL_GRID).passed


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
