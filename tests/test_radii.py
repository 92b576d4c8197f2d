"""Radius computations: margins, roots, log variants, baselines."""

import math
import random

import pytest
import mpmath
from hypothesis import assume, example, given, settings, strategies as st

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
from polylandau import radii as radii_module
from polylandau.cli import MAX_ORDER
from polylandau.radii import _bisect_decreasing, _margin_error, radii, univalence_margin
from _oracles import plain_bisect, record_solver_margins, scan_root


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
    root, _, _ = _bisect_decreasing(lambda x: 0.5 - x, 0.0, 1.0)
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


# sigma is the integral of the margin from 0 to rho, and the margin falls from 1 to 0 there (radii module
# docstring), so 0 < sigma < rho on every profile but the identity, whose margin is 1 throughout
_sigma_lead = st.one_of(st.floats(min_value=1.0 + 2.0**-40, max_value=8.0), st.floats(min_value=8.0, max_value=1e100))
_sigma_deriv = st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)), max_size=5).map(tuple)
_sigma_modulus = st.lists(st.one_of(st.just(1.0), st.floats(min_value=1.0 + 1e-9, max_value=1e6)),
                          max_size=5).map(tuple)


@given(
    st.one_of(
        st.builds(DerivAll, _sigma_lead, _sigma_deriv),
        st.builds(DerivNormalized, _sigma_deriv),
        st.builds(ModulusAll, _sigma_modulus.filter(len)),
        st.builds(MixedDerivModulus, _sigma_lead, _sigma_modulus),
    )
)
@settings(deadline=None)
@example(ModulusAll((1e6, 1e6, 1e6)))
@example(DerivNormalized((1e6,)))
def test_sigma_lies_strictly_between_zero_and_rho(b):
    assume(b.lead is not None or b.linear or b.excess)  # the identity: rho = sigma = 1
    res = radii(b)
    assert 0.0 < res.sigma < res.rho


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
    with pytest.raises(DegenerateResultError):
        log_variant(base._replace(sigma=-0.1))


def test_log_variant_flags_large_sigma():
    base = radii(DerivAll(2.0, (1.0,)))
    flagged = log_variant(base._replace(sigma=1.2))
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


# The paper's comparisons with prior work: theorem 3 against the poly-modulus baseline at equal bounds M (the gap
# identity of the radii module docstring), and theorems 1 and 2 at order 2 against the bianalytic baselines
_above_one = st.one_of(st.floats(-15.0, -1.0).map(lambda e: 1.0 + 10.0**e), st.floats(1.0, 10.0, exclude_min=True),
                       st.floats(1.0, 150.0).map(lambda e: 10.0**e))


def _modulus_gap_50(r: float, m: float, p: int) -> mpmath.mpf:
    """(m_3 - m_b)(r) at equal bounds M = m, from the closed form in 50-digit arithmetic."""
    with mpmath.workdps(50):
        r, m = mpmath.mpf(r), mpmath.mpf(m)
        total = r * (2 - r) / m
        for k in range(1, p):
            total += r**k * ((m - 1) * (k + 1) * (1 - r) ** 2 + r * (2 + k - r - k * r) / m)
        return total / (1 - r) ** 2


@given(_above_one, st.one_of(st.integers(1, 8), st.integers(1, MAX_ORDER)), st.floats(0.0, 1.0, exclude_max=True))
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
@example(2.0, 3, 0.5)
@example(1e8, 1, 0.5)  # order 1 above M of about 5e7: the gap r(2 - r)/M/(1 - r)^2 is below the margins' rounding
def test_theorem_3_margin_exceeds_the_poly_modulus_baseline_by_the_closed_form_gap(m, p, r):
    b = ModulusAll((m,) * p)
    err = _margin_error(b)
    m3, mb = univalence_margin(r, b), radii_module._poly_modulus_margin(r, m, p)
    # both margins' rounding bounds, g = (M - 1)(M + 1)/M stored within 4 roundings, and the subtraction
    bound = err(r, m3) + 5 * 2.0**-53 * (1.0 - m3) + (2 * p + 10) * 2.0**-53 * (2.0 - mb) + 2.0**-53 * abs(m3 - mb)
    assert abs((m3 - mb) - _modulus_gap_50(r, m, p)) <= bound
    rho3, r3 = radii(b).rho, poly_modulus_baseline(m, p)[0]
    above = math.nextafter(r3, 1.0)
    m_above = univalence_margin(above, b)
    if m_above > 2.0 * err(above, m_above):
        assert rho3 > r3  # every midpoint up to the float after r3 takes a positive sign (Numerics, *Replay*)
    else:
        assert abs(rho3 - r3) <= 4 * math.ulp(r3)


@given(st.one_of(st.floats(-15.0, -1.0).map(lambda e: 1.0 + 10.0**e), st.floats(1.0, 10.0, exclude_min=True),
                 st.floats(1.0, 100.0).map(lambda e: 10.0**e)),
       st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(-300.0, 2.0).map(lambda e: 10.0**e),
                 st.floats(2.0, 150.0).map(lambda e: 10.0**e), st.just(5e-324)))
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
@example(2.0, 1.0)
@example(1.000000523551015, 0.5048594855497011)  # beside the double root: 1 - 8 L1/(u^2 L0) loses 159 ulp of r1
@example(2.0, 8e307)  # where u (1 + sqrt d) overflows: r1 is 6.25e-309, not 0
def test_order_2_theorems_1_and_2_match_the_bianalytic_baselines(lam0, lam1):
    r2 = bianalytic_bounded_baseline(lam1)[0]
    assert abs(radii(DerivNormalized((lam1,))).rho - r2) <= 4 * math.ulp(r2)
    r1 = bianalytic_deriv_baseline(lam1, lam0)[0]
    # the root of 2 L1 r^2 - u L0 r + L0, u = 2 L1 + L0, is double where the discriminant d = 1 - 8 L1/(u^2 L0)
    # vanishes (L0 = 1, L1 = 1/2).  The baseline forms d without cancellation, as
    # ((2 L1 - 1)^2 + e (4 L1^2 + 8 L1 + 3) + e^2 (4 L1 + 3) + e^3)/(u^2 L0) with e = L0 - 1, so r1 keeps its
    # precision there.  The margin's slope at the root still loses a factor sqrt(d), so theorem 1's rho may lie
    # that much further from r1
    with mpmath.workdps(50):
        l0, l1 = mpmath.mpf(lam0), mpmath.mpf(lam1)
        e = l0 - 1
        u = 2 * l1 + l0
        d = ((2 * l1 - 1) ** 2 + e * (4 * l1**2 + 8 * l1 + 3) + e**2 * (4 * l1 + 3) + e**3) / (u**2 * l0)
        exact = 2 / (u * (1 + mpmath.sqrt(d)))
        slack = float(16 * 2**-53 * r1 / mpmath.sqrt(d))
        assert abs(r1 - exact) <= 4 * math.ulp(r1)
    assert abs(radii(DerivAll(lam0, (lam1,))).rho - r1) <= 4 * math.ulp(r1) + slack


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


def test_margin_monotonicity_random_profiles():
    rng = random.Random(5)
    for _ in range(10):
        b = DerivAll(1.0 + 9.0 * rng.random() + 0.01, tuple(rng.uniform(0, 3) for _ in range(rng.randrange(4))))
        xs = [i / 400 * (1.0 / b.lead) for i in range(401)]
        vals = [univalence_margin(x, b) for x in xs]
        assert all(a > bb for a, bb in zip(vals, vals[1:]))


# Replaying bisection from a proven bracket.  Each example solves one profile of theorems 1-8 and the
# poly-modulus baseline with the package's solver and with plain bisection, counting margin calls.
# lam0 is the leading bound of whichever kind the theorem has (L0, M_0 or m*_0); the extras are the
# higher derivative bounds L_k, or 1 + M_k and 1 + m*_k, so near-1 modulus bounds come from tiny extras.

def _profile(theorem: int, lam0: float, extras: tuple[float, ...]):
    above = tuple(1.0 + e for e in extras)
    if theorem == 1:
        return DerivAll(lam0, extras)
    if theorem == 2:
        return DerivNormalized(extras)
    return ModulusAll((lam0, *above)) if theorem == 3 else MixedDerivModulus(lam0, above)


def _solve_theorem(theorem: int, lam0: float, extras: tuple[float, ...]):
    above = tuple(1.0 + e for e in extras)
    if theorem == 7:
        return log_modulus_radii((lam0, *above))
    if theorem == 8:
        return log_mixed_radii(lam0, above)
    res = radii(_profile(theorem - 4 if theorem > 4 else theorem, lam0, extras))
    return log_variant(res) if theorem > 4 else res


def _outcome_and_calls(solve, solver):
    """repr of solve()'s result or error and the margin evaluations it took, with _bisect_decreasing = solver.

    ``plain_bisect`` takes no rounding bound, known values or guess, so it is passed none; it returns no g(root).
    A solve that reaches the solver evaluates the margin, so the count is above 0 then.
    """
    points, solves = [], []
    if solver is plain_bisect:
        solver = lambda g, lo, hi, err=None, glo=None, ghi=None, guess=None: (*plain_bisect(g, lo, hi), None)  # noqa: E731

    def counted_solver(*args):
        solves.append(args)
        return solver(*args)

    def recorded_baseline_margin(r, m, p):
        points.append(r)
        return baseline_margin(r, m, p)

    baseline_margin = radii_module._poly_modulus_margin
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radii_module, "_bisect_decreasing", counted_solver)
        record_solver_margins(mp, points)
        mp.setattr(radii_module, "_poly_modulus_margin", recorded_baseline_margin)
        try:
            outcome = repr(solve())
        except (DomainError, DegenerateResultError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
    assert len(points) > 0 or not solves
    return outcome, len(points)


_lead_bounds = st.one_of(
    st.floats(min_value=1.0 + 2.0**-52, max_value=8.0),
    st.floats(min_value=8.0, max_value=1e100),
    st.floats(min_value=1e-16, max_value=1e-5).map(lambda d: 1.0 + d),
)
_extra_bounds = st.one_of(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=1e150),
    st.sampled_from([0.0, 1e-15, 2.0**-40]),
)


@given(st.integers(1, 8), _lead_bounds, st.lists(_extra_bounds, max_size=5).map(tuple))
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
@example(3, 1e60, ())  # the D1 ops
@example(4, 2.0, (1e120,))
@example(1, 1.0000001, (0.0,))  # D4
@example(1, 1.0 + 2.0**-52, (0.5,))  # L0 too near 1 for a bound: plain bisection
@example(1, 2.0, (1.0,))
@example(3, 1.9711332477927126, ())  # a solver that drops the rounding band gets this root one ulp off
@example(4, 1.466130122371673, (2.1505302365941086,))
def test_replay_matches_plain_bisection(theorem, lam0, extras):
    for solve in (lambda: _solve_theorem(theorem, lam0, extras), lambda: poly_modulus_baseline(lam0, 1 + len(extras))):
        plain, plain_calls = _outcome_and_calls(solve, plain_bisect)
        replayed, calls = _outcome_and_calls(solve, _bisect_decreasing)
        assert replayed == plain
        assert calls <= plain_calls + radii_module._LOCATE_CAP


def test_replay_halves_margin_calls():
    solve = lambda: radii(DerivAll(2.0, (1.0,)))  # noqa: E731
    assert _outcome_and_calls(solve, plain_bisect)[1] == 57
    assert 0 < _outcome_and_calls(solve, _bisect_decreasing)[1] <= 30


def test_margin_at_the_bracket_end_is_evaluated_once_before_the_solver():
    # a derivative lead with modulus terms evaluated it once per check, then again as the solver's g(hi);
    # radii now hands its value to the solver
    b = MixedDerivModulus(3.0, (2.0, 2.0))
    points = []
    with pytest.MonkeyPatch.context() as mp:
        record_solver_margins(mp, points)
        radii(b)
    assert len(points) > 0
    assert points.count(1.0 / 3.0) == 1


@pytest.mark.parametrize(
    "solve",
    [
        lambda: radii(DerivAll(2.0, (1.0,))),
        lambda: radii(DerivAll(1.0 + 2.0**-52, (0.5,))),  # no rounding bound: plain bisection
        lambda: radii(DerivNormalized((1.0, 0.5))),
        lambda: radii(ModulusAll((2.0, 2.0))),
        lambda: radii(ModulusAll((1.000001,))),
        lambda: radii(MixedDerivModulus(3.0, (2.0, 2.0))),
        lambda: poly_modulus_baseline(2.0, 1),
        lambda: poly_modulus_baseline(5.0, 4),
    ],
    ids=["thm1", "thm1-plain", "thm2", "thm3", "thm3-near-pole", "thm4", "baseline-p1", "baseline-p4"],
)
def test_no_solve_evaluates_the_margin_at_zero(solve):
    # every margin is exactly 1 at r = 0, and the solver is told so
    assert univalence_margin(0.0, MixedDerivModulus(3.0, (2.0, 2.0))) == 1.0
    assert radii_module._poly_modulus_margin(0.0, 5.0, 4) == 1.0
    points = []
    baseline_margin = radii_module._poly_modulus_margin

    def recorded_baseline_margin(r, m, p):
        points.append(r)
        return baseline_margin(r, m, p)

    with pytest.MonkeyPatch.context() as mp:
        record_solver_margins(mp, points)
        mp.setattr(radii_module, "_poly_modulus_margin", recorded_baseline_margin)
        solve()
    assert len(points) > 0
    assert 0.0 not in points


def _seeded_profile(theorem: int, lam0: float, extras: tuple[float, ...]):
    """The profile ``_solve_theorem`` solves; theorems 7 and 8 map their factor bounds to log bounds."""
    above = tuple(1.0 + e for e in extras)
    if theorem == 7:
        return ModulusAll(tuple(log_bound_from_modulus(m) for m in (lam0, *above)))
    if theorem == 8:
        return MixedDerivModulus(lam0, tuple(log_bound_from_modulus(m) for m in above))
    return _profile(theorem - 4 if theorem > 4 else theorem, lam0, extras)


# a guess point near rho, as ("near", x / rho), or anywhere, as ("at", x)
_guess_points = st.one_of(
    st.builds(lambda e, sign: ("near", 1.0 + sign * 10.0**e), st.floats(-16.0, 0.0), st.sampled_from([-1.0, 1.0])),
    st.builds(lambda x: ("at", x), st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, 1.0]))),
)
_guess_steps = st.one_of(st.floats(-20.0, 0.0).map(lambda e: 10.0**e), st.sampled_from([0.0, 5e-324]))


@given(st.integers(1, 8), _lead_bounds, st.lists(_extra_bounds, max_size=5).map(tuple), _guess_points, _guess_steps)
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
@example(1, 2.0, (1.0,), ("near", 1.0 + 1e-6), 1e-6)
@example(1, 2.0, (1.0,), ("at", 2.0), 1.0)  # past hi
@example(3, 1.9711332477927126, (), ("near", 1.0 - 1e-16), 5e-324)
@example(3, 1.0 + 1e-9, (), ("near", 1.0 + 1e-12), 0.0)  # beside the pole
@example(2, 1.0, (1.0, 0.5), ("at", 0.0), 1e-20)
# a locate that takes a probe inside the rounding band for a proven end gets this root wrong
@example(4, 1.0065711143797678, (8.09268801993e-05,), ("near", 1.0 - 1e-16), 1e-12)
def test_seeded_replay_matches_plain_bisection(theorem, lam0, extras, point, step):
    """A guess (x, step) anywhere changes nothing but the margin calls, and adds at most the locate cap to them."""
    try:
        b = _seeded_profile(theorem, lam0, extras)
    except DomainError:
        return
    kind, x = point
    if kind == "near":
        x *= radii(b).rho

    def solve():
        res = radii(b, _guess=(x, step))
        return log_variant(res) if theorem > 4 else res

    plain, plain_calls = _outcome_and_calls(solve, plain_bisect)
    seeded, calls = _outcome_and_calls(solve, _bisect_decreasing)
    assert seeded == plain
    assert calls <= plain_calls + radii_module._LOCATE_CAP


def test_no_bound_where_lambda0_is_within_ulps_of_one():
    assert _margin_error(DerivAll(1.0 + 2.0**-52, (0.5,))) is None
    assert _margin_error(DerivAll(1.0000001, (0.0,))) is not None


def _margin_50(r: float, b) -> mpmath.mpf:
    """The margin's term formula in 50-digit arithmetic on the profile's stored weights."""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        lam = b.lead
        total = mpmath.mpf(1) if lam is None else lam * (1 - lam * r) / (lam - r)
        for k, gap in b.excess:
            total -= gap * r ** (k + 1) * (2 - r + k * (1 - r)) / (1 - r) ** 2
        for k, weight, _ in b.linear:
            total -= weight * r**k
        return +total


def _poly_margin_50(r: float, m: float, p: int) -> mpmath.mpf:
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        total = r * (2 - r) + sum(r**k * (1 + k - k * r) for k in range(1, p))
        return 1 - m * total / (1 - r) ** 2


@given(st.integers(1, 4), _lead_bounds, st.lists(_extra_bounds, max_size=5).map(tuple), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
@example(1, 2.0, (1.0,), 0.999)
@example(3, 1.0 + 1e-15, (), 0.999999)
def test_margin_rounding_bound_holds(theorem, lam0, extras, t):
    try:
        b = _profile(theorem, lam0, extras)
    except DomainError:
        return
    hi = b.upper(radii_module._CLAMP)
    r = t * hi
    err = _margin_error(b)
    if r < hi and err is not None:
        m = univalence_margin(r, b)
        assert abs(m - _margin_50(r, b)) <= err(r, m)
    p = 1 + len(extras)
    r = t * radii_module._CLAMP
    m = radii_module._poly_modulus_margin(r, lam0, p)
    assert abs(m - _poly_margin_50(r, lam0, p)) <= (2 * p + 10) * 2.0**-53 * (2.0 - m)
