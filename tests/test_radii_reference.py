"""Radii checked against the benchmark's 50-digit mpmath reference."""

import importlib.util
import json
import math
import pathlib
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from polylandau import (
    DerivAll,
    DerivNormalized,
    MixedDerivModulus,
    ModulusAll,
    bianalytic_deriv_baseline,
    classical_landau,
    log_deriv_radii,
    log_mixed_radii,
    log_modulus_radii,
    poly_modulus_baseline,
)
from polylandau.cli import main
from polylandau.radii import radii

# the benchmark's 50-digit reference, written from the theorem statements apart from the program
_REF_SPEC = importlib.util.spec_from_file_location(
    "perfbench_reference", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
reference = sys.modules[_REF_SPEC.name] = importlib.util.module_from_spec(_REF_SPEC)
_REF_SPEC.loader.exec_module(reference)


@pytest.mark.parametrize("lam0", [1e3, 1e6, 1e8, 1e100])
@pytest.mark.parametrize(
    "theorem, bounds",
    [
        (1, {}),
        (1, {"lambdas": (1.0,)}),
        (4, {"ms": (2.0,)}),
        (4, {"ms": (1.0, 3.0)}),
        ("bianalytic-deriv", {"lambdas": (0.0,)}),
        ("bianalytic-deriv", {"lambdas": (1.0,)}),
    ],
)
def test_sigma_keeps_precision_for_large_lambda0(theorem, bounds, lam0):
    # the two leading terms of sigma have size lam0 and cancel to about 1/(2 lam0);
    # the order-2 baseline under derivative bounds is theorem 1 with lambda_1 = lambda1
    if theorem == "bianalytic-deriv":
        theorem, (rho, sigma) = 1, bianalytic_deriv_baseline(bounds["lambdas"][0], lam0)
    else:
        profile = DerivAll(lam0, bounds.get("lambdas", ())) if theorem == 1 else MixedDerivModulus(lam0, bounds["ms"])
        res = radii(profile)
        assert res.flags == ()
        rho, sigma = res.rho, res.sigma
    assert sigma > 0.0
    with mpmath.workdps(450):
        exact = reference.theorem_profile(theorem, lambda0=lam0, **bounds).terms(rho).sigma
        assert abs(mpmath.mpf(sigma) / exact - 1) <= 1e-12


@pytest.mark.parametrize("m", [1e60, 1e120, 1e150, 1.3e154])
def test_huge_modulus_bounds_match_reference(m):
    # roots below 2^-200 once ran into the bisection's iteration cap and came out wrong
    for theorem, bounds, res in (
        (3, {"ms": (m,)}, radii(ModulusAll((m,)))),
        (3, {"ms": (m, 2.0, m)}, radii(ModulusAll((m, 2.0, m)))),
        (4, {"lambda0": 2.0, "ms": (m, m)}, radii(MixedDerivModulus(2.0, (m, m)))),
    ):
        assert res.flags == ()
        prof = reference.theorem_profile(theorem, **bounds)
        assert reference.check_radius(prof, res.rho, res.sigma, name=f"theorem {theorem}") == []
    rho, sigma = poly_modulus_baseline(m, 2)
    assert reference.check_radius(reference.PolyModulusBaseline(m, 2), rho, sigma, name="poly-modulus") == []
    for got, want in zip(classical_landau(m), reference.classical_landau(m)):
        assert abs(mpmath.mpf(got) - want) <= reference.FLOAT_TOL * want


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m", [1.3e154, 1.34e154])
def test_poly_modulus_baseline_sigma_keeps_precision_where_r3_squared_is_subnormal(m, p):
    # r3 is near 1/(4M) at p >= 2, so r3^2 falls below the normal range: subtracting r3^(k+1) and M r3^(k+2)
    # as computed once left sigma 1.3e-15 and 2e-15 relative off here
    rho, sigma = poly_modulus_baseline(m, p)
    with mpmath.workdps(450):
        exact = reference.PolyModulusBaseline(m, p).terms(rho).sigma
        assert abs(mpmath.mpf(sigma) / exact - 1) <= 4.5e-16


_lead_bound = st.floats(min_value=1.001, max_value=50.0)
_deriv_bound = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))
_modulus_or_one = st.one_of(st.just(1.0), st.floats(min_value=1.01, max_value=20.0))
_factor_bound = st.floats(min_value=1.01, max_value=50.0)


@st.composite
def _theorem_cases(draw):
    """(theorem, flag values as the CLI takes them, result of the public solver)."""
    theorem = draw(st.integers(min_value=1, max_value=8))
    base = theorem - 4 if theorem > 4 else theorem
    order = draw(st.integers(min_value=2 if base == 4 else 1, max_value=5))
    count = order if base == 3 else order - 1
    if base in (1, 2):
        lambdas = tuple(draw(st.lists(_deriv_bound, min_size=count, max_size=count)))
        if base == 1:
            args = {"lambda0": draw(_lead_bound), "lambdas": lambdas}
            profile = DerivAll(args["lambda0"], lambdas)
            return theorem, args, radii(profile) if theorem == 1 else log_deriv_radii(profile)
        profile = DerivNormalized(lambdas)
        return theorem, {"lambdas": lambdas}, radii(profile) if theorem == 2 else log_deriv_radii(profile)
    lam0 = draw(_lead_bound) if base == 4 else None
    if theorem > 4:
        mstars = tuple(draw(st.lists(_factor_bound, min_size=count, max_size=count)))
        res = log_modulus_radii(mstars) if base == 3 else log_mixed_radii(lam0, mstars)
        return theorem, {"lambda0": lam0, "mstars": mstars}, res
    ms = tuple(draw(st.lists(_modulus_or_one, min_size=count, max_size=count)))
    res = radii(ModulusAll(ms)) if base == 3 else radii(MixedDerivModulus(lam0, ms))
    return theorem, {"lambda0": lam0, "ms": ms}, res


@given(_theorem_cases())
@settings(max_examples=120, deadline=None)
def test_radii_match_50_digit_reference(case):
    theorem, args, res = case
    assert res.theorem == theorem
    prof = reference.theorem_profile(theorem, **args)
    assert reference.check_radius(prof, res.rho, res.sigma, res.w, res.r, name=f"theorem {theorem}") == []


_near_one = st.floats(min_value=-13.0, max_value=-1.0).map(lambda e: 1.0 + 10.0**e)  # 1 + 10^U(-13, -1)
_modulus_near_one_or_not = st.one_of(st.just(1.0), _near_one, st.floats(min_value=1.0, max_value=10.0))


@st.composite
def _near_one_modulus_cases(draw):
    """(theorem, flag values, whether to check the whole contract) with a modulus bound 1 + 10^U(-13, -1).

    Theorem 3 at orders 1-4, or theorem 4 at orders 2-4, so that one bound is a modulus bound.
    """
    theorem = draw(st.sampled_from([3, 4]))
    count = draw(st.integers(min_value=1, max_value=4 if theorem == 3 else 3))
    ms = draw(st.lists(_modulus_near_one_or_not, min_size=count - 1, max_size=count - 1))
    ms.insert(draw(st.integers(min_value=0, max_value=count - 1)), draw(_near_one))
    args = {"ms": tuple(ms)}
    if theorem == 4:
        args["lambda0"] = draw(st.floats(min_value=1.01, max_value=10.0))
    return theorem, args, False


@given(_near_one_modulus_cases())
@example((3, {"ms": (1.000001,)}, True))  # M - 1/M once put this rho 68 ulp off, with a 50-digit residual of 1.07e-11
@settings(deadline=None)
def test_rho_stays_within_4_ulp_of_the_root_near_unit_modulus_bounds(case):
    # M - 1/M cancels as M approaches 1, and at order 1 the root sits beside the pole at r = 1, where rho
    # moves with the weight; the steep margin there can still leave the residual above its contract (D4)
    theorem, args, whole_contract = case
    profile = ModulusAll(args["ms"]) if theorem == 3 else MixedDerivModulus(args["lambda0"], args["ms"])
    res = radii(profile)
    prof = reference.theorem_profile(theorem, **args)
    assert abs(mpmath.mpf(res.rho) - reference.reference_rho(prof, res.rho)) <= 4 * math.ulp(res.rho)
    if whole_contract:
        assert reference.check_radius(prof, res.rho, res.sigma, name=f"theorem {theorem}") == []


@pytest.mark.parametrize(
    "argv, args",
    [
        (["--theorem", "2", "-p", "2", "--lambdas", "1e200"], {"lambdas": (1e200,)}),
        (["--theorem", "1", "-p", "2", "--lambda0", "5e102", "--lambdas", "1e300"],
         {"lambda0": 5e102, "lambdas": (1e300,)}),
    ],
)
def test_sigma_keeps_precision_where_r_to_the_order_underflows(capsys, argv, args):
    # rho is near 1/(2 lambda_1) and sigma = rho - lambda_1 rho^2 near rho/2, but rho^2 underflows: sigma once
    # printed as rho itself.  450 digits carry the lead's two sigma terms, which cancel across about 206
    # digits at L0 = 5e102, to a reference of 60 digits and more
    assert main(["radii", *argv, "--digits", "17", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    prof = reference.theorem_profile(int(argv[1]), **args)
    with mpmath.workdps(450):
        rho = reference.solve_rho(prof)
        sigma = prof.terms(rho).sigma
        assert abs(mpmath.mpf(doc["rho"]) / rho - 1) <= 1e-15
        assert abs(mpmath.mpf(doc["sigma"]) / sigma - 1) <= 1e-15
        assert abs(sigma / rho - mpmath.mpf(1) / 2) <= 1e-15


@pytest.mark.parametrize(
    "profile, theorem, args",
    [
        (DerivAll(2.0, (1.0,)), 1, {"lambda0": 2.0, "lambdas": (1.0,)}),
        (DerivAll(1.5, (0.3, 0.3)), 1, {"lambda0": 1.5, "lambdas": (0.3, 0.3)}),
        (DerivAll(10.0), 1, {"lambda0": 10.0}),
        (DerivAll(1.01, (0.5, 0.0, 2.0)), 1, {"lambda0": 1.01, "lambdas": (0.5, 0.0, 2.0)}),
        (DerivNormalized((1.0,)), 2, {"lambdas": (1.0,)}),
        (DerivNormalized((0.4,)), 2, {"lambdas": (0.4,)}),  # rho = 1, where the margin is still positive
        (DerivNormalized((0.5, 0.25)), 2, {"lambdas": (0.5, 0.25)}),
        (DerivNormalized((2.0, 2.0, 2.0)), 2, {"lambdas": (2.0, 2.0, 2.0)}),
        (ModulusAll((2.0,)), 3, {"ms": (2.0,)}),
        (ModulusAll((1.5, 1.0, 2.0)), 3, {"ms": (1.5, 1.0, 2.0)}),
        (ModulusAll((1.2,) * 3), 3, {"ms": (1.2,) * 3}),
        (ModulusAll((5.0, 5.0)), 3, {"ms": (5.0, 5.0)}),
        (MixedDerivModulus(2.0, (1.5, 1.0)), 4, {"lambda0": 2.0, "ms": (1.5, 1.0)}),
        (MixedDerivModulus(2.0, (2.0,)), 4, {"lambda0": 2.0, "ms": (2.0,)}),
        (MixedDerivModulus(3.0, (1.5, 1.5)), 4, {"lambda0": 3.0, "ms": (1.5, 1.5)}),
        (MixedDerivModulus(1.1, (1.0,)), 4, {"lambda0": 1.1, "ms": (1.0,)}),
    ],
)
def test_sigma_is_the_integral_of_the_margin(profile, theorem, args):
    # s' = m and s(0) = 0 (radii module docstring): quadrature of the reference's margin, which shares no
    # code with the program's, gives the program's sigma at the program's rho
    res = radii(profile)
    margin = reference.theorem_profile(theorem, **args).margin
    with mpmath.workdps(30):
        integral = mpmath.quad(margin, [0, res.rho])
    assert abs(res.sigma / integral - 1) <= 1e-12
