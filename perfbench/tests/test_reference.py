"""Tests of the benchmark's 50-digit reference against closed forms.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402

CLOSE = mpf(10) ** -40


def _rel(a, b):
    return abs(mpf(a) - mpf(b)) / abs(mpf(b))


@pytest.mark.parametrize("lam0", ["1.001", "1.5", "2", "17.25"])
def test_theorem1_order1_is_one_over_lambda0(lam0):
    prof = ref.theorem_profile(1, mpf(lam0))
    assert _rel(ref.solve_rho(prof), 1 / mpf(lam0)) < CLOSE


@pytest.mark.parametrize("lam1, lam2", [("0.25", "1.5"), ("1", "2"), ("3", "1.01"), ("0.001", "7")])
def test_theorem1_order2_is_abdulhadi_hajj(lam1, lam2):
    lam1, lam2 = mpf(lam1), mpf(lam2)
    s = lam2 * (2 * lam1 + lam2)
    closed = 2 * lam2 / (s + mpmath.sqrt(s * s - 8 * lam1 * lam2))
    assert _rel(ref.solve_rho(ref.theorem_profile(1, lam2, (lam1,))), closed) < CLOSE


def test_theorem1_lambda0_2_lambda1_1_is_two_minus_sqrt3():
    prof = ref.theorem_profile(1, 2, (1,))
    assert _rel(ref.solve_rho(prof), 2 - mpmath.sqrt(3)) < CLOSE
    # the program's float for this profile passes the check; a one-ulp-per-million slip does not
    rho = float(2 - mpmath.sqrt(3))
    sigma = float(prof.terms(2 - mpmath.sqrt(3)).sigma)
    assert ref.check_radius(prof, rho, sigma) == []
    assert ref.check_radius(prof, rho * (1 + 1e-9), sigma) != []


@pytest.mark.parametrize("lam", ["0.5000001", "0.75", "3", "1e6"])
def test_theorem2_order2_is_one_over_two_lambda(lam):
    prof = ref.theorem_profile(2, lambdas=(mpf(lam),))
    assert _rel(ref.solve_rho(prof), 1 / (2 * mpf(lam))) < CLOSE


def test_theorem2_light_weights_cover_the_disk():
    prof = ref.theorem_profile(2, lambdas=(mpf("0.25"), mpf("0.1")))
    assert not ref.has_root(prof)
    assert ref.solve_rho(prof) == 1


def test_d1_true_root_for_huge_modulus_bound():
    # theorem 3 with M = 1e200: m(r) ~ 1 - 2 (M - 1/M) r, so rho ~ 5e-201
    prof = ref.theorem_profile(3, ms=(mpf("1e200"),))
    rho = ref.solve_rho(prof)
    assert _rel(rho, mpf("5e-201")) < mpf("1e-30")
    assert _rel(prof.terms(rho).sigma, mpf("2.5e-201")) < mpf("1e-30")
    # the program's D1 output is rejected, and the polished reference agrees with plain bisection
    assert ref.check_radius(prof, 3.1115076358190633e-61, 2.1433596590430294e-61) != []
    assert _rel(ref.reference_rho(prof, 5e-201), rho) < CLOSE


def test_factor_bound_maps_to_log_plus_pi():
    assert abs(ref.log_bound(mpmath.e) - (1 + mpmath.pi)) < CLOSE
    mapped = ref.theorem_profile(7, mstars=(mpmath.e, 2))
    direct = ref.theorem_profile(3, ms=(1 + mpmath.pi, mpmath.log(2) + mpmath.pi))
    assert abs(mapped.margin(mpf("0.01")) - direct.margin(mpf("0.01"))) < CLOSE


@pytest.mark.parametrize(
    "prof",
    [
        ref.theorem_profile(1, 1.3, (0.4, 0.2)),
        ref.theorem_profile(2, lambdas=(0.9, 0.3, 0.1)),
        ref.theorem_profile(3, ms=(1.5, 2.5, 4)),
        ref.theorem_profile(4, 2.5, ms=(3, 1.2)),
    ],
    ids=["deriv", "normalized", "modulus", "mixed"],
)
def test_sigma_is_stationary_at_rho(prof):
    # s'(r) = m(r) for every term, so sigma peaks at rho
    rho = ref.solve_rho(prof)
    slope = mpmath.diff(lambda r: prof.terms(r).sigma, rho)
    assert abs(slope) < mpf(10) ** -30
    assert prof.terms(rho * (1 - mpf(10) ** -6)).sigma < prof.terms(rho).sigma


def test_log_variant_disk_is_cosh_and_sinh():
    prof = ref.theorem_profile(5, 2, (1,))
    rho = ref.solve_rho(prof)
    sigma = prof.terms(rho).sigma
    good = (float(rho), float(sigma), float(mpmath.cosh(sigma)), float(mpmath.sinh(sigma)))
    assert ref.check_radius(prof, *good) == []
    assert ref.check_radius(prof, good[0], good[1], good[2] * (1 + 1e-9), good[3]) != []
