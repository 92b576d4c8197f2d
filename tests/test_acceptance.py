"""Acceptance gate: one test per advertised guarantee, run with -v -s for the ledger lines.

Each test ends by printing a single "acceptance NN <name>: PASS" line; a
failing criterion surfaces as an ordinary pytest failure instead.
"""

import json
import math
import random
import time

from polylandau import (
    DerivAll,
    DerivNormalized,
    GridSpec,
    ModulusAll,
    TruncatedTaylorSeries,
    bianalytic_bounded_baseline,
    bianalytic_deriv_baseline,
    boundary_simple_check,
    classical_landau,
    collision_pair,
    exp_disk_check,
    jacobian_grid_check,
    log_deriv_radii,
    monotonicity_check,
    poly_modulus_baseline,
    schlicht_coverage_check,
    witness_pass,
)
from polylandau.extremal import extremal_fn
from polylandau.radii import radii, univalence_margin
from polylandau.cli import main

from _oracles import coeff_extremal_series, coefficient_bound_check

REFERENCE = DerivAll(2.0, (1.0,))


def _done(num: int, name: str) -> None:
    print(f"acceptance {num:02d} {name}: PASS")


def test_01_order2_deriv_reduction():
    for lam1 in (0.0, 0.5, 1.0, 2.0):
        for lam0 in (1.1, 2.0, 5.0):
            res = radii(DerivAll(lam0, (lam1,)))
            rho_b, sigma_b = bianalytic_deriv_baseline(lam1, lam0)
            assert abs(res.rho - rho_b) < 1e-9, (lam1, lam0)
            assert abs(res.sigma - sigma_b) < 1e-9, (lam1, lam0)
    _done(1, "order2-deriv-reduction")


def test_02_reference_radius_closed_form():
    res = radii(REFERENCE)
    assert abs(res.rho - (2.0 - math.sqrt(3.0))) < 1e-11
    _done(2, "reference-radius-closed-form")


def test_03_order2_schwarz_reduction_exact():
    for lam1 in (0.0, 0.25, 0.5, 0.75, 1.0, 3.0):
        res = radii(DerivNormalized((lam1,)))
        rho_b, sigma_b = bianalytic_bounded_baseline(lam1)
        assert res.rho == rho_b, lam1
        assert res.sigma == sigma_b, lam1
    _done(3, "order2-schwarz-reduction-exact")


def test_04_extremal_univalence_and_collision():
    start = time.monotonic()
    res = radii(REFERENCE)
    fn = extremal_fn(REFERENCE)
    inside = witness_pass(fn, 0.99 * res.rho, GridSpec(32, 64))
    for report in (jacobian_grid_check(inside), boundary_simple_check(inside)):
        assert report.passed, report.note
    # rho is sharp: 1% past it the witness stops preserving sense
    past = witness_pass(fn, 1.01 * res.rho, GridSpec(32, 64))
    assert not all(r.passed for r in (jacobian_grid_check(past), boundary_simple_check(past)))

    x1, x2 = collision_pair(fn, res.rho, 0.5)
    gap = abs(fn(complex(x1)) - fn(complex(x2)))
    assert x2 < res.rho < x1
    assert gap < 1e-10
    assert time.monotonic() - start < 30.0
    _done(4, "extremal-univalence-and-collision")


def test_05_schlicht_radius_attained_and_covered():
    start = time.monotonic()
    res = radii(REFERENCE)
    fn = extremal_fn(REFERENCE)
    assert abs(abs(fn(complex(res.rho))) - res.sigma) < 1e-9
    coverage = witness_pass(fn, 0.99 * res.rho, rho=res.rho).coverage()
    assert schlicht_coverage_check(*coverage, res.rho, 0.99 * res.sigma).passed
    assert not schlicht_coverage_check(*coverage, res.rho, 1.01 * res.sigma).passed
    assert time.monotonic() - start < 5.0
    _done(5, "schlicht-radius-attained-and-covered")


def test_06_improves_poly_modulus_baseline():
    for m in (1.2, 2.0, 5.0):
        for p in (2, 3, 5):
            res = radii(ModulusAll((m,) * p))
            rho_b, sigma_b = poly_modulus_baseline(m, p)
            assert res.rho > rho_b, (m, p)
            assert res.sigma > sigma_b, (m, p)
    _done(6, "improves-poly-modulus-baseline")


def test_07_unit_modulus_closed_forms():
    res2 = radii(ModulusAll((1.0, 1.0)))
    assert abs(res2.rho - 0.5) < 1e-12
    assert abs(res2.sigma - 0.25) < 1e-12
    res3 = radii(ModulusAll((1.0, 1.0, 1.0)))
    assert abs(res3.rho - 1.0 / 3.0) < 1e-12
    assert abs(res3.sigma - 5.0 / 27.0) < 1e-12
    _done(7, "unit-modulus-closed-forms")


def test_08_exp_disk_containment():
    for k, sigma in enumerate((0.1, 0.25, 0.5, 0.75, 0.9)):
        report = exp_disk_check(sigma, samples=10000, seed=k)
        assert report.passed, report.note
    for lam1 in (0.0, 1.0, 2.0):
        for lam0 in (1.1, 2.0, 5.0):
            res = log_deriv_radii(DerivAll(lam0, (lam1,)))
            assert abs(res.w**2 - res.r**2 - 1.0) < 1e-12, (lam1, lam0)
    _done(8, "exp-disk-containment")


def test_09_margin_monotonicity_and_residuals():
    rng = random.Random(97)
    for _ in range(20):
        b = DerivAll(
            rng.uniform(1.05, 6.0),
            tuple(rng.uniform(0.0, 3.0) for _ in range(rng.randint(0, 3))),
        )
        assert monotonicity_check(lambda r: univalence_margin(r, b), 0.0, 1.0 / b.lead).passed
        assert radii(b).residual < 1e-10
    for _ in range(20):
        # first weight above 1/2 keeps the root inside the disk
        b = DerivNormalized(
            (rng.uniform(0.6, 3.0),) + tuple(rng.uniform(0.0, 2.0) for _ in range(rng.randint(0, 3)))
        )
        assert monotonicity_check(lambda r: univalence_margin(r, b), 0.0, 1.0).passed
        assert radii(b).residual < 1e-10
    for _ in range(20):
        b = ModulusAll(tuple(rng.uniform(1.05, 20.0) for _ in range(rng.randint(1, 4))))
        assert monotonicity_check(lambda r: univalence_margin(r, b), 0.0, 1.0 - 1e-6).passed
        assert radii(b).residual < 1e-10
    _done(9, "margin-monotonicity-and-residuals")


def test_10_schlicht_radius_stays_in_unit_interval():
    rng = random.Random(811)
    for _ in range(100):
        b = DerivAll(
            rng.uniform(1.000001, 10.0),
            tuple(rng.uniform(0.0, 4.0) for _ in range(rng.randint(0, 4))),
        )
        res = radii(b)
        assert 0.0 < res.sigma < 1.0, b
    _done(10, "schlicht-radius-stays-in-unit-interval")


def test_11_coefficient_extremal_attains_bound():
    for n in (2, 3, 5):
        s = coeff_extremal_series(2.0, n)
        assert coefficient_bound_check(s, 2.0).passed, n
        assert s.coeffs[n] == complex(-1.5), n
    violator = TruncatedTaylorSeries((0.0, 1.0, 2.0))
    assert not coefficient_bound_check(violator, 2.0).passed
    _done(11, "coefficient-extremal-attains-bound")


def test_12_classical_landau_closed_form():
    r0, big_r0 = classical_landau(2.0)
    expected = 2.0 - math.sqrt(3.0)
    assert abs(r0 - expected) < 1e-12
    assert abs(big_r0 - 2.0 * expected * expected) < 1e-12
    _done(12, "classical-landau-closed-form")


def test_13_cli_determinism_and_exit_codes(capsys):
    start = time.monotonic()
    argv = ["verify", "--theorem", "1", "-p", "2", "--lambda0", "2", "--lambdas", "1", "--format", "json"]
    code_a = main(list(argv))
    out_a = capsys.readouterr().out
    code_b = main(list(argv))
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b
    assert json.loads(out_a)["passed"] is True

    assert main(list(argv) + ["--margin", "10"]) == 1
    capsys.readouterr()
    assert main(["verify", "--no-such-flag"]) == 2
    capsys.readouterr()
    assert time.monotonic() - start < 5.0
    _done(13, "cli-determinism-and-exit-codes")
