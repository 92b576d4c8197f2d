"""Command-line interface: golden output, exit codes, determinism."""

import collections
import contextlib
import io
import json
import math
import pathlib
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from polylandau import DerivAll, DerivNormalized, ModulusAll, log_bound_from_modulus, monotonicity_check
from polylandau import cli, extremal, polyfunc, verify
from polylandau.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from polylandau.radii import radii, univalence_margin
from _oracles import record_solver_margins

DATA = pathlib.Path(__file__).parent / "data"

THM1 = ["--theorem", "1", "-p", "2", "--lambda0", "2", "--lambdas", "1"]

# one profile per theorem, each of order >= 2, so that between them every term kind is pinned:
# derivative, identity and modulus leads, derivative and modulus components, and M = 1
GOLDEN = {
    1: THM1,
    2: ["--theorem", "2", "-p", "3", "--lambdas", "0.5,0.25"],
    3: ["--theorem", "3", "-p", "3", "--ms", "1.5,1,2"],
    4: ["--theorem", "4", "-p", "3", "--lambda0", "2", "--ms", "1.5,1"],
    5: ["--theorem", "5", *THM1[2:]],
    6: ["--theorem", "6", "-p", "3", "--lambdas", "0.5,0.25"],
    7: ["--theorem", "7", "-p", "3", "--mstars", "2,3,1.5"],
    8: ["--theorem", "8", "-p", "3", "--lambda0", "2", "--mstars", "2,3"],
}
# closed-form roots: 2 - sqrt(3) of 2(1 - 2r)/(2 - r) - 2r, and 2/3 of 1 - r - 0.75 r^2
CLOSED_RHO = {1: 2 - math.sqrt(3), 2: 2 / 3, 5: 2 - math.sqrt(3), 6: 2 / 3}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("theorem", sorted(GOLDEN))
def test_radii_golden_json(capsys, theorem):
    # 12 digits, the default, so that a last-ulp libm difference cannot change the bytes
    code, out, _ = run(capsys, "radii", *GOLDEN[theorem], "--format", "json")
    assert code == EXIT_OK
    assert out == (DATA / f"golden_radii_thm{theorem}.json").read_text()
    doc = json.loads(out)
    assert doc["theorem"] == theorem
    assert ("w" in doc) == ("r" in doc) == (theorem >= 5)
    if theorem in CLOSED_RHO:
        assert doc["rho"] == pytest.approx(CLOSED_RHO[theorem], abs=1e-11)


FORMATS_GOLDEN = json.loads((DATA / "golden_formats.json").read_text())


@pytest.mark.parametrize("case", FORMATS_GOLDEN, ids=[" ".join(case["argv"]) for case in FORMATS_GOLDEN])
def test_every_subcommand_and_format_is_pinned(capsys, case):
    # recorded before the output went through one writer; radii's flags: line, the baseline and verify
    # CSV forms and a failing check's witness are pinned only here.  The sharpness cases at L0 = 1.0001
    # were recorded before points and arrays shared one evaluation path: there the real axis reaches
    # |x/L| >= 1/2, so the lead's closed (logarithm) form runs
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], "")


def test_radii_text_branch_case(capsys):
    code, out, _ = run(capsys, "radii", "--theorem", "2", "-p", "2", "--lambdas", "0.4")
    assert code == EXIT_OK
    assert "rho = 1" in out
    assert "sigma = 0.6" in out


def test_radii_log_variant_emits_w_and_r(capsys):
    code, out, _ = run(capsys, "radii", "--theorem", "5", *THM1[2:], "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["theorem"] == 5
    assert doc["w"] == pytest.approx(math.cosh(doc["sigma"]), rel=1e-9)
    assert doc["r"] == pytest.approx(math.sinh(doc["sigma"]), rel=1e-9)


def test_radii_theorem7_applies_log_bound_mapping(capsys):
    e_str = "2.718281828"
    code, out, _ = run(
        capsys, "radii", "--theorem", "7", "-p", "2", "--mstars", f"{e_str},{e_str}", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    m = log_bound_from_modulus(float(e_str))
    direct = radii(ModulusAll((m, m)))
    assert doc["rho"] == pytest.approx(direct.rho, rel=1e-9)
    assert doc["sigma"] == pytest.approx(direct.sigma, rel=1e-9)


def test_radii_csv_row(capsys):
    code, out, _ = run(capsys, "radii", *THM1, "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "theorem,rho,sigma,w,r,residual,iterations,flags"
    assert len(lines) == 2


def test_single_value_broadcast(capsys):
    _, many, _ = run(capsys, "radii", "--theorem", "3", "-p", "3", "--ms", "2,2,2", "--format", "json")
    _, one, _ = run(capsys, "radii", "--theorem", "3", "-p", "3", "--ms", "2", "--format", "json")
    assert many == one


def test_exit_2_on_unknown_flag(capsys):
    code, _, _ = run(capsys, "radii", *THM1, "--nonsense", "1")
    assert code == EXIT_USAGE


def test_exit_2_names_violated_hypothesis(capsys):
    code, _, err = run(capsys, "radii", "--theorem", "1", "--lambda0", "0.5")
    assert code == EXIT_USAGE
    assert "must exceed 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("radii", "--theorem", "1", "--lambda0", "0.9999999"),
        ("radii", "--theorem", "7", "--mstars", "0.9999999"),
        ("baseline", "--name", "landau", "--m", "0.9999999"),
    ],
)
def test_exit_2_prints_the_offending_value_unrounded(capsys, argv):
    # printed with :g these read "got 1", which hides why the value was refused
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "0.9999999" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("radii", "--theorem", "1", "--lambda0", "1e200"),
        ("radii", "--theorem", "4", "--lambda0", "1e200", "--ms", "2"),
        ("baseline", "--name", "bianalytic-deriv", "--lambda0", "1e200", "--lambda1", "1"),
    ],
)
def test_exit_2_when_derivative_bound_cube_overflows(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "too large" in err and "overflows" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("radii --theorem 4 --lambda0 0.5 --ms 2", "lambda0 must exceed 1 (strict derivative bound), got 0.5"),
        ("radii --theorem 8 --lambda0 0.5 --mstars 2", "lambda0 must exceed 1 (strict derivative bound), got 0.5"),
        ("radii --theorem 4 --lambda0 1e200 --ms 2", "lambda0 = 1e+200 is too large: lambda0**3 overflows a float"),
        ("radii --theorem 4 --lambda0 inf --ms 2", "lambda0 must be finite"),
        ("baseline --name bianalytic-deriv --lambda0 0.5", "lambda0 must exceed 1, got 0.5"),
        ("baseline --name bianalytic-deriv --lambda0 1e200",
         "lambda0 = 1e+200 is too large: lambda0**3 overflows a float"),
        ("baseline --name bianalytic-deriv --lambda0 inf", "lambda0 must be finite"),
        ("baseline --name bianalytic-bounded --lambda1 -1", "lambda1 must be nonnegative, got -1.0"),
        ("baseline --name bianalytic-bounded --lambda1 inf", "lambda1 must be finite"),
    ],
)
def test_exit_2_names_the_flag_the_user_typed(capsys, argv, message):
    assert run(capsys, *argv.split()) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (("radii", "--theorem", "2", "--lambdas", "1e308,1e308"), "lambda_1"),
        (("radii", "--theorem", "1", "--lambda0", "2", "--lambdas", "1,1e308"), "lambda_2"),
        (("verify", "--theorem", "6", "--lambdas", "1e308"), "lambda_1"),
        (("baseline", "--name", "bianalytic-deriv", "--lambda0", "2", "--lambda1", "1e308"), "lambda1"),
    ],
)
def test_exit_2_when_derivative_weight_overflows(capsys, argv, name):
    # (k+1) lambda_k overflows to inf, which once surfaced as a NaN bracket error
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: {name} = 1e+308 is too large" in err and "overflows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("radii", "--theorem", "3", "--ms", "1e155"),
        ("radii", "--theorem", "4", "--lambda0", "2", "--ms", "2,1e200"),
        ("baseline", "--name", "landau", "--m", "1e200"),
        ("baseline", "--name", "poly-modulus", "--m", "1e155", "-p", "2"),
        ("compare", "--ms", "2,1e200", "--orders", "2"),
    ],
)
def test_exit_2_when_modulus_bound_square_overflows(capsys, argv):
    # past that point landau printed rho = sigma = 0 and sigma's M r^2 term underflowed
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "too large" in err and "**2 overflows" in err


def test_verify_checks_a_tiny_rho(capsys):
    # rho is about 5e-101 here; the pair scan's 1e-15 cut-off made this a DomainError, the degree checks measure it
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--ms", "1e100", "--format", "json")
    assert code == EXIT_OK
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["jacobian-grid"]["measured_margin"] == pytest.approx(0.01, rel=1e-9)
    assert checks["boundary-simple"]["note"].startswith("turning number 1, 0 crossing")


def test_exit_2_on_foreign_profile_flag(capsys):
    code, _, err = run(capsys, "radii", "--theorem", "1", "--lambda0", "2", "--ms", "2")
    assert code == EXIT_USAGE
    assert "--ms does not apply" in err


def test_exit_2_on_wrong_list_length(capsys):
    code, _, err = run(capsys, "radii", "--theorem", "1", "-p", "4", "--lambda0", "2", "--lambdas", "1,1")
    assert code == EXIT_USAGE
    assert "3" in err


def test_baseline_commands(capsys):
    code, out, _ = run(capsys, "baseline", "--name", "landau", "--m", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rho"] == pytest.approx(2 - math.sqrt(3), abs=1e-11)
    assert doc["sigma"] == pytest.approx(2 * (2 - math.sqrt(3)) ** 2, abs=1e-11)

    code, out, _ = run(capsys, "baseline", "--name", "bianalytic-deriv", "--lambda0", "2", "--lambda1", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["rho"] == pytest.approx(2 - math.sqrt(3), abs=1e-11)

    code, out, _ = run(capsys, "baseline", "--name", "bianalytic-bounded", "--lambda1", "0.4", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"name": "bianalytic-bounded", "rho": 1.0, "sigma": 0.6}

    code, out, _ = run(capsys, "baseline", "--name", "poly-modulus", "--m", "2", "-p", "2", "--format", "json")
    assert code == EXIT_OK
    assert 0 < json.loads(out)["rho"] < 1
    # -p's positive bound is the profile flag's; baseline's -p has only the order cap, and landau ignores it
    assert run(capsys, "baseline", "--name", "landau", "--m", "2", "-p", "0")[0] == EXIT_OK


def test_baseline_missing_parameter(capsys):
    code, _, err = run(capsys, "baseline", "--name", "landau")
    assert code == EXIT_USAGE
    assert "--m" in err


def test_compare_csv_contract(capsys):
    code, out, _ = run(capsys, "compare", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "M,p,rho3,sigma3,rC,RC,drho,dsigma"
    assert len(lines) == 1 + 9  # 3 M values x 3 orders
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[6]) > 0.0
        assert float(cells[7]) > 0.0


def test_compare_json(capsys):
    code, out, _ = run(capsys, "compare", "--ms", "2", "--orders", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["improved"] is True
    assert len(doc["rows"]) == 1


def test_verify_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", *THM1, "--format", "json")
    code2, out2, _ = run(capsys, "verify", *THM1, "--format", "json")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == ["hypothesis-audit", "jacobian-grid", "boundary-simple", "schlicht-coverage"]


@pytest.mark.parametrize("lam", ["1.0000000000000002", "1.0000000000001"])  # 1 + 2^-52 and 1 + 1e-13
@pytest.mark.parametrize("theorem", ["1", "5"])
def test_verify_passes_lead_bound_within_ulps_of_one(capsys, theorem, lam):
    # the lead's derivative peaks on the audit grid within an ulp of L0, and rounding put it 2.22e-16 above
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--lambda0", lam)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "PASS hypothesis-audit (margin = 0) all hypotheses hold at the sampled resolution"
    assert out.endswith("all checks passed\n")


def _verify_evaluations(monkeypatch, capsys, argv):
    """The witness's component calls in one verify run outside ``hypothesis-audit``, and its disk checks.

    ``calls`` counts (index, method, kind): kind "array" for a call on an array and "point at 0" or
    "point" for a call at one point.  ``disk_checks`` counts the arrays that ``polyfunc`` checks
    against the disk.  ``lead_origin`` is true when an array given to the lead's value holds 0.
    """
    phase, witnesses = [None], []
    calls, disk_checks, lead_origin = collections.Counter(), [0], [False]

    def built(b):
        witnesses.append(build(b))
        phase[0] = "checks"  # the normalisation checks of extremal_fn are not the op's checks
        return witnesses[-1]

    def audited(*args, **kwargs):
        phase[0] = None  # hypothesis-audit keeps its own grid
        try:
            return audit(*args, **kwargs)
        finally:
            phase[0] = "checks"

    build, audit = extremal.extremal_fn, verify.hypothesis_audit
    monkeypatch.setattr(cli.extremal, "extremal_fn", built)
    monkeypatch.setattr(cli.verify, "hypothesis_audit", audited)
    require = polyfunc._require_in_disk

    def counted_require(z):
        if phase[0] is not None and not isinstance(z, (int, float, complex)):
            disk_checks[0] += 1
        return require(z)

    monkeypatch.setattr(polyfunc, "_require_in_disk", counted_require)
    for cls in (extremal.Linear, extremal.DerivLead, extremal.BoundedRatio):
        for method in ("value", "derivative"):
            def counted(self, z, original=getattr(cls, method), method=method):
                if phase[0] is not None:
                    index = next(k for k, comp in enumerate(witnesses[0].components) if comp is self)
                    if isinstance(z, (int, float, complex)):
                        kind = "point at 0" if z == 0 else "point"
                    else:
                        kind = "array"
                        if index == 0 and method == "value" and (z == 0).any():
                            lead_origin[0] = True
                    calls[index, method, kind] += 1
                return original(self, z)

            monkeypatch.setattr(cls, method, counted)
    code, out, _ = run(capsys, "verify", *argv)
    assert code == EXIT_OK, out
    return witnesses[0].order, calls, disk_checks[0], lead_origin[0]


@pytest.mark.parametrize(
    "argv",
    [("--theorem", "7", "-p", "3", "--mstars", "3"), ("--theorem", "5", "-p", "3", "--lambda0", "1.05", "--lambdas", "0.5,0.25"),
     ("--theorem", "4", "-p", "3", "--lambda0", "1.2", "--ms", "2,1.5"), ("--theorem", "1", "-p", "1", "--lambda0", "1.2")],
)
def test_verify_evaluates_the_witness_once_per_op(monkeypatch, capsys, argv):
    # one pass over the grid, the boundary circle and the coverage circle: every component's derivative
    # and value see one array; the lead's value skips the grid, and F(0) is read as a point, so the
    # lead never takes both of its forms only because the origin joined its circles
    order, calls, disk_checks, lead_origin = _verify_evaluations(monkeypatch, capsys, argv)
    assert disk_checks == 1
    assert not lead_origin
    # F(0), and for theorems 5-8 also exp F's check that F(0) = 0, read each value at the point 0
    points_at_0 = 2 if int(argv[1]) >= 5 else 1
    for k in range(order):
        assert calls[k, "derivative", "array"] == calls[k, "value", "array"] == 1
        assert calls[k, "value", "point at 0"] == points_at_0
    assert sum(calls.values()) == 2 * order + points_at_0 * order


def test_verify_passes_lead_bound_near_one(capsys):
    # the truncated-series witness failed its own derivative audit here by 1.6e-9
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--lambda0", "1.0000001", "--lambdas", "0")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("PASS hypothesis-audit")


# extreme bounds, sigma = 1 (theorem 6 at p = 1), L0 = 1 + 2^-52, where the lead's derivative peaks within an ulp
# of L0 on the audit grid, and the subnormal boundary images of --lambdas 8e307 (rho = 6.25e-309), whose
# coordinates the star certificate multiplies
QUIET_VERIFY = [
    "--theorem 1 --lambda0 1.0000001 --lambdas 0", "--theorem 2 -p 3 --lambdas 1,0.5",
    "--theorem 1 --lambda0 1.0000000000000002", "--theorem 5 --lambda0 1.0000000000000002",
    "--theorem 3 -p 2 --ms 1e100", "--theorem 4 --lambda0 1.0000001 --ms 1e100",
    "--theorem 5 --lambda0 1.0000001 --lambdas 0", "--theorem 6 -p 2 --lambdas 0.75", "--theorem 6 -p 1",
    "--theorem 7 -p 2 --mstars 1e100", "--theorem 8 --lambda0 1.0000001 --mstars 1e100",
    "--theorem 2 -p 2 --lambdas 8e307", "--theorem 6 -p 2 --lambdas 8e307",
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", QUIET_VERIFY)
def test_verify_emits_no_warnings(capsys, argv):
    # a numpy RuntimeWarning from the witness, a check or exp F raises here instead of passing unseen
    code, _, err = run(capsys, "verify", *argv.split(), "--grid", "8x16")
    assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize("theorem", ["2", "6"])
@pytest.mark.parametrize("lam", ["1e-14", "1e-320"])
def test_verify_passes_margin_flatter_than_float_spacing(capsys, theorem, lam):
    # 1 - 2 lam r drops by less than half an ulp of 1 per sample, so neighbouring samples tie; verify does
    # not sample the margin, so the monotonicity check runs here on the profile that verify builds
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "-p", "2", "--lambdas", lam)
    assert code == EXIT_OK
    assert out.endswith("all checks passed\n")
    b = cli._build_profile(int(theorem), None, (float(lam),))
    assert monotonicity_check(lambda r: univalence_margin(r, b), 0.0, b.upper(1.0 - 1e-6)).passed


def test_verify_modulus_witness_is_near_its_fold(capsys):
    # the M = 1 stand-in passed with a univalence margin of 0.999999 whatever M was
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--ms", "1e6,1e6", "--format", "json")
    assert code == EXIT_OK
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["jacobian-grid"]["measured_margin"] < 0.1


def test_verify_forced_failure_exits_1(capsys):
    code, out, _ = run(capsys, "verify", *THM1, "--margin", "10", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    doc = json.loads(out)
    assert doc["passed"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert failed and all("witness" in c for c in failed)


@pytest.mark.parametrize(
    "argv",
    [("--theorem", "5", *THM1[2:]), ("--theorem", "6", "-p", "1")],
    ids=["theorem-5", "theorem-6-sigma-1"],
)
def test_verify_log_theorem_runs_exp_coverage(capsys, argv):
    # exp F's covered disk is checked for every sigma > 0; exp-disk, which it replaces, skipped sigma >= 1
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == [
        "hypothesis-audit", "jacobian-grid", "boundary-simple", "schlicht-coverage", "exp-coverage"
    ]
    assert doc["checks"][-1]["passed"] is True
    if argv[1] == "6":
        assert doc["rho"] == doc["sigma"] == 1.0


@pytest.mark.parametrize("value", ["9", "-3", "x"])
def test_verify_seed_comes_from_no_environment_variable(capsys, monkeypatch, value):
    # LANDAU_SEED once set the seed of a run that gave no --seed, or failed it when out of bounds; a seed now
    # comes from argv or a config file
    argv = ("verify", "--theorem", "5", *THM1[2:], "--grid", "8x16", "--format", "json")
    plain = run(capsys, *argv)
    monkeypatch.setenv("LANDAU_SEED", value)
    assert run(capsys, *argv) == plain
    assert json.loads(plain[1])["seed"] == 0
    _, out, _ = run(capsys, *argv, "--seed", "3")
    assert json.loads(out)["seed"] == 3


@pytest.mark.parametrize("value", ["10", "0", "-5", "1048577"])
def test_verify_takes_no_mc_samples_flag(capsys, value):
    # exp-disk draws its own default number of samples; 0, -5 and 1048577 were once refused by the flag's bounds
    code, out, err = run(capsys, "verify", "--theorem", "1", "--lambda0", "2", "--mc-samples", value)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith(f"error: unrecognized arguments: --mc-samples {value}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--theorem", "5", "--lambda0", "2", "--seed", "-1"), "--seed"),
        (("verify", "--theorem", "1", "--lambda0", "2", "--seed", "-1", "--grid", "8x16"),
         "--seed must be a nonnegative integer, got -1\n"),
        (("radii", "--theorem", "1", "--lambda0", "2", "--digits", "-3"), "--digits"),
        (("verify", "--theorem", "1", "--lambda0", "2", "--boundary-samples", "4"), "--boundary-samples"),
        (("verify", "--theorem", "1", "--lambda0", "2", "--grid", "4x64"), "--grid"),
        (("verify", "--theorem", "1", "--lambda0", "2", "--grid", "32x4"), "--grid"),
        (("verify", "--theorem", "1", "--lambda0", "2", "--margin", "-1"), "--margin"),
        (("verify", "--theorem", "1", "--lambda0", "2", "--margin", "nan"), "--margin"),
        # one past each cap; without the caps, --grid 100000x100000 ended in numpy's out-of-memory traceback
        (("verify", "--theorem", "1", "--lambda0", "2", "--grid", "1024x1025"),
         "--grid must have at most 1048576 nodes, got 1024x1025"),
        (("verify", "--theorem", "1", "--lambda0", "2", "--boundary-samples", "65537"),
         "--boundary-samples must be at most 65536, got 65537"),
        # these made the collision gate one that no input passes
        (("sharpness", "--theorem", "1", "--lambda0", "2", "--tol", "0"), "--tol must be a positive number, got 0.0"),
        (("sharpness", "--theorem", "1", "--lambda0", "2", "--tol=-1"), "--tol must be a positive number, got -1.0"),
        (("sharpness", "--theorem", "1", "--lambda0", "2", "--tol", "nan"), "--tol must be a positive number, got nan"),
        # int() raised OverflowError on inf, a traceback, and named no flag on nan
        (("compare", "--orders", "inf"), "--orders expects positive integers, got 'inf'\n"),
        (("compare", "--orders", "nan"), "--orders expects positive integers, got 'nan'\n"),
        # these named the baseline's M or the constructor's M_k, not --ms
        (("compare", "--ms", "1"), "--ms expects modulus bounds above 1, got '1'\n"),
        (("compare", "--ms", "0.5"), "--ms expects modulus bounds above 1, got '0.5'\n"),
        (("compare", "--ms", "inf"), "--ms expects modulus bounds above 1, got 'inf'\n"),
        (("compare", "--ms", "nan"), "--ms expects modulus bounds above 1, got 'nan'\n"),
        (("compare", "--ms", "2,1"), "--ms expects modulus bounds above 1, got '2,1'\n"),
        # this named the constructor's M_0, not --ms
        (("compare", "--ms", "1e200"), "--ms is too large: M**2 overflows a float, got '1e200'\n"),
        # format() said "precision too big", naming no flag; 767 digits print every double exactly
        (("radii", "--theorem", "1", "--lambda0", "2", "--digits", "768"), "--digits must be at most 767, got 768\n"),
        (("radii", "--theorem", "1", "--lambda0", "2", "-p", "0"), "--order must be a positive integer, got 0\n"),
        (("radii", "--theorem", "3", "-p", "2"), "theorem 3 needs --ms, the component modulus bounds\n"),
        (("radii", "--theorem", "7"), "theorem 7 needs --mstars, the factor modulus bounds above 1\n"),
        (("baseline", "--name", "bianalytic-deriv", "--lambda1", "1"),
         "baseline bianalytic-deriv needs --lambda0 (> 1) and --lambda1 (>= 0)\n"),
        (("baseline", "--name", "bianalytic-bounded"),
         "baseline bianalytic-bounded needs --lambda1, the conjugate-part bound >= 0\n"),
        (("baseline", "--name", "poly-modulus", "--m", "2"), "baseline poly-modulus needs --m (> 1) and -p\n"),
        # this named theorems 1, 2, 5 and 6 for a run that gave no theorem at all
        (("sharpness", "--lambda0", "2"), "--theorem is required\n"),
        # one past the order cap: --orders 1e20 ended in an OverflowError traceback, and -p 10**9 ran on for
        # the poly-modulus baseline
        (("compare", "--orders", "1e20"), "--orders must be at most 1000, got '1e20'\n"),
        (("compare", "--orders", "2,1e20"), "--orders must be at most 1000, got '2,1e20'\n"),
        (("radii", "--theorem", "3", "-p", "1001", "--ms", "2"), "--order must be at most 1000, got 1001\n"),
        (("radii", "--theorem", "2", "--lambdas", ",".join(["0.5"] * 1000)),
         "--lambdas must have at most 999 values, got 1000\n"),
        (("baseline", "--name", "poly-modulus", "--m", "2", "-p", "1001"), "--order must be at most 1000, got 1001\n"),
    ],
    ids=["seed-negative", "seed-negative-on-a-grid", "digits-negative", "boundary-samples-4", "grid-radial-4",
         "grid-angular-4", "margin-negative", "margin-nan", "grid-over-cap", "boundary-samples-over-cap", "tol-0",
         "tol-negative", "tol-nan", "orders-inf", "orders-nan", "ms-1", "ms-0.5", "ms-inf", "ms-nan", "ms-2,1",
         "ms-square-overflows", "digits-over-cap", "order-0", "theorem-3-needs-ms", "theorem-7-needs-mstars",
         "baseline-bianalytic-deriv-needs-lambda0", "baseline-bianalytic-bounded-needs-lambda1",
         "baseline-poly-modulus-needs-p", "sharpness-needs-theorem", "orders-1e20-over-cap", "orders-over-cap",
         "order-over-cap", "lambdas-over-cap", "baseline-order-over-cap"],
)
def test_exit_2_names_the_sampling_flag(capsys, argv, flag):
    # numpy's, format()'s or the checks' own message for these would name no flag; a message that ends in a
    # newline is the whole line
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {flag}") and err.count("\n") == 1


def test_sharpness_collision(capsys):
    code, out, _ = run(capsys, "sharpness", *THM1, "-r", "0.5", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["x2"] < doc["rho"] < doc["x1"] < 0.5
    assert doc["collision"] < 1e-10
    assert doc["passed"] is True


def _sharpness_profile_evaluations(capsys, monkeypatch, *argv):
    # collision_pair reads the witness's real-axis profile through extremal.poly_eval alone
    calls = []
    evaluate = extremal.poly_eval

    def counted(F, z):
        calls.append(z)
        return evaluate(F, z)

    monkeypatch.setattr(extremal, "poly_eval", counted)
    code, out, _ = run(capsys, "sharpness", *argv, "--digits", "17", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    return doc["x1"], doc["x2"], len(calls)


def test_sharpness_skips_the_second_zero_before_it(capsys, monkeypatch):
    # the profile is still positive at r = 0.5, so the second zero cannot cap eps: the bisection
    # on [rho, 1] is skipped and x1 = rho + (r - rho)/2 keeps the bits it had with it (113 evaluations)
    x1, x2, evaluations = _sharpness_profile_evaluations(capsys, monkeypatch, *THM1, "-r", "0.5")
    assert (x1, x2) == (0.38397459621556135, 0.14927124689440407)
    assert evaluations == 58


def test_sharpness_caps_eps_at_the_second_zero_past_it(capsys, monkeypatch):
    # r = 0.7 lies past the profile's second zero (about 0.52), which caps eps below (r - rho)/2
    x1, x2, evaluations = _sharpness_profile_evaluations(capsys, monkeypatch, *THM1, "-r", "0.7")
    assert (x1, x2) == (0.3953237879436488, 0.13736992373598944)
    assert x1 < 0.5 * (radii(DerivAll(2.0, (1.0,))).rho + 0.7)
    assert evaluations == 113


@pytest.mark.parametrize(
    "argv, profile",
    [
        ([*THM1, "-r", "0.5"], DerivAll(2.0, (1.0,))),
        (["--theorem", "6", "-p", "3", "--lambdas", "1,0.5"], DerivNormalized((1.0, 0.5))),
    ],
    ids=["theorem-1-collision", "theorem-6-reversal"],
)
def test_sharpness_solves_once_and_builds_one_witness(capsys, monkeypatch, argv, profile):
    # cmd_sharpness solves rho and builds the witness; collision_pair and reversal_point take both as given
    build = extremal.extremal_fn
    margins, builds = [], []

    def counted_build(b):
        builds.append(b)
        return build(b)

    record_solver_margins(monkeypatch, margins)
    monkeypatch.setattr(cli.extremal, "extremal_fn", counted_build)  # cli calls it through its lazy module
    code, out, _ = run(capsys, "sharpness", *argv, "--format", "json")
    assert code == EXIT_OK and json.loads(out)["passed"] is True
    assert builds == [profile]
    in_sharpness = len(margins)
    margins.clear()
    radii(profile)
    assert in_sharpness == len(margins) > 0


def test_sharpness_rejects_other_theorems(capsys):
    code, _, err = run(capsys, "sharpness", "--theorem", "3", "--ms", "2")
    assert code == EXIT_USAGE
    assert "theorems 1, 2, 5 and 6" in err


def test_sharpness_log_variant_gates_on_exp_collision(capsys):
    code, out, _ = run(capsys, "sharpness", "--theorem", "5", *THM1[2:], "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["exp_collision"] < 1e-10


def test_sharpness_theorem_2_reports_sense_reversal(capsys):
    code, out, _ = run(capsys, "sharpness", "--theorem", "2", "-p", "2", "--lambdas", "1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rho"] == 0.5
    assert doc["rho"] < doc["x"] <= doc["r"] == 1.0
    assert doc["jacobian"] < 0.0 and doc["exp_jacobian"] < 0.0
    assert doc["passed"] is True
    code, out, _ = run(capsys, "sharpness", "--theorem", "2", "-p", "2", "--lambdas", "1")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "theorem 2: rho = 0.5",
        "x = 0.5078125 (past rho)",
        "J F(x) = -0.015625",
        "J exp F(x) = -0.0257581253604",
        "sense reversal confirmed: J < 0 past rho",
    ]


def test_sharpness_log_variant_gates_on_exp_jacobian(capsys):
    code, out, _ = run(
        capsys, "sharpness", "--theorem", "6", "-p", "3", "--lambdas", "1,0.5", "-r", "0.9", "--format", "csv"
    )
    assert code == EXIT_OK
    header, row = out.strip().split("\n")
    assert header == "theorem,rho,r,x,jacobian,exp_jacobian,passed"
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["exp_jacobian"]) < 0.0 and cells["passed"] == "true"


def test_sharpness_theorem_2_needs_room_past_rho(capsys):
    # 2 L_1 = 0.4 keeps the margin positive on the whole disk: rho = 1
    code, out, err = run(capsys, "sharpness", "--theorem", "2", "-p", "2", "--lambdas", "0.2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "rho < r <= 1" in err


def test_table_sweep_row_count_and_monotonic_rho(capsys):
    code, out, _ = run(capsys, "table", "--theorem", "1", "-p", "2", "--lambda0", "1.1:5:0.1", "--lambdas", "1")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "lambda0,rho,sigma"
    assert len(lines) == 1 + 40
    rhos = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_table_log_theorem_has_w_r_columns(capsys):
    code, out, _ = run(capsys, "table", "--theorem", "5", "-p", "2", "--lambda0", "1.5:2:0.25", "--lambdas", "0.2")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "lambda0,rho,sigma,w,r"
    assert len(lines) == 1 + 3


def test_table_requires_exactly_one_range(capsys):
    code, _, err = run(capsys, "table", *THM1)
    assert code == EXIT_USAGE
    assert "exactly one" in err
    code, _, err = run(capsys, "table", "--theorem", "1", "-p", "2", "--lambda0", "1.1:2:0.1", "--lambdas", "0:1:0.5")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("sweep", ["1.1:2:5e-324", "1.1:2:1e-300", "1.1:inf:0.1", "nan:2:0.1", "1.1:2:inf"])
def test_table_rejects_unbounded_ranges(capsys, sweep):
    # 5e-324 made the row count int(inf), an OverflowError; 1e-300 built 9e299 rows until killed
    code, out, err = run(capsys, "table", "--theorem", "1", "--lambda0", sweep)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: --lambda0 range")


# one sweep per theorem, over each profile flag; theorems 5-8 add the w and r columns
TABLE_GOLDEN = {
    1: ["--theorem", "1", "-p", "3", "--lambda0", "1.25:3:0.25", "--lambdas", "0.5,1"],
    2: ["--theorem", "2", "-p", "3", "--lambdas", "0:1:0.125"],
    3: ["--theorem", "3", "-p", "3", "--ms", "1:3:0.25"],
    4: ["--theorem", "4", "-p", "3", "--lambda0", "2", "--ms", "1:2.5:0.25"],
    5: ["--theorem", "5", "-p", "2", "--lambda0", "1.1:2.1:0.125", "--lambdas", "0.5"],
    6: ["--theorem", "6", "--lambdas", "0:2:0.25"],
    7: ["--theorem", "7", "-p", "3", "--mstars", "1.5:4:0.5"],
    8: ["--theorem", "8", "-p", "3", "--lambda0", "1.25:3:0.25", "--mstars", "2,3"],
}


@pytest.mark.parametrize("theorem", sorted(TABLE_GOLDEN))
def test_table_golden_csv(capsys, theorem):
    code, out, err = run(capsys, "table", *TABLE_GOLDEN[theorem])
    assert (code, err) == (EXIT_OK, "")
    assert out == (DATA / f"golden_table_thm{theorem}.csv").read_text()


@pytest.mark.parametrize("theorem", sorted(TABLE_GOLDEN))
def test_table_golden_csv_at_17_digits(capsys, theorem):
    # 17 digits print every double exactly, so these goldens pin each row's rho, sigma, w and r bit for bit
    code, out, err = run(capsys, "table", *TABLE_GOLDEN[theorem], "--digits", "17")
    assert (code, err) == (EXIT_OK, "")
    assert out == (DATA / f"golden_table17_thm{theorem}.csv").read_text()


# each row's solve is seeded by the rows before it; the sweeps cover every theorem, --lambda0 rows, where
# hi = 1/L0 moves with the row, theorem 2 crossing from the closed form rho = 1 into bisection (5 L_1 = 1 at
# L_1 = 0.2) and modulus bounds near 1
SEEDED_SWEEPS = [
    "--theorem 1 -p 2 --lambda0 1.05:6:0.05 --lambdas 0.5",
    "--theorem 1 --lambda0 1.0000001:1.001:0.00001",
    "--theorem 2 -p 3 --lambdas 0.1:0.5:0.004",
    "--theorem 3 -p 1 --ms 1:1.001:0.00001",
    "--theorem 3 -p 3 --ms 1.000001:1.5:0.005",
    "--theorem 4 -p 3 --lambda0 1.01:4:0.03 --ms 1.0001,2",
    "--theorem 4 -p 2 --lambda0 2 --ms 1:1.0001:0.000001",
    "--theorem 5 -p 3 --lambda0 2 --lambdas 0:2:0.02",
    "--theorem 6 -p 2 --lambdas 0.1:0.5:0.004",
    "--theorem 7 -p 2 --mstars 1.0000001:1.1:0.001",
    "--theorem 8 -p 2 --lambda0 1.05:3:0.02 --mstars 1.5",
]


@pytest.mark.parametrize("sweep", SEEDED_SWEEPS)
def test_table_rows_equal_their_solves_alone(capsys, sweep):
    argv = sweep.split()
    at = next(i for i, arg in enumerate(argv) if ":" in arg)
    code, out, err = run(capsys, "table", *argv, "--digits", "17")
    assert (code, err) == (EXIT_OK, "")
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) > 40
    for row in rows:
        # 17 digits print every double exactly, so the comparison is bit for bit
        alone = argv[:at] + [row[0]] + argv[at + 1:]
        code, out, _ = run(capsys, "radii", *alone, "--digits", "17", "--format", "json")
        doc = json.loads(out)
        assert [float(cell) for cell in row[1:]] == [doc[key] for key in header[1:]], row[0]


def test_table_rows_seed_each_other(capsys, monkeypatch):
    points = []
    record_solver_margins(monkeypatch, points)
    code, out, _ = run(capsys, "table", "--theorem", "3", "-p", "2", "--ms", "2:20:0.1")
    assert code == EXIT_OK
    seeded = len(points)
    points.clear()
    values = cli._range_values("2:20:0.1", "--ms")
    assert len(values) == len(out.splitlines()) - 1 == 181
    for m in values:
        radii(ModulusAll((m, m)))
    assert 0 < seeded <= 0.8 * len(points)


@pytest.mark.parametrize(
    "argv, message",
    [
        # a flag that does not parse outranks the first row's bad lambda0
        ("--theorem 1 --lambda0 0.5:2:0.5 --lambdas abc", "--lambdas expects a number, got 'abc'"),
        # M**2 overflows only at the second row, and no row is printed
        ("--theorem 3 --ms 1e150:1e160:1e158", "M_0 = 1.00000001e+158 is too large: M_0**2 overflows a float"),
        ("--theorem 8 --lambda0 2 --mstars 0.5:2:0.5", "factor modulus bound must exceed 1, got 0.5"),
        (
            "--theorem 1 -p 3 --lambda0 1.5:2:0.5 --lambdas 1,2,3",
            "--lambdas expects 2 comma-separated values (or one to broadcast), got 3",
        ),
        ("--theorem 2 --lambda0 1:2:0.5", "theorem 2 is parameterized by --lambdas; --lambda0 does not apply"),
        # the range is checked before the flags
        ("--theorem 2 --lambda0 nan:2:0.1", "--lambda0 range needs a finite start, stop and step, got 'nan:2:0.1'"),
        ("--theorem 1 --lambda0 1.5:2", "--lambda0 range must be start:stop:step, got '1.5:2'"),
        ("--theorem 1 --lambda0 1.5:2:-1", "--lambda0 range needs a positive step, got -1.0"),
        ("--theorem 1 --lambda0 2:1:0.5", "--lambda0 range needs stop >= start, got '2:1:0.5'"),
        ("--theorem 4 --lambda0 1.5:2:0.5", "theorem 4 needs --ms, the bounds on components 1..p-1"),
        ("--theorem 4 -p 1 --lambda0 1.5:2:0.5 --ms 2", "theorem 4 needs at least two components, got order 1"),
        ("--theorem 1 -p 1 --lambda0 1.5:2:0.5 --lambdas 1", "theorem 1 with one component takes no --lambdas"),
        ("--theorem 1 --lambda0 1.5:2:0.5 --lambdas ,", "--lambdas expects at least one number"),
    ],
    ids=["parse-before-row", "overflow-at-row-2", "bad-mstar", "list-length", "foreign-flag", "range-before-flags",
         "range-two-parts", "range-negative-step", "range-stop-below-start", "theorem-4-needs-ms",
         "theorem-4-one-component", "theorem-1-one-component-with-lambdas", "empty-list"],
)
def test_table_errors(capsys, argv, message):
    assert run(capsys, "table", *argv.split()) == (EXIT_USAGE, "", f"error: {message}\n")


def test_table_reads_the_other_profile_flags_once(capsys, monkeypatch):
    calls = []
    float_list = cli._float_list

    def counted(raw, flag):
        calls.append(flag)
        return float_list(raw, flag)

    monkeypatch.setattr(cli, "_float_list", counted)
    code, out, _ = run(capsys, "table", "--theorem", "1", "-p", "2", "--lambda0", "1.1:5:0.1", "--lambdas", "1")
    assert code == EXIT_OK
    assert len(out.strip().split("\n")) == 1 + 40
    assert calls == ["--lambdas"]


def test_table_row_limit_is_checked_before_any_row(capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "_compute_radii", no_rows)
    # one row over the limit: (2 - 1)/1e-6 + 1 rows
    code, out, err = run(capsys, "table", "--theorem", "1", "--lambda0", f"1:2:{1 / cli.MAX_TABLE_ROWS!r}")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"more than {cli.MAX_TABLE_ROWS} rows" in err


def test_table_row_limit_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_TABLE_ROWS", 5)
    code, out, _ = run(capsys, "table", "--theorem", "1", "--lambda0", "1.5:2.5:0.25")
    assert code == EXIT_OK
    assert len(out.strip().split("\n")) == 1 + 5
    code, out, _ = run(capsys, "table", "--theorem", "1", "--lambda0", "1.5:2.7:0.24")
    assert code == EXIT_USAGE
    assert out == ""


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theorem=1\norder=2\nlambda0=2\nlambdas=1\nformat=json\n# comment line\n")
    code, out, _ = run(capsys, "radii", "--config", str(cfg))
    assert code == EXIT_OK
    assert json.loads(out)["rho"] == pytest.approx(2 - math.sqrt(3), abs=1e-11)
    # a flag beats the file entry
    code, out, _ = run(capsys, "radii", "--config", str(cfg), "--lambda0", "3")
    assert json.loads(out)["rho"] < 0.2679
    # and the file entry beats table's default csv, which once ignored it and printed CSV
    message = "error: table emits CSV only; drop --format or pass --format csv\n"
    assert run(capsys, "table", "--config", str(cfg), "--lambda0", "1.5:2:0.25") == (EXIT_USAGE, "", message)


# mc_samples named a removed verify flag, and output_format was a second key for format
@pytest.mark.parametrize("entry", ["nonsense=1", "mc_samples=10", "output_format=json"])
def test_config_file_rejects_unknown_keys(capsys, tmp_path, entry):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{entry}\n")
    code, _, err = run(capsys, "radii", "--config", str(cfg), "--theorem", "1", "--lambda0", "2")
    assert (code, err) == (EXIT_USAGE, f"error: unknown config keys: {entry.partition('=')[0]}\n")


# entries for verify's sampling flags out of their bounds, each once named as the flag
SAMPLING_ENTRIES = [
    ("grid=4x4", "grid needs at least 8 radial and 8 angular samples, got 4x4"),
    ("grid=abc", "grid expects RADIALxANGULAR, got 'abc'"),
    ("boundary_samples=4", "boundary_samples must be at least 8, got 4"),
    ("margin=-1", "margin must be a nonnegative number, got -1.0"),
    ("seed=-3", "seed must be a nonnegative integer, got -3"),
]


@pytest.mark.parametrize("command", ["radii", "verify"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ("format=xml", "format must be one of json, csv, text, got 'xml'"),
        ("margin=abc", "margin expects a number, got 'abc'"),
        ("seed=abc", "seed expects an integer, got 'abc'"),
        ("theorem=x", "theorem expects an integer, got 'x'"),
        ("theorem=9", "theorem must be one of 1, 2, 3, 4, 5, 6, 7, 8, got '9'"),
        ("digits=1.5", "digits expects an integer, got '1.5'"),
        ("digits=-1", "digits must be a nonnegative integer, got -1"),
        ("digits=768", "digits must be at most 767, got 768"),
        ("order=0", "order must be a positive integer, got 0"),
        ("order=1001", "order must be at most 1000, got 1001"),
        ("lambdas", "expected key=value, got 'lambdas'"),
        *SAMPLING_ENTRIES,
    ],
)
def test_config_entries_pass_the_flag_checks(capsys, tmp_path, command, entry, message):
    # format=xml printed text and exited 0; the others ended in Python's messages, which name no key.
    # Every entry is converted as its flag's value is, but bounds and the grid parse hold only for the
    # subcommand's own flags: radii runs as if the sampling entries were not there (grid=abc failed it)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"theorem=1\nlambda0=2\n{entry}\n")
    result = run(capsys, command, "--config", str(cfg))
    if command == "radii" and (entry, message) in SAMPLING_ENTRIES:
        assert result == run(capsys, "radii", "--theorem", "1", "--lambda0", "2")
        assert result[0] == EXIT_OK
    else:
        assert result == (EXIT_USAGE, "", f"error: {cfg}:3: {message}\n")


def test_digits_flag_controls_precision(capsys):
    _, out, _ = run(capsys, "radii", *THM1, "--format", "json", "--digits", "4")
    assert json.loads(out)["rho"] == 0.2679


def test_json_writer_refuses_a_type_it_has_no_form_for():
    # a numpy bool once printed as the string "True"; the writer now fails instead of guessing
    np = pytest.importorskip("numpy")
    with pytest.raises(TypeError, match="numpy"):
        cli._jsonable({"passed": np.bool_(True)}, 12)


USAGE = json.loads((DATA / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE, ids=[" ".join(case["argv"]) or "no-arguments" for case in USAGE])
def test_usage_output_is_that_of_the_full_parser(capsys, monkeypatch, case):
    # the bytes were recorded from a parser that built every subcommand's arguments, as _build_parser does
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _argparse_flags(argv):
    """argv's flags as the argparse parser reads them, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


# values for each flag dest, accepted and refused ones, some starting with "-"
FLAG_VALUES = {
    "theorem": ["1", "2", "5", "6", "9", "x"],
    "order": ["1", "2", "3", "x", "-1"],
    "lambda0": ["2", "1.5:2:0.25", "0.5", "-2"],
    "lambdas": ["1", "0.5,0.25", "0:1:0.5", "-1"],
    "ms": ["2", "1.5,2", "1:2:0.5"],
    "mstars": ["2", "2,3"],
    "format": ["json", "csv", "text", "xml"],
    "digits": ["4", "17", "1.5", "-3"],
    "config": ["missing.cfg"],
    "name": ["landau", "bianalytic-deriv", "poly-modulus", "bogus"],
    "m": ["2", "0.5"],
    "lambda1": ["1", "0"],
    "orders": ["2", "2,3", "1.5"],
    "seed": ["0", "7", "-1", "x"],
    "grid": ["8x16", "4x4", "x"],
    "margin": ["0.1", "nan", "-1"],
    "boundary_samples": ["8", "64", "4"],
    "radius": ["0.5", "0.9", "2"],
    "tol": ["1e-10", "0"],
}
STRAY = ["-h", "--help", "--", "stray", "-", "--bogus"]


@st.composite
def _argvs(draw):
    """A subcommand (rarely a typo) and up to six flags, some spelled in the forms only argparse takes."""
    command = draw(st.sampled_from([*cli._FLAGS, "frobnicate"]))
    flags = cli._FLAGS.get(command, cli._FLAGS["radii"])
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(flags))
        option = draw(st.sampled_from(flag.options))
        value = draw(st.sampled_from(FLAG_VALUES[flag.dest]))
        form = draw(st.sampled_from(["plain"] * 6 + ["prefix", "equals", "attached", "bare", "stray"]))
        if form == "plain":
            argv += [option, value]
        elif form == "prefix":
            argv += [option[:-1], value]  # --lambda is ambiguous, --theore a unique prefix, - a stray token
        elif form == "equals":
            argv.append(f"{option}={value}")
        elif form == "attached":
            argv.append(option + value)  # -p3 for a short option
        elif form == "bare":
            argv.append(option)
        else:
            argv.append(draw(st.sampled_from(STRAY)))
    return argv


def test_flag_table_invariants():
    flags = [f for subcommand in cli._FLAGS.values() for f in subcommand]
    assert set(FLAG_VALUES) == {f.dest for f in flags}
    # a config key is a flag's dest, and every flag but --config has one
    assert set(cli._CONFIG_KEYS) == {f.dest for f in flags} - {"config"}
    # a config entry is converted by any one flag of its dest, so all flags of a dest must agree
    kinds = {(f.dest, f.type, f.choices) for f in flags}
    assert len(kinds) == len(FLAG_VALUES)
    # every default is a value its flag takes, and within its bounds
    for f in flags:
        if f.default is not None:
            assert f.convert(str(f.default)) == f.default
            assert all(test(f.default) for test, _ in f.bounds)
    assert cli._grid(cli._OPTIONS["verify"]["--grid"].default, "--grid") == (32, 64)


_NAN = object()


def _nan_as_equal(flags):
    # the scan and argparse both read --margin nan as nan, and nan != nan
    return flags and {k: _NAN if isinstance(v, float) and math.isnan(v) else v for k, v in flags.items()}


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
@example(argv=["baseline", "--m", "2"])  # the required --name is missing
@example(argv=["baseline", "--name", "landau", "--m", "2", "--name", "bogus"])  # a repeated flag's bad value
@example(argv=["radii", "--theorem", "1", "--lambda0", "-2"])  # a negative number
@example(argv=["table", "--theorem", "1", "--lambda0", "1.5:2:0.25", "--format", "csv"])
@example(argv=["verify", "--theorem", "1", "--lambda0", "2", "--grid", "8x16", "-p", "1", "--order", "2"])
@example(argv=["verify", "--margin", "nan"])
def test_scan_agrees_with_argparse(argv):
    # the scan may decline any argv, but what it takes it must read as argparse does, and main's
    # return code, stdout and stderr must be those of the argparse-only path
    scanned = cli._scan(argv)
    assert scanned is None or _nan_as_equal(scanned) == _nan_as_equal(_argparse_flags(argv))
    with mock.patch.object(cli, "_scan", return_value=None):
        expected = _main_output(argv)
    assert _main_output(argv) == expected


PLAIN_ARGVS = [
    *(["radii", *argv] for argv in GOLDEN.values()),
    ["table", *TABLE_GOLDEN[7]],
    ["compare", "--ms", "2", "--orders", "2,3", "--format", "json"],
    ["baseline", "--name", "landau", "--m", "2"],
    ["verify", *THM1, "--grid", "8x16", "--seed", "3"],
    ["sharpness", *THM1, "-r", "0.5", "--digits", "17"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGVS, ids=[" ".join(argv) for argv in PLAIN_ARGVS])
def test_plain_argv_never_builds_the_parser(capsys, monkeypatch, argv):
    assert cli._scan(argv) == _argparse_flags(argv)

    def no_parser():
        raise AssertionError("the argparse parser was built")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out
