"""Command-line interface: golden output, exit codes, determinism."""

import json
import math
import pathlib

import pytest

from polylandau import ModulusAll, log_bound_from_modulus, modulus_radii
from polylandau.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main

DATA = pathlib.Path(__file__).parent / "data"

THM1 = ["--theorem", "1", "-p", "2", "--lambda0", "2", "--lambdas", "1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_radii_golden_json(capsys):
    code, out, _ = run(capsys, "radii", *THM1, "--format", "json")
    assert code == EXIT_OK
    assert out == (DATA / "golden_radii_thm1.json").read_text()
    doc = json.loads(out)
    assert doc["theorem"] == 1
    assert doc["rho"] == pytest.approx(2 - math.sqrt(3), abs=1e-11)
    assert "w" not in doc and "r" not in doc


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
    direct = modulus_radii(ModulusAll((m, m)))
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


def test_verify_exit_2_on_collapsed_grid(capsys):
    # rho is about 5e-101 here, so the whole univalence grid lies within 1e-15
    code, _, err = run(capsys, "verify", "--theorem", "3", "--ms", "1e100")
    assert code == EXIT_USAGE
    assert "univalence grid collapsed" in err


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
    assert "hypothesis-audit" in names
    assert "univalence-grid" in names
    assert "schlicht-coverage" in names


def test_verify_passes_lead_bound_near_one(capsys):
    # the truncated-series witness failed its own derivative audit here by 1.6e-9
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--lambda0", "1.0000001", "--lambdas", "0")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("PASS hypothesis-audit")


def test_verify_modulus_witness_is_near_its_fold(capsys):
    # the M = 1 stand-in passed with a univalence margin of 0.999999 whatever M was
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--ms", "1e6,1e6", "--format", "json")
    assert code == EXIT_OK
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["univalence-grid"]["measured_margin"] < 0.1


def test_verify_forced_failure_exits_1(capsys):
    code, out, _ = run(capsys, "verify", *THM1, "--margin", "10", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    doc = json.loads(out)
    assert doc["passed"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert failed and all("witness" in c for c in failed)


def test_verify_log_theorem_runs_exp_disk(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "5", *THM1[2:], "--format", "json")
    assert code == EXIT_OK
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "exp-disk" in names


def test_verify_seed_from_env(capsys, monkeypatch):
    monkeypatch.setenv("LANDAU_SEED", "9")
    _, out, _ = run(capsys, "verify", *THM1, "--format", "json")
    assert json.loads(out)["seed"] == 9
    # an explicit flag wins over the environment
    _, out, _ = run(capsys, "verify", *THM1, "--seed", "3", "--format", "json")
    assert json.loads(out)["seed"] == 3


def test_sharpness_collision(capsys):
    code, out, _ = run(capsys, "sharpness", *THM1, "-r", "0.5", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["x2"] < doc["rho"] < doc["x1"] < 0.5
    assert doc["collision"] < 1e-10
    assert doc["passed"] is True


def test_sharpness_rejects_other_theorems(capsys):
    code, _, err = run(capsys, "sharpness", "--theorem", "3", "--ms", "2")
    assert code == EXIT_USAGE
    assert "theorems 1 and 5" in err


def test_sharpness_log_variant_gates_on_exp_collision(capsys):
    code, out, _ = run(capsys, "sharpness", "--theorem", "5", *THM1[2:], "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["exp_collision"] < 1e-10


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


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theorem=1\norder=2\nlambda0=2\nlambdas=1\nformat=json\n# comment line\n")
    code, out, _ = run(capsys, "radii", "--config", str(cfg))
    assert code == EXIT_OK
    assert json.loads(out)["rho"] == pytest.approx(2 - math.sqrt(3), abs=1e-11)
    # a flag beats the file entry
    code, out, _ = run(capsys, "radii", "--config", str(cfg), "--lambda0", "3")
    assert json.loads(out)["rho"] < 0.2679


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    code, _, err = run(capsys, "radii", "--config", str(cfg), "--theorem", "1", "--lambda0", "2")
    assert code == EXIT_USAGE
    assert "nonsense" in err


def test_digits_flag_controls_precision(capsys):
    _, out, _ = run(capsys, "radii", *THM1, "--format", "json", "--digits", "4")
    assert json.loads(out)["rho"] == 0.2679
