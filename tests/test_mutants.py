"""A standing mutant matrix: which single faults ``verify`` catches, on one argv per theorem.

Each row patches one fault into the program in process, runs ``verify`` on
the eight argvs below at the default 32x64 grid and 512 boundary samples,
and requires the recorded set of (theorem, failing check).  The control
row requires the unmutated program to pass every argv.  A change that
lets ``verify`` catch more faults updates its row on purpose; a row that
catches less is a weaker ``verify``.  The technique is mutation analysis
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer, 1978).
"""

import json
import math

import pytest

from polylandau import cli
from polylandau.radii import Profile

# theorems 1-4 and then 5-8 on the same bounds, with factor bounds m* in place of M for 7 and 8
ARGVS = {
    1: ["-p", "2", "--lambda0", "2", "--lambdas", "1"],
    2: ["-p", "3", "--lambdas", "0.5,0.25"],
    3: ["-p", "2", "--ms", "2,3"],
    4: ["-p", "2", "--lambda0", "2", "--ms", "2"],
    5: ["-p", "2", "--lambda0", "2", "--lambdas", "1"],
    6: ["-p", "3", "--lambdas", "0.5,0.25"],
    7: ["-p", "2", "--mstars", "2,3"],
    8: ["-p", "2", "--lambda0", "2", "--mstars", "2"],
}


def _scaled_result(field, factor):
    """A mutant of ``radii`` whose result has ``field`` times factor; ``log_variant`` then reads the mutant."""
    solve = cli.radii

    def mutant(*args, **kwargs):
        res = solve(*args, **kwargs)
        return res._replace(**{field: getattr(res, field) * factor})

    return lambda monkeypatch: monkeypatch.setattr(cli, "radii", mutant)


def _scaled_log_r(factor):
    """A mutant of ``log_variant`` whose covered disk has radius r times factor."""
    upgrade = cli.log_variant

    def mutant(res):
        out = upgrade(res)
        return out._replace(r=out.r * factor)

    return lambda monkeypatch: monkeypatch.setattr(cli, "log_variant", mutant)


def _profile_weights(linear=lambda b, *term: term, excess=lambda g: g):
    """A mutant of ``Profile.of`` whose linear weights (k, w, c) and excess weights (k, g) are rewritten."""
    build = Profile.of.__func__

    def mutant(cls, theorem, components):
        b = build(cls, theorem, components)
        return b._replace(linear=tuple(linear(b, *term) for term in b.linear),
                          excess=tuple((k, excess(g)) for k, g in b.excess))

    return lambda monkeypatch: monkeypatch.setattr(Profile, "of", classmethod(mutant))


def _derivative_weight(b, k, weight, bound):
    # k L_k in place of (k + 1) L_k, on derivative components only
    return (k, k * bound, bound) if b.components[k][0] == "deriv" else (k, weight, bound)


def _log_bound_without_pi(monkeypatch):
    monkeypatch.setattr(cli, "log_bound_from_modulus", lambda m_star: math.log(m_star) + 1.0)


JACOBIAN, BOUNDARY = "jacobian-grid", "boundary-simple"
SCHLICHT, EXP = "schlicht-coverage", "exp-coverage"

# mutant -> (its patch, the recorded set of (theorem, failing check)); ROADMAP Direction 25 names the rows that
# later work moves
MATRIX = {
    "none": (lambda monkeypatch: None, set()),
    "rho * 1.005": (_scaled_result("rho", 1.005), set()),  # D10: the degree checks run at 0.99 rho
    "rho * 1.05": (_scaled_result("rho", 1.05), {(t, JACOBIAN) for t in (1, 2, 5, 6)}),
    "sigma * 1.005": (_scaled_result("sigma", 1.005), set()),  # D10: the coverage checks run at 0.99 sigma
    "sigma * 1.05": (_scaled_result("sigma", 1.05), {(t, SCHLICHT) for t in (1, 2, 5, 6)} | {(5, EXP), (6, EXP)}),
    "log_variant r * 1.5": (_scaled_log_r(1.5), set()),  # D20: verify never reads w or r
    "linear weight k L_k": (_profile_weights(linear=_derivative_weight), {(t, JACOBIAN) for t in (1, 2, 5, 6)}),
    "excess weight halved": (_profile_weights(excess=lambda g: 0.5 * g), {(7, JACOBIAN), (7, BOUNDARY)}),
    "m* -> log m* + 1": (_log_bound_without_pi, set()),  # D15: the witness and the audit read the same M
}


def _radii_outputs(capsys):
    """What ``radii`` prints on the eight argvs, so that a row can show its mutant took hold."""
    outputs = []
    for theorem, argv in ARGVS.items():
        cli.main(["radii", "--theorem", str(theorem), *argv, "--format", "json", "--digits", "17"])
        outputs.append(capsys.readouterr().out)
    return outputs


@pytest.mark.parametrize("mutant", sorted(MATRIX))
def test_verify_catches_the_recorded_faults(monkeypatch, capsys, mutant):
    patch, recorded = MATRIX[mutant]
    honest = _radii_outputs(capsys)
    patch(monkeypatch)
    assert (_radii_outputs(capsys) == honest) == (mutant == "none")  # every mutant moves some printed radius
    caught = set()
    for theorem, argv in ARGVS.items():
        code = cli.main(["verify", "--theorem", str(theorem), *argv, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        failed = {(theorem, check["name"]) for check in doc["checks"] if not check["passed"]}
        assert code == (1 if failed else 0), (theorem, doc)
        caught |= failed
    assert caught == recorded
