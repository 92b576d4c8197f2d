"""Checks of each op's output against the 50-digit reference.

``check_op`` returns the list of problems with one op's exit code and
stdout; an empty list means the op is correct.  Parsing follows the
CLI's three output formats; every number is printed with 17 significant
digits, so it reads back as the exact float the program computed.
"""

from __future__ import annotations

import csv
import io
import json

import reference as ref
from mpmath import mpf


def _fields(text: str, fmt: str) -> dict:
    """One record of a radii or baseline output as a dict of strings or numbers."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(text)))
        return dict(zip(header, row))
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _num(record: dict, key: str) -> float:
    return float(record[key])


def _theorem_profile(params: dict, **override) -> ref.Profile:
    p = {**params, **override}
    return ref.theorem_profile(
        p["theorem"], p.get("lambda0"), p.get("lambdas", ()), p.get("ms", ()), p.get("mstars", ())
    )


def _check_record(prof, record: dict, is_log: bool, name: str = "") -> list[str]:
    w = _num(record, "w") if is_log else None
    r = _num(record, "r") if is_log else None
    return ref.check_radius(prof, _num(record, "rho"), _num(record, "sigma"), w, r, name)


def _check_radii(params: dict, out: str) -> list[str]:
    record = _fields(out, params["format"])
    if params["format"] == "text":
        record["theorem"] = out.splitlines()[0].split()[-1]
    problems = []
    if int(record["theorem"]) != params["theorem"]:
        problems.append(f"theorem {record['theorem']} printed for theorem {params['theorem']}")
    return problems + _check_record(_theorem_profile(params), record, params["theorem"] > 4)


def _check_table(params: dict, out: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(out)))
    flag = params["flag"]
    problems = []
    if len(rows) != params["rows"]:
        problems.append(f"{len(rows)} table rows, expected {params['rows']}")
    broadcast = {"lambdas": params["order"] - 1, "ms": params["order"], "mstars": params["order"]}
    if params["theorem"] in (4, 8):
        broadcast["ms"] = broadcast["mstars"] = params["order"] - 1
    for row in rows:
        value = float(row[flag])
        swept = value if flag == "lambda0" else [value] * broadcast[flag]
        prof = _theorem_profile(params, **{flag: swept})
        problems += _check_record(prof, row, params["theorem"] > 4, f"{flag}={value!r}:")
    return problems


def _compare_rows(out: str, fmt: str) -> tuple[list[dict], bool | None]:
    if fmt == "json":
        doc = json.loads(out)
        return doc["rows"], doc["improved"]
    return list(csv.DictReader(io.StringIO(out))), None


def _check_compare(params: dict, out: str) -> list[str]:
    rows, improved = _compare_rows(out, params["format"])
    problems = []
    expected = [(m, p) for m in params["ms"] for p in params["orders"]]
    got = [(float(row["M"]), int(row["p"])) for row in rows]
    if got != expected:
        return [f"compare rows {got} for {expected}"]
    if params["format"] == "json" and improved is not True:
        problems.append(f"improved = {improved!r}")
    for (m, p), row in zip(expected, rows):
        tag = f"M={m!r},p={p}:"
        theorem3 = ref.theorem_profile(3, ms=(m,) * p)
        baseline = ref.PolyModulusBaseline(m, p)
        problems += ref.check_radius(theorem3, float(row["rho3"]), float(row["sigma3"]), name=tag)
        problems += ref.check_radius(baseline, float(row["rC"]), float(row["RC"]), name=f"{tag} baseline")
        # the differences of the printed values, to the rounding of one subtraction
        for diff, a, b in (("drho", "rho3", "rC"), ("dsigma", "sigma3", "RC")):
            exact = mpf(float(row[a])) - mpf(float(row[b]))
            if abs(mpf(float(row[diff])) - exact) > ref.FLOAT_TOL * abs(exact):
                problems.append(f"{tag} {diff} = {row[diff]} is not {a} - {b}")
            if not float(row[diff]) > 0:
                problems.append(f"{tag} {diff} = {row[diff]} shows no improvement")
    return problems


def _check_baseline(params: dict, out: str) -> list[str]:
    record = _fields(out, params["format"])
    name = params["name"]
    rho, sigma = _num(record, "rho"), _num(record, "sigma")
    if name == "landau":
        r0, big_r0 = ref.classical_landau(params["m"])
        problems = []
        for label, got, want in (("rho", rho, r0), ("sigma", sigma, big_r0)):
            if abs(mpf(got) - want) > ref.FLOAT_TOL * want:
                problems.append(f"landau {label} = {got!r}, reference {want}")
        return problems
    if name == "bianalytic-deriv":
        prof = ref.theorem_profile(1, params["lambda0"], (params["lambda1"],))
    elif name == "bianalytic-bounded":
        prof = ref.theorem_profile(2, lambdas=(params["lambda1"],))
    else:
        prof = ref.PolyModulusBaseline(params["m"], params["order"])
    return ref.check_radius(prof, rho, sigma, name=name)


def _check_verify(params: dict, out: str) -> list[str]:
    doc = json.loads(out)
    problems = [f"check {c['name']} failed: {c['note']}" for c in doc["checks"] if not c["passed"]]
    if doc["passed"] is not True:
        problems.append("verdict is not passed")
    return problems + _check_record(_theorem_profile(params), doc, False)


_CHECKERS = {
    "radii": _check_radii,
    "table": _check_table,
    "compare": _check_compare,
    "baseline": _check_baseline,
    "verify": _check_verify,
}


def check_op(params: dict, rc, out: str, raised: str | None) -> list[str]:
    """Problems with one op: a raise, a nonzero exit code, or a number off its reference."""
    if raised:
        return [f"raised {raised.strip().splitlines()[-1]}"]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        return problems + _CHECKERS[params["kind"]](params, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return problems + [f"unreadable output ({type(exc).__name__}: {exc})"]
