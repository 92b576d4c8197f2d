"""Command-line front end for the radius computations.

Subcommands:

  radii       compute rho and sigma for one theorem (1..8)
  baseline    evaluate one of the prior-result baselines
  compare     table the order-p modulus theorem against its baseline
  verify      run the oracle suite on the theorem's extremal function
  sharpness   demonstrate the univalence collision just past rho
  table       sweep one parameter over start:stop:step to CSV

Profile flags are interpreted per theorem: --lambda0 is the leading
derivative bound (theorems 1, 4, 5, 8), --lambdas the remaining
derivative bounds (1, 2, 5, 6), --ms the modulus bounds (3, 4),
--mstars the factor modulus bounds (7, 8).  Lists are comma-separated;
a single value broadcasts to the expected length.  Exit codes: 0 on
success, 1 when a verification or improvement check fails, 2 on a
usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from cmath import exp as cexp
from dataclasses import dataclass, fields, replace
from typing import get_args, get_type_hints

from .errors import DomainError, PolyLandauError
from .extremal import collision_pair, extremal_fn
from .polyfunc import LogPAnalyticFn
from .radii import (
    BoundProfile,
    DerivAll,
    DerivNormalized,
    MixedDerivModulus,
    ModulusAll,
    RadiiResult,
    bianalytic_bounded_baseline,
    bianalytic_deriv_baseline,
    classical_landau,
    deriv_radii,
    log_bound_from_modulus,
    log_variant,
    modulus_radii,
    poly_modulus_baseline,
    radii,
    univalence_margin,
)
from .verify import (
    GridSpec,
    VerificationReport,
    exp_disk_check,
    hypothesis_audit,
    monotonicity_check,
    schlicht_coverage_check,
    univalence_grid_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_PROFILE_FLAGS = ("lambda0", "lambdas", "ms", "mstars")

# which profile flags each theorem understands
_THEOREM_FLAGS = {
    1: ("lambda0", "lambdas"),
    2: ("lambdas",),
    3: ("ms",),
    4: ("lambda0", "ms"),
    5: ("lambda0", "lambdas"),
    6: ("lambdas",),
    7: ("mstars",),
    8: ("lambda0", "mstars"),
}

_BASELINES = ("landau", "bianalytic-deriv", "bianalytic-bounded", "poly-modulus")


@dataclass(frozen=True)
class RunConfig:
    """Fully merged run parameters; profile values stay raw strings.

    Merging order is defaults, then the optional key=value config file,
    then explicit flags.  Conversion to numbers happens per theorem so
    diagnostics can name the violated hypothesis.
    """

    command: str
    theorem: int | None = None
    order: int | None = None
    lambda0: str | None = None
    lambdas: str | None = None
    ms: str | None = None
    mstars: str | None = None
    lambda1: str | None = None
    m: str | None = None
    name: str | None = None
    orders: str | None = None
    radius: float = 1.0
    output_format: str = "text"
    digits: int = 12
    seed: int = 0
    radial_count: int = 32
    angular_count: int = 64
    margin: float = 1e-9
    boundary_samples: int = 512
    mc_samples: int = 10000
    tol: float = 1e-10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylandau",
        description="Univalence and schlicht-disk radii for poly-analytic and log-analytic-product functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_format: str | None = None) -> None:
        p.add_argument("--format", dest="output_format", choices=("json", "csv", "text"), default=default_format)
        p.add_argument("--digits", type=int, default=None, help="significant digits in printed floats (default 12)")
        p.add_argument("--config", default=None, help="key=value file; flags override its entries")

    def add_profile(p: argparse.ArgumentParser) -> None:
        # not required=True: a config file may supply it
        p.add_argument("--theorem", type=int, choices=range(1, 9), default=None)
        p.add_argument("-p", "--order", type=int, default=None, help="number of components")
        p.add_argument("--lambda0", default=None, help="leading derivative bound (> 1)")
        p.add_argument("--lambdas", default=None, help="comma-separated derivative bounds")
        p.add_argument("--ms", default=None, help="comma-separated modulus bounds (>= 1)")
        p.add_argument("--mstars", default=None, help="comma-separated factor modulus bounds (> 1)")

    p_radii = sub.add_parser("radii", help="compute rho and sigma for one theorem")
    add_profile(p_radii)
    add_common(p_radii)

    p_base = sub.add_parser("baseline", help="evaluate a prior-result baseline")
    p_base.add_argument("--name", required=True, choices=_BASELINES)
    p_base.add_argument("--m", default=None, help="modulus bound M > 1")
    p_base.add_argument("--lambda0", default=None, help="derivative bound above 1")
    p_base.add_argument("--lambda1", default=None, help="companion derivative bound >= 0")
    p_base.add_argument("-p", "--order", type=int, default=None)
    add_common(p_base)

    p_cmp = sub.add_parser("compare", help="order-p modulus theorem vs its baseline")
    p_cmp.add_argument("--ms", default=None, help="comma-separated M values (default 1.2,2,5)")
    p_cmp.add_argument("--orders", default=None, help="comma-separated p values (default 2,3,5)")
    add_common(p_cmp, default_format=None)

    p_ver = sub.add_parser("verify", help="run the oracle suite on the theorem's extremal")
    add_profile(p_ver)
    p_ver.add_argument("--seed", type=int, default=None, help="RNG seed (default env LANDAU_SEED or 0)")
    p_ver.add_argument("--grid", default=None, help="polar grid as RADIALxANGULAR (default 32x64)")
    p_ver.add_argument("--margin", type=float, default=None, help="grid check margin (default 1e-9)")
    p_ver.add_argument("--boundary-samples", type=int, default=None)
    p_ver.add_argument("--mc-samples", type=int, default=None)
    add_common(p_ver)

    p_shp = sub.add_parser("sharpness", help="exhibit the collision just past rho")
    add_profile(p_shp)
    p_shp.add_argument("-r", "--radius", type=float, default=None, help="collision window edge (default 1)")
    p_shp.add_argument("--tol", type=float, default=None, help="pass gate on the collision residual (default 1e-10)")
    add_common(p_shp)

    p_tab = sub.add_parser("table", help="sweep one parameter to CSV")
    add_profile(p_tab)
    add_common(p_tab, default_format="csv")

    return parser


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key == "format":  # config keys mirror flag spellings
                    key = "output_format"
                entries[key] = value.strip()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _converter(hint):
    """``int`` or ``float`` for a numeric RunConfig field; other config values stay strings."""
    for kind in (int, float):
        if hint is kind or kind in get_args(hint):
            return kind
    return None


_CONVERTERS = {name: _converter(hint) for name, hint in get_type_hints(RunConfig).items()}
_DERIVED_FIELDS = ("command", "radial_count", "angular_count")  # set from the subcommand and --grid


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    file_entries = _read_config_file(ns.config) if getattr(ns, "config", None) else {}
    keys = {f.name: f for f in fields(RunConfig) if f.name not in _DERIVED_FIELDS}
    unknown = set(file_entries) - set(keys) - {"grid"}
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(key: str, default, convert=None):
        flag = getattr(ns, key, None)
        if flag is not None:
            return flag
        if key in file_entries:
            raw = file_entries[key]
            return convert(raw) if convert else raw
        return default

    env_seed = os.environ.get("LANDAU_SEED")
    defaults = {"seed": int(env_seed) if env_seed is not None else 0}
    values: dict[str, object] = {"command": ns.command}
    for key, f in keys.items():
        values[key] = pick(key, defaults.get(key, f.default), _CONVERTERS[key])

    grid = pick("grid", "32x64")
    try:
        radial, _, angular = str(grid).partition("x")
        values["radial_count"] = int(radial)
        values["angular_count"] = int(angular)
    except ValueError as exc:
        raise DomainError(f"--grid expects RADIALxANGULAR, got {grid!r}") from exc

    return RunConfig(**values)  # type: ignore[arg-type]


def _float(raw: str, flag: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise DomainError(f"{flag} expects a number, got {raw!r}") from None


def _float_list(raw: str, flag: str) -> list[float]:
    parts = [piece.strip() for piece in str(raw).split(",") if piece.strip()]
    if not parts:
        raise DomainError(f"{flag} expects at least one number")
    return [_float(piece, flag) for piece in parts]


def _broadcast(values: list[float], count: int, flag: str) -> tuple[float, ...]:
    if len(values) == count:
        return tuple(values)
    if len(values) == 1 and count >= 1:
        return tuple(values * count)
    raise DomainError(f"{flag} expects {count} comma-separated values (or one to broadcast), got {len(values)}")


def _reject_foreign_flags(cfg: RunConfig) -> None:
    allowed = _THEOREM_FLAGS[cfg.theorem]
    for flag in _PROFILE_FLAGS:
        if getattr(cfg, flag) is not None and flag not in allowed:
            wanted = " and ".join(f"--{name}" for name in allowed)
            raise DomainError(f"theorem {cfg.theorem} is parameterized by {wanted}; --{flag} does not apply")


def _resolve_order(cfg: RunConfig, listed: int | None, offset: int) -> int:
    if cfg.order is not None:
        if cfg.order < 1:
            raise DomainError(f"order must be a positive integer, got {cfg.order}")
        return cfg.order
    if listed is not None:
        return listed + offset
    return 1


def _require_theorem(cfg: RunConfig) -> int:
    if cfg.theorem is None:
        raise DomainError("--theorem is required")
    if cfg.theorem not in _THEOREM_FLAGS:
        raise DomainError(f"theorem must be one of 1..8, got {cfg.theorem}")
    return cfg.theorem


def _build_profile(cfg: RunConfig) -> BoundProfile:
    """The selected theorem's profile; factor bounds m* (theorems 7 and 8) become log bounds here."""
    t = _require_theorem(cfg)
    _reject_foreign_flags(cfg)
    base = t - 4 if t > 4 else t

    lam0 = None
    if base in (1, 4):
        if cfg.lambda0 is None:
            raise DomainError(f"theorem {t} needs --lambda0, the leading derivative bound above 1")
        lam0 = _float(cfg.lambda0, "--lambda0")

    if base in (1, 2):
        listed = _float_list(cfg.lambdas, "--lambdas") if cfg.lambdas is not None else None
        p = _resolve_order(cfg, None if listed is None else len(listed), 1)
        if p == 1 and listed:
            raise DomainError(f"theorem {t} with one component takes no --lambdas")
        if p > 1 and listed is None:
            raise DomainError(f"theorem {t} with {p} components needs --lambdas ({p - 1} values)")
        lambdas = _broadcast(listed, p - 1, "--lambdas") if p > 1 else ()
        return DerivAll(lam0, lambdas) if base == 1 else DerivNormalized(lambdas)

    flag, raw = ("--ms", cfg.ms) if t < 5 else ("--mstars", cfg.mstars)
    if raw is None:
        what = {3: "the component modulus bounds", 7: "the factor modulus bounds above 1"}
        raise DomainError(f"theorem {t} needs {flag}, {what.get(t, 'the bounds on components 1..p-1')}")
    listed = _float_list(raw, flag)
    offset = 0 if base == 3 else 1
    p = _resolve_order(cfg, len(listed), offset)
    if p < 2 and base == 4:
        raise DomainError(f"theorem {t} needs at least two components, got order {p}")
    values = _broadcast(listed, p - offset, flag)
    if t > 4:
        values = tuple(log_bound_from_modulus(v) for v in values)
    return ModulusAll(values) if base == 3 else MixedDerivModulus(lam0, values)


def _compute_radii(theorem: int, profile: BoundProfile) -> RadiiResult:
    res = radii(profile)
    return log_variant(res) if theorem >= 5 else res


def _q(x: float, digits: int) -> float:
    if x != x or x in (float("inf"), float("-inf")):
        return x
    return float(f"{x:.{digits}g}")


def _jsonable(value, digits: int):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return _q(value, digits)
    if isinstance(value, complex):
        return [_q(value.real, digits), _q(value.imag, digits)]
    if isinstance(value, dict):
        return {k: _jsonable(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, digits) for v in value]
    return str(value)


def _emit_json(doc: dict, digits: int) -> None:
    sys.stdout.write(json.dumps(_jsonable(doc, digits), indent=2) + "\n")


def _emit_csv(header: list[str], rows: list[list[object]], digits: int) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.{digits}g}" if isinstance(v, float) else v for v in row])
    sys.stdout.write(buf.getvalue())


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _result_doc(res: RadiiResult, digits: int) -> dict:
    doc: dict[str, object] = {
        "theorem": res.theorem,
        "rho": res.rho,
        "sigma": res.sigma,
    }
    if res.w is not None:
        doc["w"] = res.w
        doc["r"] = res.r
    doc["residual"] = res.residual
    doc["iterations"] = res.iterations
    doc["flags"] = list(res.flags)
    return doc


def cmd_radii(cfg: RunConfig) -> int:
    profile = _build_profile(cfg)
    res = _compute_radii(cfg.theorem, profile)
    if cfg.output_format == "json":
        _emit_json(_result_doc(res, cfg.digits), cfg.digits)
    elif cfg.output_format == "csv":
        header = ["theorem", "rho", "sigma", "w", "r", "residual", "iterations", "flags"]
        row = [
            res.theorem, res.rho, res.sigma,
            "" if res.w is None else res.w, "" if res.r is None else res.r,
            res.residual, res.iterations, ";".join(res.flags),
        ]
        _emit_csv(header, [row], cfg.digits)
    else:
        lines = [f"theorem {res.theorem}", f"rho = {_fmt(res.rho, cfg.digits)}", f"sigma = {_fmt(res.sigma, cfg.digits)}"]
        if res.w is not None:
            lines.append(f"w = {_fmt(res.w, cfg.digits)}")
            lines.append(f"r = {_fmt(res.r, cfg.digits)}")
        lines.append(f"residual = {_fmt(res.residual, cfg.digits)}")
        lines.append(f"iterations = {res.iterations}")
        if res.flags:
            lines.append("flags: " + ", ".join(res.flags))
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_baseline(cfg: RunConfig) -> int:
    if cfg.name == "landau":
        if cfg.m is None:
            raise DomainError("baseline landau needs --m, a modulus bound above 1")
        rho, sigma = classical_landau(_float(cfg.m, "--m"))
    elif cfg.name == "bianalytic-deriv":
        if cfg.lambda0 is None:
            raise DomainError("baseline bianalytic-deriv needs --lambda0 (> 1) and --lambda1 (>= 0)")
        lam1 = _float(cfg.lambda1, "--lambda1") if cfg.lambda1 is not None else 0.0
        rho, sigma = bianalytic_deriv_baseline(lam1, _float(cfg.lambda0, "--lambda0"))
    elif cfg.name == "bianalytic-bounded":
        if cfg.lambda1 is None:
            raise DomainError("baseline bianalytic-bounded needs --lambda1, the conjugate-part bound >= 0")
        rho, sigma = bianalytic_bounded_baseline(_float(cfg.lambda1, "--lambda1"))
    elif cfg.name == "poly-modulus":
        if cfg.m is None or cfg.order is None:
            raise DomainError("baseline poly-modulus needs --m (> 1) and -p")
        rho, sigma = poly_modulus_baseline(_float(cfg.m, "--m"), cfg.order)
    else:
        raise DomainError(f"--name must be one of {', '.join(_BASELINES)}")

    if cfg.output_format == "json":
        _emit_json({"name": cfg.name, "rho": rho, "sigma": sigma}, cfg.digits)
    elif cfg.output_format == "csv":
        _emit_csv(["name", "rho", "sigma"], [[cfg.name, rho, sigma]], cfg.digits)
    else:
        sys.stdout.write(
            f"baseline {cfg.name}\nrho = {_fmt(rho, cfg.digits)}\nsigma = {_fmt(sigma, cfg.digits)}\n"
        )
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    ms = _float_list(cfg.ms, "--ms") if cfg.ms is not None else [1.2, 2.0, 5.0]
    if cfg.orders is not None:
        raw_orders = _float_list(cfg.orders, "--orders")
        if any(v != int(v) or v < 1 for v in raw_orders):
            raise DomainError(f"--orders expects positive integers, got {cfg.orders!r}")
        orders = [int(v) for v in raw_orders]
    else:
        orders = [2, 3, 5]
    rows: list[list[object]] = []
    all_positive = True
    for m in ms:
        for p in orders:
            res = modulus_radii(ModulusAll((m,) * p))
            r_base, big_r_base = poly_modulus_baseline(m, p)
            drho = res.rho - r_base
            dsigma = res.sigma - big_r_base
            all_positive = all_positive and drho > 0.0 and dsigma > 0.0
            rows.append([m, p, res.rho, res.sigma, r_base, big_r_base, drho, dsigma])
    header = ["M", "p", "rho3", "sigma3", "rC", "RC", "drho", "dsigma"]
    if cfg.output_format == "json":
        _emit_json(
            {"rows": [dict(zip(header, row)) for row in rows], "improved": all_positive},
            cfg.digits,
        )
    elif cfg.output_format == "text":
        widths = cfg.digits + 7
        sys.stdout.write("".join(h.rjust(widths) for h in header) + "\n")
        for row in rows:
            cells = [f"{v:.{cfg.digits}g}" if isinstance(v, float) else str(v) for v in row]
            sys.stdout.write("".join(c.rjust(widths) for c in cells) + "\n")
    else:
        _emit_csv(header, rows, cfg.digits)
    return EXIT_OK if all_positive else EXIT_CHECK_FAILED


def _margin_fn(profile: BoundProfile):
    """Margin function, right end of its sampling interval, and whether the margin is constant."""
    t = profile.terms
    constant = t.lead is None and not (t.deriv or t.excess or t.identity)
    return (lambda r: univalence_margin(r, profile)), t.upper(1.0 - 1e-6), constant


def cmd_verify(cfg: RunConfig) -> int:
    profile = _build_profile(cfg)
    res = _compute_radii(cfg.theorem, profile)
    grid = GridSpec(cfg.radial_count, cfg.angular_count, cfg.margin)
    witness = extremal_fn(profile)
    is_log = cfg.theorem >= 5

    reports: list[VerificationReport] = [hypothesis_audit(witness, profile, grid)]

    margin_fn, hi, constant = _margin_fn(profile)
    if not constant:
        reports.append(monotonicity_check(margin_fn, 0.0, hi, samples=1000))

    target = witness if not is_log else LogPAnalyticFn(witness)
    reports.append(univalence_grid_check(target, 0.99 * res.rho, grid))

    if res.sigma > 0.0:
        reports.append(
            schlicht_coverage_check(witness, res.rho, 0.99 * res.sigma, cfg.boundary_samples, cfg.margin)
        )
    if is_log and 0.0 < res.sigma < 1.0:
        reports.append(exp_disk_check(res.sigma, cfg.mc_samples, cfg.seed))

    passed = all(r.passed for r in reports)
    if cfg.output_format == "json":
        doc = {
            "theorem": res.theorem,
            "seed": cfg.seed,
            "rho": res.rho,
            "sigma": res.sigma,
            "checks": [
                {
                    "name": r.check_name,
                    "passed": r.passed,
                    "measured_margin": r.measured_margin,
                    **({"witness": list(r.witness)} if r.witness is not None else {}),
                    "note": r.note,
                }
                for r in reports
            ],
            "passed": passed,
        }
        _emit_json(doc, cfg.digits)
    elif cfg.output_format == "csv":
        _emit_csv(
            ["name", "passed", "measured_margin", "note"],
            [[r.check_name, str(r.passed).lower(), r.measured_margin, r.note] for r in reports],
            cfg.digits,
        )
    else:
        for r in reports:
            state = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{state} {r.check_name} (margin = {_fmt(r.measured_margin, cfg.digits)}) {r.note}\n")
        sys.stdout.write(f"{'all checks passed' if passed else 'some checks FAILED'}\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sharpness(cfg: RunConfig) -> int:
    if cfg.theorem not in (1, 5):
        raise DomainError("sharpness demonstration applies to theorems 1 and 5 only")
    profile = _build_profile(cfg)
    res = deriv_radii(profile)
    x1, x2 = collision_pair(profile, cfg.radius)
    witness = extremal_fn(profile)
    v1 = witness(complex(x1))
    v2 = witness(complex(x2))
    collision = abs(v1 - v2)
    exp_collision = abs(cexp(v1) - cexp(v2))
    gate = collision if cfg.theorem == 1 else exp_collision
    passed = gate < cfg.tol
    doc = {
        "theorem": cfg.theorem,
        "rho": res.rho,
        "r": cfg.radius,
        "x1": x1,
        "x2": x2,
        "collision": collision,
        "exp_collision": exp_collision,
        "tol": cfg.tol,
        "passed": passed,
    }
    if cfg.output_format == "json":
        _emit_json(doc, cfg.digits)
    elif cfg.output_format == "csv":
        header = list(doc)
        _emit_csv(header, [[doc[k] if not isinstance(doc[k], bool) else str(doc[k]).lower() for k in header]], cfg.digits)
    else:
        d = cfg.digits
        sys.stdout.write(
            f"theorem {cfg.theorem}: rho = {_fmt(res.rho, d)}\n"
            f"x1 = {_fmt(x1, d)} (past rho), x2 = {_fmt(x2, d)} (inside)\n"
            f"|F(x1) - F(x2)| = {_fmt(collision, d)}\n"
            f"|exp F(x1) - exp F(x2)| = {_fmt(exp_collision, d)}\n"
            f"{'collision confirmed' if passed else 'collision NOT confirmed'} at tol {_fmt(cfg.tol, d)}\n"
        )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _range_values(raw: str, flag: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise DomainError(f"{flag} range must be start:stop:step, got {raw!r}")
    start, stop, step = (_float(piece, flag) for piece in parts)
    if step <= 0.0:
        raise DomainError(f"{flag} range needs a positive step, got {step!r}")
    if stop < start:
        raise DomainError(f"{flag} range needs stop >= start, got {raw!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def cmd_table(cfg: RunConfig) -> int:
    _require_theorem(cfg)
    if cfg.output_format != "csv":
        raise DomainError("table emits CSV only; drop --format or pass --format csv")
    swept = [flag for flag in _PROFILE_FLAGS if getattr(cfg, flag) is not None and ":" in getattr(cfg, flag)]
    if len(swept) != 1:
        raise DomainError("table needs exactly one flag carrying a start:stop:step range")
    flag = swept[0]
    values = _range_values(getattr(cfg, flag), f"--{flag}")
    is_log = cfg.theorem >= 5
    header = [flag, "rho", "sigma"] + (["w", "r"] if is_log else [])
    rows: list[list[object]] = []
    for value in values:
        point = replace(cfg, **{flag: repr(value)})
        res = _compute_radii(cfg.theorem, _build_profile(point))
        row: list[object] = [value, res.rho, res.sigma]
        if is_log:
            row.extend([res.w, res.r])
        rows.append(row)
    _emit_csv(header, rows, cfg.digits)
    return EXIT_OK


_COMMANDS = {
    "radii": cmd_radii,
    "baseline": cmd_baseline,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "sharpness": cmd_sharpness,
    "table": cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(ns)
        return _COMMANDS[cfg.command](cfg)
    except PolyLandauError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
