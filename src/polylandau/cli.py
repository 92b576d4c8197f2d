"""Command-line front end for the radius computations.

Subcommands:

  radii       compute rho and sigma for one theorem (1..8)
  baseline    evaluate one of the prior-result baselines
  compare     table the order-p modulus theorem against its baseline
  verify      run the oracle suite on the theorem's extremal function
  sharpness   demonstrate univalence failing just past rho (theorems 1, 2, 5, 6)
  table       sweep one parameter over start:stop:step to CSV

Profile flags are interpreted per theorem, which reads those that
``_THEOREM_FLAGS`` lists: --lambda0 is the leading derivative bound,
--lambdas the remaining derivative bounds, --ms the modulus bounds,
--mstars the factor modulus bounds.  Lists are comma-separated;
a single value broadcasts to the expected length.  Exit codes: 0 on
success, 1 when a verification or improvement check fails, 2 on a
usage or domain error.

Every subcommand's flags are described once, as ``Flag`` records in
``_FLAGS``.  ``main`` first scans argv over that table (``_scan``): the
subcommand, then exact option strings, each followed by one value that does
not start with "-" and that the flag's type and choices accept, with every
required flag given.  Any other argv (help, an option prefix, --flag=value,
-p3, a negative number, a stray token, a bad value or a missing required
flag) goes to argparse, which is imported only then: ``_build_parser`` builds
every subcommand's parser from the same table, and argparse writes every help
text and usage error.  The entries of a --config file are converted and
checked through the same table.  Each record also holds its flag's fallback
default and its bounds, which ``_resolve_config`` applies: a flag's value comes
from argv, else the config file, else the default, and an out-of-bounds value is
an error that names where it came from.

Each subcommand builds its output once in all three forms, a JSON document,
CSV rows and text lines, and ``_emit`` writes the one --format asks for; it is
the only writer to stdout outside argparse.

``verify`` raises glibc's mmap and trim thresholds for its own process, so that each pass reuses the heap pages
the one before it freed; the library functions leave malloc alone, and any other C library is left as it is.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import sys
from cmath import exp as cexp
from collections import namedtuple
from collections.abc import Iterable
from itertools import chain
from types import SimpleNamespace

from . import extremal, polyfunc, verify  # lazy modules (_lazy): a solver command never executes them
from .errors import DomainError, PolyLandauError
from .radii import (
    DerivAll,
    DerivNormalized,
    MixedDerivModulus,
    ModulusAll,
    Profile,
    RadiiResult,
    _Sweep,
    bianalytic_bounded_baseline,
    bianalytic_deriv_baseline,
    classical_landau,
    log_bound_from_modulus,
    log_variant,
    poly_modulus_baseline,
    radii,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: Most rows one table may have; a longer range is rejected before any row is built.
MAX_TABLE_ROWS = 10**6
#: Most nodes of a verify --grid, and most --boundary-samples: verify's arrays grow with each, and the
#: boundary crossing scan with about m log m for m boundary samples.
MAX_GRID_NODES = 2**20
MAX_BOUNDARY_SAMPLES = 2**16
#: Most --digits: no double has more significant digits, so every float prints exactly at this many.
MAX_DIGITS = 767
#: Most components of a profile or a baseline, -p and each --orders value.  verify evaluates every component at
#: every grid node, so its time grows with the order: a default verify at this cap, `--theorem 3 -p 1000 --ms 2`
#: or `--theorem 4 -p 1000 --lambda0 2 --ms 2`, takes 0.19-0.23 s per in-process call after the first on a
#: 2-CPU Intel Xeon shared with other work, while -p 10**9 kept the poly-modulus baseline summing past a 5-s
#: timeout.
MAX_ORDER = 1000

_PROFILE_FLAGS = ("lambda0", "lambdas", "ms", "mstars")

# the profile flags each theorem reads: --lambda0 where it has a derivative lead, then its list flag
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


_TYPE_WORDS = {int: "an integer", float: "a number"}


class Flag(namedtuple("Flag", "options dest type choices default required help bounds",
                      defaults=(None, None, None, False, None, ()))):
    """One flag of a subcommand: ``argparse``'s ``add_argument`` terms, its fallback default and its bounds.

    ``type`` is int or float, or None to keep the string.  argparse never sees ``default``: it is the value
    a run takes when neither argv nor a config entry gives one.  Each bound is a (test, words) pair:
    test(value) is false when the merged value is out of bounds, and words ("must be at least 8") say what
    the value must be.
    """

    __slots__ = ()

    def convert(self, raw: str):
        """raw as argparse stores it; a ValueError says what the flag expects when its type or choices refuse raw."""
        try:
            value = raw if self.type is None else self.type(raw)
        except ValueError:
            raise ValueError(f"expects {_TYPE_WORDS[self.type]}") from None
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"must be one of {', '.join(map(str, self.choices))}")
        return value


def _at_most(cap: int) -> tuple:
    return lambda n: n <= cap, f"must be at most {cap}"


_NONNEGATIVE_INT = ((lambda n: n >= 0, "must be a nonnegative integer"),)
_FORMAT = Flag(("--format",), "format", choices=("json", "csv", "text"), default="text")
# every subcommand ends with --format and these
_COMMON = (
    Flag(("--digits",), "digits", int, default=12, bounds=(*_NONNEGATIVE_INT, _at_most(MAX_DIGITS)),
         help="significant digits in printed floats (default 12)"),
    Flag(("--config",), "config", help="key=value file; flags override its entries"),
)

# --theorem is not required: a config file may supply it
_PROFILE = (
    Flag(("--theorem",), "theorem", int, choices=range(1, 9)),
    Flag(("-p", "--order"), "order", int,
         bounds=((lambda n: n >= 1, "must be a positive integer"), _at_most(MAX_ORDER)), help="number of components"),
    Flag(("--lambda0",), "lambda0", help="leading derivative bound (> 1)"),
    Flag(("--lambdas",), "lambdas", help="comma-separated derivative bounds"),
    Flag(("--ms",), "ms", help="comma-separated modulus bounds (>= 1)"),
    Flag(("--mstars",), "mstars", help="comma-separated factor modulus bounds (> 1)"),
)

# every subcommand's flags, in the order its --help lists them; --grid's bounds are in _grid
_FLAGS: dict[str, tuple[Flag, ...]] = {
    "radii": (*_PROFILE, _FORMAT, *_COMMON),
    "baseline": (
        Flag(("--name",), "name", choices=_BASELINES, required=True),
        Flag(("--m",), "m", help="modulus bound M > 1"),
        Flag(("--lambda0",), "lambda0", help="derivative bound above 1"),
        Flag(("--lambda1",), "lambda1", help="companion derivative bound >= 0"),
        Flag(("-p", "--order"), "order", int, bounds=(_at_most(MAX_ORDER),)),
        _FORMAT,
        *_COMMON,
    ),
    "compare": (
        Flag(("--ms",), "ms", default="1.2,2,5", help="comma-separated M values (default 1.2,2,5)"),
        Flag(("--orders",), "orders", default="2,3,5", help="comma-separated p values (default 2,3,5)"),
        _FORMAT,
        *_COMMON,
    ),
    "verify": (
        *_PROFILE,
        Flag(("--seed",), "seed", int, default=0, bounds=_NONNEGATIVE_INT,
             help="echoed in the output; affects no check (default 0)"),
        Flag(("--grid",), "grid", default="32x64", help="polar grid as RADIALxANGULAR (default 32x64)"),
        Flag(("--margin",), "margin", float, default=1e-9,
             bounds=((lambda x: x >= 0.0, "must be a nonnegative number"),), help="grid check margin (default 1e-9)"),
        Flag(("--boundary-samples",), "boundary_samples", int, default=512,
             bounds=((lambda n: n >= 8, "must be at least 8"), _at_most(MAX_BOUNDARY_SAMPLES))),
        _FORMAT,
        *_COMMON,
    ),
    "sharpness": (
        *_PROFILE,
        Flag(("-r", "--radius"), "radius", float, default=1.0, help="window edge past rho (default 1)"),
        Flag(("--tol",), "tol", float, default=1e-10, bounds=((lambda x: x > 0.0, "must be a positive number"),),
             help="pass gate on the collision residual of theorems 1 and 5 (default 1e-10)"),
        _FORMAT,
        *_COMMON,
    ),
    "table": (*_PROFILE, _FORMAT._replace(default="csv"), *_COMMON),
}
_OPTIONS = {name: {option: f for f in flags for option in f.options} for name, flags in _FLAGS.items()}
# config file key -> flag: any subcommand's dest (flags of one dest share type and choices)
_CONFIG_KEYS = {f.dest: f for flags in _FLAGS.values() for f in flags if f.dest != "config"}


def _scan(argv: list[str]) -> dict[str, object] | None:
    """argv parsed as argparse would parse it, as dest -> value, or None to leave argv to argparse.

    Takes only the plainest argv: a subcommand, then exact option strings, each
    followed by one value that does not start with "-" and that the flag's type
    and choices accept, with every required flag given; a repeated flag keeps its
    last value.  The flags not given read None, as argparse leaves them.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None or len(argv) % 2 == 0:
        return None
    options = _OPTIONS[argv[0]]
    given: dict[str, object] = {}
    for option, raw in zip(argv[1::2], argv[2::2]):
        flag = options.get(option)
        if flag is None or raw.startswith("-"):
            return None
        try:
            given[flag.dest] = flag.convert(raw)
        except ValueError:
            return None
    if any(f.required and f.dest not in given for f in flags):
        return None
    return {"command": argv[0], **dict.fromkeys(f.dest for f in flags), **given}


def _build_parser():
    """The argparse parser of every subcommand, imported and built only for the argvs that ``_scan`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="polylandau",
        description="Univalence and schlicht-disk radii for poly-analytic and log-analytic-product functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for f in _FLAGS[name]:
            p.add_argument(*f.options, dest=f.dest, type=f.type, choices=f.choices, required=f.required, help=f.help)
    return parser


def _read_config_file(path: str) -> dict[str, tuple[object, str]]:
    """The file's entries by dest, each converted as its flag's value is, with the file, line and key it came from."""
    lines: list[tuple[int, str, str]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, raw = line.partition("=")
                lines.append((lineno, key.strip(), raw.strip()))
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    unknown = {key for _, key, _ in lines} - set(_CONFIG_KEYS)
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(sorted(unknown))}")
    entries: dict[str, tuple[object, str]] = {}
    for lineno, key, raw in lines:
        flag, where = _CONFIG_KEYS[key], f"{path}:{lineno}: {key}"
        try:
            entries[flag.dest] = flag.convert(raw), where
        except ValueError as exc:
            raise DomainError(f"{where} {exc}, got {raw!r}") from None
    return entries


def _grid(raw: str, source: str) -> tuple[int, int]:
    """--grid's RADIALxANGULAR as its two counts, each at least 8, with at most MAX_GRID_NODES nodes."""
    radial, _, angular = raw.partition("x")
    try:
        counts = int(radial), int(angular)
    except ValueError:
        raise DomainError(f"{source} expects RADIALxANGULAR, got {raw!r}") from None
    grid = f"{counts[0]}x{counts[1]}"
    if min(counts) < 8:
        raise DomainError(f"{source} needs at least 8 radial and 8 angular samples, got {grid}")
    if counts[0] * counts[1] > MAX_GRID_NODES:
        raise DomainError(f"{source} must have at most {MAX_GRID_NODES} nodes, got {grid}")
    return counts


def _resolve_config(flags: dict[str, object]) -> SimpleNamespace:
    """The run's parameters: each of the command's flags from argv (None where not given), else the config
    file, else its default, checked against its bounds.

    An error names where its value came from: the option, or the file, line and key.
    """
    command = flags["command"]
    entries = _read_config_file(flags["config"]) if flags.get("config") else {}
    values: dict[str, object] = {"command": command}
    for f in _FLAGS[command]:
        value, source = flags.get(f.dest), f.options[-1]
        if value is None:
            value, source = entries.get(f.dest, (f.default, source))
        for test, words in f.bounds:
            if value is not None and not test(value):
                raise DomainError(f"{source} {words}, got {value!r}")
        if f.dest == "grid":
            values["radial_count"], values["angular_count"] = _grid(value, source)
        values[f.dest] = value
    return SimpleNamespace(**values)


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


def _require_theorem(cfg: SimpleNamespace) -> int:
    if cfg.theorem is None:
        raise DomainError("--theorem is required")
    return cfg.theorem


def _read_profile(cfg: SimpleNamespace, swept: str | None = None) -> tuple[float | None, tuple[float, ...]]:
    """cfg's profile flags as floats: the lead bound (None where the theorem has none) and the other bounds.

    Runs every check on the flags as written (theorem, foreign or missing flags,
    numbers, order, list length) and broadcasts the list flag to the order.  A
    table's swept flag counts as one value, read as NaN, which each row replaces.
    """
    t = _require_theorem(cfg)
    allowed = _THEOREM_FLAGS[t]
    for other in _PROFILE_FLAGS:
        if getattr(cfg, other) is not None and other not in allowed:
            wanted = " and ".join(f"--{name}" for name in allowed)
            raise DomainError(f"theorem {t} is parameterized by {wanted}; --{other} does not apply")

    lead = "lambda0" in allowed
    lam0 = None
    if lead:
        if cfg.lambda0 is None:
            raise DomainError(f"theorem {t} needs --lambda0, the leading derivative bound above 1")
        lam0 = math.nan if swept == "lambda0" else _float(cfg.lambda0, "--lambda0")

    name = allowed[-1]  # the list flag: derivative bounds (lambdas) or modulus bounds (ms, mstars)
    modulus = name != "lambdas"
    flag, raw = f"--{name}", getattr(cfg, name)
    if raw is None and modulus:
        what = {3: "the component modulus bounds", 7: "the factor modulus bounds above 1"}
        raise DomainError(f"theorem {t} needs {flag}, {what.get(t, 'the bounds on components 1..p-1')}")
    listed = None if raw is None else [math.nan] if name == swept else _float_list(raw, flag)
    offset = 0 if modulus and not lead else 1  # the list bounds every component, or all but the leading one
    p = cfg.order if cfg.order is not None else 1 if listed is None else len(listed) + offset
    if p > MAX_ORDER:  # -p's own bound has held, so the list set the order
        raise DomainError(f"{flag} must have at most {MAX_ORDER - offset} values, got {len(listed)}")
    if p < 2 and lead and modulus:
        raise DomainError(f"theorem {t} needs at least two components, got order {p}")
    if p == 1 and listed and not modulus:
        raise DomainError(f"theorem {t} with one component takes no {flag}")
    if p > 1 and listed is None:
        raise DomainError(f"theorem {t} with {p} components needs {flag} ({p - 1} values)")
    return lam0, () if listed is None else _broadcast(listed, p - offset, flag)


def _build_profile(theorem: int, lam0: float | None, bounds: tuple[float, ...]) -> Profile:
    """The theorem's profile from ``_read_profile``'s floats; factor bounds m* (theorems 7, 8) become log bounds."""
    if theorem > 6:
        bounds = tuple(log_bound_from_modulus(v) for v in bounds)
    make = (DerivAll, DerivNormalized, ModulusAll, MixedDerivModulus)[(theorem - 1) % 4]
    return make(bounds) if lam0 is None else make(lam0, bounds)


def _compute_radii(theorem: int, profile: Profile, guess: tuple[float, float] | None = None) -> RadiiResult:
    res = radii(profile, _guess=guess)
    return log_variant(res) if theorem >= 5 else res


def _q(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}")  # inf, -inf and nan print as names that float reads back


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
    kind = type(value)
    raise TypeError(f"no JSON form for a {kind.__module__}.{kind.__qualname__}")


def _cell(value, digits: int) -> str:
    """value as a CSV or text cell: a float to digits significant digits, a bool as in JSON."""
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value).lower() if isinstance(value, bool) else str(value)


def _emit(cfg: SimpleNamespace, doc: dict | None, rows: list[list[object]], lines: Iterable[str] | None) -> None:
    """Write the output --format asks for: doc as JSON, rows (header first) as CSV, or lines as text.

    Floats print to --digits significant digits, rounded the same way in all three forms.
    """
    if cfg.format == "json":
        sys.stdout.write(json.dumps(_jsonable(doc, cfg.digits), indent=2) + "\n")
    elif cfg.format == "csv":
        digits, spec = cfg.digits, f".{cfg.digits}g"  # _cell's float format, built once for every cell
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [format(v, spec) if type(v) is float else _cell(v, digits) for v in row] for row in rows
        )
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))


def cmd_radii(cfg: SimpleNamespace) -> int:
    res = _compute_radii(cfg.theorem, _build_profile(cfg.theorem, *_read_profile(cfg)))
    # w and r are None for theorems 1-4: left out of the document and the text, empty in the CSV row
    fields = {"theorem": res.theorem, "rho": res.rho, "sigma": res.sigma, "w": res.w, "r": res.r,
              "residual": res.residual, "iterations": res.iterations, "flags": res.flags}
    doc = {key: value for key, value in fields.items() if value is not None}
    row = {**fields, "flags": ";".join(res.flags)}
    lines = [f"theorem {res.theorem}"]
    lines += [f"{key} = {_cell(value, cfg.digits)}" for key, value in doc.items() if key not in ("theorem", "flags")]
    if res.flags:
        lines.append("flags: " + ", ".join(res.flags))
    _emit(cfg, doc, [list(row), ["" if v is None else v for v in row.values()]], lines)
    return EXIT_OK


def cmd_baseline(cfg: SimpleNamespace) -> int:
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
    else:  # poly-modulus, the last of --name's choices
        if cfg.m is None or cfg.order is None:
            raise DomainError("baseline poly-modulus needs --m (> 1) and -p")
        rho, sigma = poly_modulus_baseline(_float(cfg.m, "--m"), cfg.order)
    doc = {"name": cfg.name, "rho": rho, "sigma": sigma}
    lines = [f"baseline {cfg.name}", f"rho = {_cell(rho, cfg.digits)}", f"sigma = {_cell(sigma, cfg.digits)}"]
    _emit(cfg, doc, [list(doc), list(doc.values())], lines)
    return EXIT_OK


def cmd_compare(cfg: SimpleNamespace) -> int:
    ms = _float_list(cfg.ms, "--ms")
    if not all(1.0 < m < math.inf for m in ms):  # false on nan
        raise DomainError(f"--ms expects modulus bounds above 1, got {cfg.ms!r}")
    if any(m * m == math.inf for m in ms):  # the baseline and the radii need M**2
        raise DomainError(f"--ms is too large: M**2 overflows a float, got {cfg.ms!r}")
    raw_orders = _float_list(cfg.orders, "--orders")
    if any(not v.is_integer() or v < 1 for v in raw_orders):  # is_integer is false on inf and nan
        raise DomainError(f"--orders expects positive integers, got {cfg.orders!r}")
    if max(raw_orders) > MAX_ORDER:
        raise DomainError(f"--orders must be at most {MAX_ORDER}, got {cfg.orders!r}")
    orders = [int(v) for v in raw_orders]
    rows: list[list[object]] = []
    all_positive = True
    for m in ms:
        for p in orders:
            res = radii(ModulusAll((m,) * p))
            r_base, big_r_base = poly_modulus_baseline(m, p)
            drho = res.rho - r_base
            dsigma = res.sigma - big_r_base
            all_positive = all_positive and drho > 0.0 and dsigma > 0.0
            rows.append([m, p, res.rho, res.sigma, r_base, big_r_base, drho, dsigma])
    header = ["M", "p", "rho3", "sigma3", "rC", "RC", "drho", "dsigma"]
    doc = {"rows": [dict(zip(header, row)) for row in rows], "improved": all_positive}
    width = cfg.digits + 7
    # a generator, so that its 8 cells a row are formatted only when --format text asks for them
    lines = ("".join(_cell(v, cfg.digits).rjust(width) for v in row) for row in [header, *rows])
    _emit(cfg, doc, [header, *rows], lines)
    return EXIT_OK if all_positive else EXIT_CHECK_FAILED


#: glibc's mallopt parameters and the values verify gives them: 32 MiB is glibc's own ceiling for its dynamic
#: mmap threshold on 64-bit and exceeds verify's largest array at both caps, (2**20 + 2 * 2**16) nodes of 16 B,
#: and the trim threshold is twice that, as glibc's dynamic rule sets it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def _keep_heap_pages() -> None:
    """Let this process's malloc keep the heap pages that a verify pass frees, where the C library is glibc.

    Otherwise glibc trims the top of the heap once a pass frees its arrays, and the next pass faults the
    pages in again.  Both thresholds are set, the mmap one first: a fixed trim threshold alone switches off
    glibc's dynamic mmap threshold, so every array above 128 KiB would be mapped and faulted afresh.  Where
    mallopt refuses the first value, glibc's defaults stay.  On any other C library nothing happens.
    """
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", ()):
        return
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except OSError:
        return
    if not (libc or "").startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def cmd_verify(cfg: SimpleNamespace) -> int:
    _keep_heap_pages()  # process-wide, so the CLI sets it and the library functions leave malloc alone
    profile = _build_profile(cfg.theorem, *_read_profile(cfg))
    res = _compute_radii(cfg.theorem, profile)
    grid = verify.GridSpec(cfg.radial_count, cfg.angular_count, cfg.margin)
    witness = extremal.extremal_fn(profile)
    is_log = cfg.theorem >= 5

    reports = [verify.hypothesis_audit(witness, profile, grid)]

    target = witness if not is_log else polyfunc.LogPAnalyticFn(witness)
    # one evaluation of the witness serves the univalence checks at 0.99 rho and the coverage checks at rho
    jet = verify.witness_pass(target, 0.99 * res.rho, grid, cfg.boundary_samples, res.rho)
    reports.append(verify.jacobian_grid_check(jet))
    reports.append(verify.boundary_simple_check(jet))

    s = 0.99 * res.sigma  # sigma >= rho/2 > 0 (radii module docstring)
    image, origin = jet.coverage()
    reports.append(verify.schlicht_coverage_check(image, origin, res.rho, s, cfg.margin))
    if is_log:  # exp F, from the same values of F, covers the disk of radius sinh s about cosh s
        reports.append(verify.schlicht_coverage_check(image, origin, res.rho, s, cfg.margin, log=True))

    passed = all(r.passed for r in reports)
    checks = [
        {
            "name": r.check_name,
            "passed": r.passed,
            "measured_margin": r.measured_margin,
            **({"witness": list(r.witness)} if r.witness is not None else {}),
            "note": r.note,
        }
        for r in reports
    ]
    doc = {"theorem": res.theorem, "seed": cfg.seed, "rho": res.rho, "sigma": res.sigma, "checks": checks,
           "passed": passed}
    header = ["name", "passed", "measured_margin", "note"]
    # a generator, so that a report's line is formatted only when --format text asks for it
    lines = chain((f"{'PASS' if r.passed else 'FAIL'} {r.check_name} (margin = {_cell(r.measured_margin, cfg.digits)}) "
                   f"{r.note}" for r in reports), ["all checks passed" if passed else "some checks FAILED"])
    _emit(cfg, doc, [header, *([check[key] for key in header] for check in checks)], lines)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sharpness(cfg: SimpleNamespace) -> int:
    if _require_theorem(cfg) not in (1, 2, 5, 6):
        raise DomainError("sharpness demonstration applies to theorems 1, 2, 5 and 6 only")
    profile = _build_profile(cfg.theorem, *_read_profile(cfg))
    res = radii(profile)
    witness = extremal.extremal_fn(profile)
    d = cfg.digits
    if cfg.theorem in (1, 5):
        x1, x2 = extremal.collision_pair(witness, res.rho, cfg.radius)
        v1 = witness(x1)
        v2 = witness(x2)
        collision = abs(v1 - v2)
        exp_collision = abs(cexp(v1) - cexp(v2))
        passed = (collision if cfg.theorem == 1 else exp_collision) < cfg.tol
        found = {"x1": x1, "x2": x2, "collision": collision, "exp_collision": exp_collision, "tol": cfg.tol}
        lines = [
            f"x1 = {_cell(x1, d)} (past rho), x2 = {_cell(x2, d)} (inside)",
            f"|F(x1) - F(x2)| = {_cell(collision, d)}",
            f"|exp F(x1) - exp F(x2)| = {_cell(exp_collision, d)}",
            f"{'collision confirmed' if passed else 'collision NOT confirmed'} at tol {_cell(cfg.tol, d)}",
        ]
    else:
        x, jac = extremal.reversal_point(witness, res.rho, cfg.radius)
        # the Jacobian of exp F is |exp F|^2 times F's, so it has J's sign even where |exp F|^2 underflows
        exp_jac = abs(cexp(witness(x))) ** 2 * jac
        passed = jac < 0.0
        found = {"x": x, "jacobian": jac, "exp_jacobian": exp_jac}
        lines = [
            f"x = {_cell(x, d)} (past rho)",
            f"J F(x) = {_cell(jac, d)}",
            f"J exp F(x) = {_cell(exp_jac, d)}",
            f"{'sense reversal confirmed' if passed else 'sense reversal NOT confirmed'}: J < 0 past rho",
        ]
    doc = {"theorem": cfg.theorem, "rho": res.rho, "r": cfg.radius, **found, "passed": passed}
    _emit(cfg, doc, [list(doc), list(doc.values())], [f"theorem {cfg.theorem}: rho = {_cell(res.rho, d)}", *lines])
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _range_values(raw: str, flag: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise DomainError(f"{flag} range must be start:stop:step, got {raw!r}")
    start, stop, step = (_float(piece, flag) for piece in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise DomainError(f"{flag} range needs a finite start, stop and step, got {raw!r}")
    if step <= 0.0:
        raise DomainError(f"{flag} range needs a positive step, got {step!r}")
    if stop < start:
        raise DomainError(f"{flag} range needs stop >= start, got {raw!r}")
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_TABLE_ROWS:  # inf when the quotient overflows
        raise DomainError(f"{flag} range has more than {MAX_TABLE_ROWS} rows, got {raw!r}")
    count = int(math.floor(steps)) + 1
    return [start + i * step for i in range(count)]


def cmd_table(cfg: SimpleNamespace) -> int:
    t = _require_theorem(cfg)
    if cfg.format != "csv":
        raise DomainError("table emits CSV only; drop --format or pass --format csv")
    swept = [flag for flag in _PROFILE_FLAGS if getattr(cfg, flag) is not None and ":" in getattr(cfg, flag)]
    if len(swept) != 1:
        raise DomainError("table needs exactly one flag carrying a start:stop:step range")
    flag = swept[0]
    values = _range_values(getattr(cfg, flag), f"--{flag}")
    lam0, bounds = _read_profile(cfg, swept=flag)
    is_log = t >= 5
    header = [flag, "rho", "sigma"] + (["w", "r"] if is_log else [])
    rows: list[list[object]] = []
    sweep = _Sweep()  # each row's solve starts from the rows before it; no digit changes
    for value in values:
        point = (value, bounds) if flag == "lambda0" else (lam0, (value,) * len(bounds))
        res = _compute_radii(t, _build_profile(t, *point), sweep.guess)
        sweep.solved(res.rho)
        row: list[object] = [value, res.rho, res.sigma]
        if is_log:
            row.extend([res.w, res.r])
        rows.append(row)
    _emit(cfg, None, [header, *rows], None)  # --format is csv here
    return EXIT_OK


# subcommand -> (help text, runs it), in the order --help lists them
_SUBCOMMANDS = {
    "radii": ("compute rho and sigma for one theorem", cmd_radii),
    "baseline": ("evaluate a prior-result baseline", cmd_baseline),
    "compare": ("order-p modulus theorem vs its baseline", cmd_compare),
    "verify": ("run the oracle suite on the theorem's extremal", cmd_verify),
    "sharpness": ("exhibit univalence failing just past rho", cmd_sharpness),
    "table": ("sweep one parameter to CSV", cmd_table),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    flags = _scan(argv)
    if flags is None:  # help, usage errors and the spellings the scan does not take
        try:
            flags = vars(_build_parser().parse_args(argv))
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        cfg = _resolve_config(flags)
        _, run = _SUBCOMMANDS[cfg.command]
        return run(cfg)
    except (PolyLandauError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
