"""The benchmark's workloads: seeded lists of CLI calls.

A round is a list of ops, each one ``polylandau.cli.main(argv)`` call plus
the parameters the checker needs.  The seed draws the parameter values;
the structure of a round (how many ops of each kind, theorem, order,
grid, truncation degree and table length) is fixed, so the work in a
round barely depends on the seed and the kept failures are the same
share of every run.
"""

from __future__ import annotations

import random

#: Leading derivative bounds L0 whose extremal series has one truncation
#: degree (256, 512, 1024, 2048, 4096 from right to left), measured on
#: the program's tail rule.  Draws stay 0.5% inside each band.
DEGREE_BANDS = (
    (1.001, 1.0102),
    (1.0103, 1.0223),
    (1.0224, 1.0478),
    (1.0479, 1.1024),
    (1.1025, 1.2),
)
DEEP_GRID = "8x16"
DEEP_BOUNDARY_SAMPLES = "64"
#: Radial counts 32..48 of the verify-wide grids (angular = 2 x radial).
WIDE_RADIAL = tuple(32 + round(16 * j / 15) for j in range(16))
#: Table lengths per size stratum on solve-sweep.
TABLE_ROWS = (48, 120, 216)

# The kept failures.  Their inputs never depend on the seed.
D4_OP = {
    "argv": ["verify", "--theorem", "1", "--lambda0", "1.0000001", "--lambdas", "0",
             "--grid", DEEP_GRID, "--boundary-samples", DEEP_BOUNDARY_SAMPLES,
             "--seed", "0", "--digits", "17", "--format", "json"],
    "check": {"kind": "verify", "theorem": 1, "order": 2, "lambda0": 1.0000001, "lambdas": [0.0]},
    "expect": "D4",
}
D1_OPS = (
    {
        "argv": ["radii", "--theorem", "3", "--ms", "1e60", "--digits", "17", "--format", "json"],
        "check": {"kind": "radii", "theorem": 3, "order": 1, "ms": [1e60], "format": "json"},
        "expect": "D1",
    },
    {
        "argv": ["radii", "--theorem", "4", "--lambda0", "2", "--ms", "1e120", "--digits", "17", "--format", "json"],
        "check": {"kind": "radii", "theorem": 4, "order": 2, "lambda0": 2.0, "ms": [1e120], "format": "json"},
        "expect": "D1",
    },
)

_FORMATS = ("json", "csv", "text")


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def _profile(rng: random.Random, theorem: int, order: int, lambda0: float | None = None) -> tuple[list, dict]:
    """Profile flags and checker parameters for one theorem; lambda0 is drawn when not given."""
    base = theorem - 4 if theorem > 4 else theorem
    flags: list[str] = []
    params: dict = {"theorem": theorem, "order": order}
    if base in (1, 4):
        lam0 = rng.uniform(1.05, 6.0) if lambda0 is None else lambda0
        flags += ["--lambda0", repr(lam0)]
        params["lambda0"] = lam0
    if base in (1, 2):
        lambdas = [rng.uniform(0.0, 1.0) if base == 1 else rng.uniform(0.2, 2.0) for _ in range(order - 1)]
        if lambdas:
            flags += ["--lambdas", _csv(lambdas)]
        params["lambdas"] = lambdas
    else:
        count = order if base == 3 else order - 1
        if theorem > 4:
            mstars = [rng.uniform(1.5, 20.0) for _ in range(count)]
            flags += ["--mstars", _csv(mstars)]
            params["mstars"] = mstars
        else:
            ms = [rng.uniform(1.0, 5.0) for _ in range(count)]
            flags += ["--ms", _csv(ms)]
            params["ms"] = ms
    return flags, params


def verify_deep(seed: int) -> list[dict]:
    """verify on theorems 1, 4, 5, 8, orders 1-4, one op per leading-series degree band."""
    rng = random.Random(f"verify-deep/{seed}")
    ops = [D4_OP]
    for theorem in (1, 4, 5, 8):
        for order in range(1 if theorem in (1, 5) else 2, 5):
            for lo, hi in DEGREE_BANDS:
                pad = 0.005 * (hi - lo)
                flags, params = _profile(rng, theorem, order, rng.uniform(lo + pad, hi - pad))
                argv = ["verify", "--theorem", str(theorem), *flags, "--grid", DEEP_GRID,
                        "--boundary-samples", DEEP_BOUNDARY_SAMPLES, "--seed", str(rng.randrange(2**31)),
                        "--digits", "17", "--format", "json"]
                ops.append({"argv": argv, "check": {"kind": "verify", **params}, "expect": None})
    rng.shuffle(ops)
    return ops


def verify_wide(seed: int) -> list[dict]:
    """verify on theorems 2, 3, 6, 7, orders 2-5, on grids of 2048 to 4608 nodes.

    Grid sizes follow a Latin square over (theorem, order), so every
    theorem and every order meets every quarter of the size range.
    """
    rng = random.Random(f"verify-wide/{seed}")
    ops = []
    for t_index, theorem in enumerate((2, 3, 6, 7)):
        for o_index, order in enumerate(range(2, 6)):
            radial = WIDE_RADIAL[4 * ((t_index + o_index) % 4) + o_index]
            flags, params = _profile(rng, theorem, order)
            argv = ["verify", "--theorem", str(theorem), "-p", str(order), *flags,
                    "--grid", f"{radial}x{2 * radial}", "--seed", str(rng.randrange(2**31)),
                    "--digits", "17", "--format", "json"]
            ops.append({"argv": argv, "check": {"kind": "verify", **params}, "expect": None})
    rng.shuffle(ops)
    return ops


# swept flag and its range per theorem on solve-sweep
_SWEEPS = {
    1: ("lambda0", 1.05, 6.0), 2: ("lambdas", 0.2, 3.0), 3: ("ms", 1.01, 20.0), 4: ("lambda0", 1.05, 6.0),
    5: ("lambda0", 1.05, 6.0), 6: ("lambdas", 0.2, 3.0), 7: ("mstars", 1.1, 30.0), 8: ("lambda0", 1.05, 6.0),
}


def _table(rng: random.Random, theorem: int, order: int, rows: int) -> dict:
    flag, lo, hi = _SWEEPS[theorem]
    flags, params = _profile(rng, theorem, order)
    start = rng.uniform(lo, lo + 0.5 * (hi - lo))
    step = rng.uniform(0.3, 1.0) * (hi - start) / rows
    # stop half a step past the last row, so the row count is exact
    sweep = f"{start!r}:{start + (rows - 0.5) * step!r}:{step!r}"
    at = flags.index(f"--{flag}")
    flags[at + 1] = sweep
    params.pop(flag)
    argv = ["table", "--theorem", str(theorem), "-p", str(order), *flags, "--digits", "17"]
    return {"argv": argv, "check": {"kind": "table", "flag": flag, "rows": rows, **params}, "expect": None}


def solve_sweep(seed: int) -> list[dict]:
    """table sweeps on all eight theorems plus radii, compare and baseline calls, and the D1 ops."""
    rng = random.Random(f"solve-sweep/{seed}")
    ops = list(D1_OPS)
    for theorem in range(1, 9):
        low = 1 if theorem in (1, 3, 5, 7) else 2
        for stratum, rows in enumerate(TABLE_ROWS):
            order = low + (theorem + stratum) % (5 - low)
            ops.append(_table(rng, theorem, order, rows))
        order = low + theorem % (5 - low)
        flags, params = _profile(rng, theorem, order)
        fmt = _FORMATS[theorem % 3]
        argv = ["radii", "--theorem", str(theorem), "-p", str(order), *flags, "--digits", "17", "--format", fmt]
        ops.append({"argv": argv, "check": {"kind": "radii", "format": fmt, **params}, "expect": None})
    for fmt in ("json", "csv"):
        ms = [rng.uniform(1.1, 10.0) for _ in range(3)]
        orders = sorted(rng.sample(range(2, 7), 3))
        argv = ["compare", "--ms", _csv(ms), "--orders", ",".join(map(str, orders)), "--digits", "17", "--format", fmt]
        ops.append({"argv": argv, "check": {"kind": "compare", "ms": ms, "orders": orders, "format": fmt}, "expect": None})
    baselines = (
        ("landau", {"m": rng.uniform(1.5, 10.0)}),
        ("bianalytic-deriv", {"lambda0": rng.uniform(1.1, 5.0), "lambda1": rng.uniform(0.0, 2.0)}),
        ("bianalytic-bounded", {"lambda1": rng.uniform(0.6, 3.0)}),
        ("poly-modulus", {"m": rng.uniform(1.5, 10.0), "order": rng.randint(1, 5)}),
    )
    for (name, params), fmt in zip(baselines, ("json", "csv", "text", "json")):
        argv = ["baseline", "--name", name]
        for key, value in params.items():
            argv += ["-p", str(value)] if key == "order" else [f"--{key}", repr(value)]
        argv += ["--digits", "17", "--format", fmt]
        ops.append({"argv": argv, "check": {"kind": "baseline", "name": name, "format": fmt, **params}, "expect": None})
    rng.shuffle(ops)
    return ops


#: One small op of each workload's kind, run in a fresh interpreter for setup_s.
SETUP_OPS = {
    "verify-deep": ["verify", "--theorem", "1", "--lambda0", "2", "--lambdas", "0.5", "--grid", DEEP_GRID,
                    "--boundary-samples", DEEP_BOUNDARY_SAMPLES, "--seed", "0", "--digits", "17", "--format", "json"],
    "verify-wide": ["verify", "--theorem", "2", "--lambdas", "0.75", "--grid", "8x16", "--seed", "0",
                    "--digits", "17", "--format", "json"],
    "solve-sweep": ["radii", "--theorem", "1", "--lambda0", "2", "--lambdas", "1", "--digits", "17", "--format", "json"],
}
SETUP_CHECKS = {
    "verify-deep": {"kind": "verify", "theorem": 1, "order": 2, "lambda0": 2.0, "lambdas": [0.5]},
    "verify-wide": {"kind": "verify", "theorem": 2, "order": 2, "lambdas": [0.75]},
    "solve-sweep": {"kind": "radii", "theorem": 1, "order": 2, "lambda0": 2.0, "lambdas": [1.0], "format": "json"},
}

WORKLOADS = {"verify-deep": verify_deep, "verify-wide": verify_wide, "solve-sweep": solve_sweep}
