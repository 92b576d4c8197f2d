"""Benchmark of the polylandau CLI: one workload, one seed, one JSON result.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 25 --trace 0

The seed makes a round: a fixed list of CLI calls (see workloads.py).
Each round runs in a fresh op process (child.py) that imports
``polylandau.cli`` once, makes one untimed warm-up call and then times
every call of the round.  Whole rounds repeat, each in a new process,
until --seconds have passed and at least MIN_OPS ops have run, so every
run holds the same mix.  Outputs are checked against the 50-digit mpmath
reference in this process, after the rounds, outside every timed region.

Times are reported at the machine's reference speed: each round's op
times are scaled by the calibration task timed in this process just
before and after the round (see calibration.py).  With --trace 0 the
line before the result holds the unscaled figures and the range of the
round scales.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced rounds, prints the per-layer metrics of the traced ones and
reports the tracing overhead on the line before the result.  The last
line of stdout is always the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from checks import check_op  # noqa: E402
from workloads import SETUP_CHECKS, SETUP_OPS, WORKLOADS  # noqa: E402

MIN_OPS = 100  # op_p90_ms rests on at least this many ops
SETUP_RUNS = 9
IMPORT_RUNS = 5
ROUND_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env.pop("LANDAU_SEED", None)  # every verify op passes --seed
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh_cli(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "polylandau.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    return time.perf_counter() - start, proc


def launch_setup(workload: str, env: dict) -> tuple[float, float, list[str]]:
    """One fresh interpreter running the workload's small op: (raw s, scaled s, problems).

    Scaled by the calibration tasks timed just before it.
    """
    scale = calibration.scale(calibration.samples())
    elapsed, proc = _fresh_cli(SETUP_OPS[workload], env)
    problems = check_op(SETUP_CHECKS[workload], proc.returncode, proc.stdout,
                        proc.stderr if proc.returncode else None)
    return elapsed, elapsed * scale, problems


def _import_times(stderr: str) -> tuple[float, float]:
    """(import polylandau.cli, import numpy) cumulative microseconds from -X importtime."""
    cli_us = numpy_us = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.split("|")
        name = field.strip()
        if not cumulative.strip().isdigit():
            continue
        top_level = len(field) - len(field.lstrip()) == 1
        if top_level and (name == "polylandau" or name.startswith("polylandau.")):
            cli_us += float(cumulative)
        if name == "numpy":
            numpy_us += float(cumulative)
    return cli_us, numpy_us


def measure_imports(workload: str, env: dict) -> tuple[float, float]:
    """Median import costs (ms) in fresh interpreters that run the workload's small op."""
    code = "import sys; from polylandau.cli import main; sys.exit(main(sys.argv[1:]))"
    samples = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code, *SETUP_OPS[workload]], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
        samples.append(_import_times(proc.stderr))
    return (statistics.median(s[0] for s in samples) / 1e3, statistics.median(s[1] for s in samples) / 1e3)


def run_round(ops: list[dict], warmup: list[str], trace: bool, env: dict) -> tuple[list[dict], dict]:
    request = {"warmup": warmup, "ops": [op["argv"] for op in ops], "trace": trace}
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], cwd=ROOT, env=env, input=json.dumps(request),
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != len(ops) + 1:
        raise RuntimeError(f"op process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    records = [json.loads(line) for line in lines]
    return records[:-1], records[-1]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(rounds: list[dict], ops: int) -> dict:
    """Run totals of the traced rounds per op; times scaled like the end-to-end ones."""
    def total(kind: str, layer: str) -> float:
        if kind == "calls" or kind == "work":
            return sum(rnd["summary"]["trace"][kind][layer] for rnd in rounds)
        return sum(rnd["summary"]["trace"][kind][layer] * rnd["scale"] for rnd in rounds)

    ms = 1e3 / ops
    return {
        "cli.self_ms_per_op": (total("self_s", "cli") * ms, "ms"),
        "radii.solve_ms_per_op": (total("incl_s", "radii.solve") * ms, "ms"),
        "radii.solve_calls_per_op": (total("calls", "radii.solve") / ops, "count"),
        "radii.margin_calls_per_op": (total("calls", "radii.margin") / ops, "count"),
        "extremal.build_ms_per_op": (total("incl_s", "extremal.build") * ms, "ms"),
        "extremal.series_terms_per_op": (total("work", "extremal.build") / ops, "count"),
        "series.eval_calls_per_op": (total("calls", "series.eval") / ops, "count"),
        "series.eval_terms_per_op": (total("work", "series.eval") / ops, "count"),
        "series.eval_ms_per_op": (total("incl_s", "series.eval") * ms, "ms"),
        "polyfunc.eval_calls_per_op": (total("calls", "polyfunc.eval") / ops, "count"),
        "polyfunc.eval_self_ms_per_op": (total("self_s", "polyfunc.eval") * ms, "ms"),
        "verify.univalence_grid_ms_per_op": (total("incl_s", "verify.univalence_grid") * ms, "ms"),
        "verify.univalence_grid_self_ms_per_op": (total("self_s", "verify.univalence_grid") * ms, "ms"),
        "verify.pairs_per_op": (total("work", "verify.univalence_grid") / ops, "count"),
        "verify.hypothesis_audit_ms_per_op": (total("incl_s", "verify.hypothesis_audit") * ms, "ms"),
        "verify.coverage_ms_per_op": (total("incl_s", "verify.coverage") * ms, "ms"),
        "verify.monotonicity_ms_per_op": (total("incl_s", "verify.monotonicity") * ms, "ms"),
        "verify.exp_disk_ms_per_op": (total("incl_s", "verify.exp_disk") * ms, "ms"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polylandau" / "cli.py").is_file():
        sys.stderr.write(f"error: no polylandau sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    env = _env()
    ops = WORKLOADS[args.workload](args.seed)
    warmup = SETUP_OPS[args.workload]
    problems: list[str] = []

    launches: list[tuple[float, float, list[str]]] = []
    if args.trace:
        import_cli_ms, import_numpy_ms = measure_imports(args.workload, env)
    else:
        _fresh_cli(warmup, env)  # fills the bytecode cache, which users do not pay on every call

    # the traced run reports no percentile: two traced and two untraced rounds suffice
    min_rounds = 4 if args.trace else math.ceil(MIN_OPS / len(ops))
    rounds: list[dict] = []
    start = time.perf_counter()
    before = calibration.samples()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        records, summary = run_round(ops, warmup, traced, env)
        after = calibration.samples()
        rounds.append({"traced": traced, "records": records, "summary": summary,
                       "scale": calibration.scale(before + after)})
        before = after
        # setup launches spread over the run, so that they see the same machine as the rounds
        while not args.trace and len(launches) < SETUP_RUNS * min(1.0, (time.perf_counter() - start) / args.seconds):
            launches.append(launch_setup(args.workload, env))
    while not args.trace and len(launches) < SETUP_RUNS:
        launches.append(launch_setup(args.workload, env))
    for _, _, launch_problems in launches:
        problems += [f"setup op: {p}" for p in launch_problems]

    # checks, outside every timed region; identical outputs are checked once
    verdicts: dict[tuple, list[str]] = {}
    attempted = failed = 0
    for rnd in rounds:
        for op, rec in zip(ops, rnd["records"]):
            key = (rec["i"], rec["rc"], rec["out"], rec["raised"])
            if key not in verdicts:
                verdicts[key] = check_op(op["check"], rec["rc"], rec["out"], rec["raised"])
                if verdicts[key] and op["expect"] is None:
                    problems.append(f"{' '.join(op['argv'])}: {'; '.join(verdicts[key][:3])}")
                elif not verdicts[key] and op["expect"] is not None:
                    sys.stderr.write(f"note: kept failure {op['expect']} now passes: {' '.join(op['argv'])}\n")
            attempted += 1
            failed += bool(verdicts[key])
    for problem in problems:
        sys.stderr.write(f"FAILED {problem}\n")

    def figures(selected: list[dict], scaled: bool = True) -> tuple[list[float], float]:
        """Op latencies (s) of the selected rounds, and ops per second of op time."""
        latencies = [rec["s"] * (rnd["scale"] if scaled else 1.0) for rnd in selected for rec in rnd["records"]]
        return latencies, len(latencies) / sum(latencies)

    if args.trace:
        traced = [rnd for rnd in rounds if rnd["traced"]]
        _, traced_rate = figures(traced)
        _, plain_rate = figures([rnd for rnd in rounds if not rnd["traced"]])
        print(f"tracing overhead: ops_per_s traced {traced_rate:.4g}, untraced {plain_rate:.4g} "
              f"({100 * (plain_rate / traced_rate - 1):.1f}% more time per op when traced)")
        layer = per_layer_metrics(traced, len(traced) * len(ops))
        layer["import.cli_ms"] = (import_cli_ms, "ms")
        layer["import.numpy_ms"] = (import_numpy_ms, "ms")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(layer.items())}
    else:
        latencies, rate = figures(rounds)
        raw_latencies, raw_rate = figures(rounds, scaled=False)
        rss_mb = statistics.median(rnd["summary"]["maxrss_kb"] for rnd in rounds) / 1024
        raw_setup_s = statistics.median(raw for raw, _, _ in launches)
        metrics = {
            "setup_s": {"value": statistics.median(scaled for _, scaled, _ in launches), "unit": "s"},
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": _percentile(latencies, 90) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(json.dumps({
            "unscaled": {"setup_s": raw_setup_s, "ops_per_s": raw_rate,
                         "op_p50_ms": statistics.median(raw_latencies) * 1e3,
                         "op_p90_ms": _percentile(raw_latencies, 90) * 1e3},
            "round_scales": [min(r["scale"] for r in rounds), max(r["scale"] for r in rounds)],
        }))
    sys.stderr.write(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} ops, "
                     f"{time.perf_counter() - start:.1f} s\n")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
