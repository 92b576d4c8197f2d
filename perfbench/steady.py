"""Steadiness check: two sets of ten benchmark runs of the same code, alternating.

    python3 perfbench/steady.py [--workload verify-deep ...]

Set A uses seeds 1-10 and set B seeds 11-20, every run BENCHMARK.json's
run_seconds long.  Runs alternate A, B, B, A, ... so that drift on the
machine falls on both sets.  For each workload and end-to-end metric it
prints each set's median and quartiles, the spread (Q3 - Q1) / median
against the metric's bound, and the difference of the two medians as a
share of A's.  It exits 1 when a spread or a difference of medians
exceeds its bound, or when the failed share differs between the sets.

The same table is printed for the unscaled times, with "over" where they
exceed a bound.  They show what the calibration removes and are not
gated: they carry the machine's drift, and the program cannot move the
scale, since the calibration is timed in the harness process while no op
process runs.  Results are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEEDS = {"A": range(1, RUNS + 1), "B": range(RUNS + 1, 2 * RUNS + 1)}


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result, unscaled figures) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare(title: str, metrics: list[dict], values, flag: str) -> tuple[dict, bool]:
    """Print one table and whether it keeps every bound; values(set, metric) lists the set's figures."""
    print(f"  {title}")
    print(f"  {'metric':<12} {'bound':>6}  {'A median [Q1, Q3]':>34} {'spread':>7}  "
          f"{'B median [Q1, Q3]':>34} {'spread':>7}  {'|B-A|/A':>8}")
    rows, ok = {}, True
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        a, b = summarize(values("A", name)), summarize(values("B", name))
        diff = abs(b["median"] - a["median"]) / a["median"]
        metric_ok = max(a["spread"], b["spread"], diff) <= bound
        ok = ok and metric_ok
        rows[name] = {"bound": bound, "A": a, "B": b, "median_diff": diff, "ok": metric_ok}
        print(f"  {name:<12} {bound:>6.3f}  {a['median']:>12.5g} [{a['q1']:>9.5g}, {a['q3']:>9.5g}] "
              f"{a['spread']:>7.4f}  {b['median']:>12.5g} [{b['q1']:>9.5g}, {b['q3']:>9.5g}] "
              f"{b['spread']:>7.4f}  {diff:>8.4f}{'' if metric_ok else '  ' + flag}")
    return rows, ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default every workload")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    report: dict = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        results: dict[str, list[tuple[dict, dict]]] = {"A": [], "B": []}
        for i in range(RUNS):
            for name in (("A", "B") if i % 2 == 0 else ("B", "A")):
                seed = SEEDS[name][i]
                results[name].append(one_run(workload, seed, seconds))
                sys.stderr.write(f"{workload} set {name} seed {seed} done\n")
        shares = {name: {r["failed"] / r["attempted"] for r, _ in runs} for name, runs in results.items()}
        correct = all(r["correct"] for runs in results.values() for r, _ in runs)
        same_share = len(shares["A"] | shares["B"]) == 1
        print(f"\n{workload}: failed share A {sorted(shares['A'])} B {sorted(shares['B'])}, all correct: {correct}")
        scaled, scaled_ok = compare("at the reference speed (the reported metrics)", bench["end_to_end"],
                                    lambda s, m: [r["metrics"][m]["value"] for r, _ in results[s]], "FAIL")
        timed = [m for m in bench["end_to_end"] if m["name"] != "peak_rss_mb"]
        unscaled, _ = compare("unscaled, not gated", timed,
                              lambda s, m: [u["unscaled"][m] for _, u in results[s]], "over")
        scales = [x for runs in results.values() for _, u in runs for x in u["round_scales"]]
        print(f"  round scales {min(scales):.3f}-{max(scales):.3f}")
        ok = ok and scaled_ok and same_share and correct
        report["workloads"][workload] = {"scaled": scaled, "unscaled": unscaled, "failed_share_equal": same_share,
                                         "correct": correct, "runs": results}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; results in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
