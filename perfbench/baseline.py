"""Run every workload once per seed and summarise the end-to-end spread.

    python3 perfbench/baseline.py --seeds 1-10 [--write]

For each workload and end-to-end metric this prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) /
median, next to a third of the metric's bound from BENCHMARK.json.  Runs go
seed by seed, so slow phases of a shared host spread over all workloads.
--write stores the table in perfbench/baseline.json as the recorded
baseline of the current commit, with the same statistics of the figures
before division by the host speed factor ("raw") and each run's speed
factors.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(vals):
    """Median, quartiles and spread (Q3 - Q1) / median of vals, with vals."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = run.WORKLOADS
    seeds = parse_seeds(args.seeds)
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    raw = {w: [] for w in workloads}
    all_correct = True
    for seed in seeds:
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raw[w].append(json.loads(lines[-2].removeprefix("raw ")))
            all_correct &= result["correct"]
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"seed {seed} {w}: correct={result['correct']} " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
            ), flush=True)

    table = {}
    for w in workloads:
        table[w] = {"speed_factors": [
            {k: r[k] for k in ("setup_speed", "op_speed_quartiles")} for r in raw[w]
        ]}
        for m in spec["end_to_end"]:
            row = table[w][m["name"]] = summary(values[w][m["name"]])
            note = ""
            if m["name"] in raw[w][0]:
                row["raw"] = summary([r[m["name"]] for r in raw[w]])
                note = f" raw spread {row['raw']['spread']:.3f}"
            flag = "ok" if row["spread"] < m["bound"] / 3 else "WIDE"
            print(f"{w:<15} {m['name']:<16} median {row['median']:<11.5g} "
                  f"q1 {row['q1']:<11.5g} q3 {row['q3']:<11.5g} spread {row['spread']:.3f} "
                  f"(bound/3 {m['bound'] / 3:.3f}) {flag}{note}")
    print(f"all runs correct: {all_correct}")
    if args.write:
        doc = {
            "environment": run.environment(),
            "seeds": seeds,
            "run_seconds": spec["run_seconds"],
            "workloads": table,
        }
        Path(run.HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
