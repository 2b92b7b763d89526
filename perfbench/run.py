"""Benchmark of zesolver: four seeded workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload
    python3 perfbench/run.py --selftest --seed N          # exact-count check

Workloads (see BENCHMARK.json for why each exists):
  scenario_sweep  cold `profile` CLI calls on cone instances, 2 x 4096 samples
  profile_frames  warm ScenarioSolver.profile_at(t, n=1024) on the README case
  general_march   `general` CLI calls on two-plateau data of cone instances
  fv_compare      `compare` CLI calls on the README case, grids N and 2N

Each workload runs in a fresh interpreter (worker.py) with the
OpenMP/OpenBLAS/MKL thread counts set to 1 and the solver imported from
./src.  CLI outputs go to a temporary directory under ./.perfbench, which
is removed afterwards; result files and span traces stay there.

--trace 0 runs ops for --seconds and reports the end-to-end metrics:
setup_s (median of SETUP_REPEATS fresh set-ups, from process launch to the
first timed op), ops_per_s (completed ops over the summed wall time of all
attempted ops), op_p50_ms and op_tail_ms (over completed ops; the tail is the
highest percentile with ten completed ops beyond it), completed_ratio and
peak_rss_mb.  --trace 1 ignores --seconds: it runs a fixed number of ops
(TRACE_OPS) untraced and then traced, so that counts repeat exactly, and
reports the per-layer metrics with the tracing overhead.

End-to-end times are wall times divided by a host speed factor that the
worker measures alongside the ops with a fixed calibration kernel (see
worker.CAL_REF_S), because a shared host's speed drifts by up to 1.5x
within a minute.  A timed run also prints a `raw {...}` line with the
undivided setup_s, ops_per_s, op_p50_ms and op_tail_ms and the speed
factors (per set-up, and quartiles over the ops); baseline.json records
both kinds, so a change can be judged either way.  Per-layer times are raw.

Op outcomes are 'ok', 'failed' (exception, nonzero exit code other than the
gate below, or a failed output check) or 'rejected': the timeline's
partial-order gate refusing a cone instance with UnexpectedOrdering (exit 3).
Rejected ops stay in the input set; they count in fail_ratio, by reason,
and lower completed_ratio, but not in the result's `failed`, which counts
wrong or crashed ops only.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scenario_sweep", "profile_frames", "general_march", "fv_compare")
#: Fresh set-ups per timed run; setup_s is their median.
SETUP_REPEATS = 3
#: Ops per traced run (and per untraced reference run), per workload.
TRACE_OPS = {
    "scenario_sweep": 48,
    "profile_frames": 768,
    "general_march": 24,
    "fv_compare": 24,
}
#: Counts that two traced runs at one seed must reproduce exactly.
SELFTEST_COUNTS = (
    "hodograph.calls", "hodograph.points", "cauchy_general.t_ab.calls",
    "fv_reference.steps", "fv_reference.fv_run.calls", "isochrone.samples",
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Workers of one workload's run are killed once this long has passed.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload, seed, mode, work, result, deadline, seconds=0.0, ops=0,
               trace=0):
    """Run worker.py in a fresh interpreter; return its result document."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
        "--ops", str(ops), "--trace", str(trace), "--work", str(work),
        "--result", str(result),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(result.read_text())


# -- statistics --------------------------------------------------------------------


def op_stats(ops):
    """End-to-end figures and outcome counts from per-op records.

    A record is [seconds, status, reason, bytes written, host speed factor].
    ops_per_s, op_p50_ms and op_tail_ms divide times by the speed factor
    (see worker.CAL_REF_S); their raw_ twins do not.
    """
    attempted = len(ops)
    n = sum(op[1] == "ok" for op in ops)
    failed = sum(op[1] == "failed" for op in ops)
    tail_rank = n - 11 if n > 10 else n - 1
    stats = {
        "attempted": attempted,
        "completed": n,
        "failed": failed,
        "rejected": attempted - n - failed,
        "reasons": dict(Counter(op[2] for op in ops if op[1] != "ok")),
        "tail_pct": 100.0 * (n - 10) / n if n > 10 else 100.0,
        "completed_ratio": n / attempted if attempted else 0.0,
        "fail_ratio": (attempted - n) / attempted if attempted else 0.0,
        "bytes_written": sum(op[3] for op in ops),
        "op_speed": quartiles([op[4] for op in ops]),
    }
    for prefix, scaled in (("", True), ("raw_", False)):
        times = [op[0] / op[4] if scaled else op[0] for op in ops]
        done = sorted(t for t, op in zip(times, ops) if op[1] == "ok")
        stats[prefix + "ops_per_s"] = n / sum(times) if attempted else 0.0
        stats[prefix + "op_p50_ms"] = 1e3 * statistics.median(done) if done else 0.0
        stats[prefix + "op_tail_ms"] = 1e3 * done[tail_rank] if done else 0.0
    return stats


def quartiles(values):
    """[Q1, median, Q3] of values (a single value stands for all three)."""
    if len(values) < 2:
        return list(values) * 3 if values else [1.0] * 3
    return statistics.quantiles(values, n=4)


def raw_figures(stats):
    """Timed-run figures before division by the host speed factor, and the
    factors themselves: one per set-up, and the quartiles over the ops."""
    return {
        "setup_s": statistics.median(stats["raw_setup_samples"]),
        "ops_per_s": stats["raw_ops_per_s"],
        "op_p50_ms": stats["raw_op_p50_ms"],
        "op_tail_ms": stats["raw_op_tail_ms"],
        "setup_speed": stats["setup_speed"],
        "op_speed_quartiles": stats["op_speed"],
    }


def metric_block(names, values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in names}


# -- environment record ----------------------------------------------------------------


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    env = child_env()
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "threads": {k: env[k] for k in THREAD_VARS},
    }


# -- runs ---------------------------------------------------------------------------


def timed_run(workload, seed, seconds, out_dir, tmp):
    deadline = time.monotonic() + RUN_LIMIT_S
    docs = [run_worker(workload, seed, "setup", tmp, tmp / f"setup{k}.json", deadline)
            for k in range(SETUP_REPEATS - 1)]
    doc = run_worker(workload, seed, "timed", tmp, out_dir / f"{workload}-{seed}.json",
                     deadline, seconds=seconds)
    docs.append(doc)
    setups = [d["setup_s"] / d["setup_speed"] for d in docs]
    stats = op_stats(doc["ops"])
    stats["setup_s"] = statistics.median(setups)
    stats["setup_samples"] = setups
    stats["raw_setup_samples"] = [d["setup_s"] for d in docs]
    stats["setup_speed"] = [d["setup_speed"] for d in docs]
    stats["peak_rss_mb"] = doc["peak_rss_mb"]
    return stats


def traced_run(workload, seed, out_dir, tmp, reference=True):
    """Fixed-count traced pass, preceded by the same ops untraced."""
    n = TRACE_OPS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    base = None
    if reference:
        base = op_stats(run_worker(
            workload, seed, "fixed", tmp, tmp / "reference.json", deadline, ops=n
        )["ops"])
    doc = run_worker(workload, seed, "fixed", tmp,
                     out_dir / f"{workload}-{seed}-trace.json", deadline, ops=n, trace=1)
    stats = op_stats(doc["ops"])
    layers = dict(doc["layers"])
    layers["cli.bytes_written"] = stats["bytes_written"]
    layers["fail_ratio"] = stats["fail_ratio"]
    layers["trace.ops_per_s"] = stats["ops_per_s"]
    if base is not None:
        layers["trace.untraced_ops_per_s"] = base["ops_per_s"]
        layers["trace.slowdown"] = (
            base["ops_per_s"] / stats["ops_per_s"] if stats["ops_per_s"] else 0.0
        )
    stats["layers"] = layers
    stats["spans"] = doc["spans"]
    return stats


def report(workload, stats, spec, trace):
    """Human-readable summary lines for one workload."""
    lines = [
        f"== {workload}: {stats['attempted']} attempted, {stats['completed']} completed, "
        f"{stats['rejected']} rejected by the gate, {stats['failed']} failed"
    ]
    if trace:
        for m in spec["per_layer"]:
            lines.append(f"  {m['name']:<34} {stats['layers'][m['name']]:.6g} {m['unit']}")
        lines.append(f"  spans written to {stats['spans']}")
    else:
        for m in spec["end_to_end"]:
            note = ""
            if m["name"] == "op_tail_ms":
                note = f"  (p{stats['tail_pct']:.1f} of {stats['completed']} completed ops)"
            elif m["name"] == "op_p50_ms":
                note = f"  (n={stats['completed']})"
            elif m["name"] == "setup_s":
                note = "  (median of " + ", ".join(f"{s:.3f}" for s in stats["setup_samples"]) + ")"
            lines.append(f"  {m['name']:<16} {stats[m['name']]:.6g} {m['unit']}{note}")
    lines.append(f"  fail_ratio       {stats['fail_ratio']:.4g}  by reason: "
                 f"{json.dumps(stats['reasons'], sort_keys=True)}")
    lines.append(f"  checks: {stats['completed']} passed, {stats['failed']} failed")
    if not trace:
        lines.append("raw " + json.dumps(raw_figures(stats)))
    return lines


def result_line(stats, spec, trace):
    if trace:
        metrics = metric_block(
            [m["name"] for m in spec["per_layer"]], stats["layers"],
            {m["name"]: m["unit"] for m in spec["per_layer"]},
        )
    else:
        metrics = metric_block(
            [m["name"] for m in spec["end_to_end"]], stats,
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
        )
    return {
        "correct": stats["failed"] == 0 and stats["completed"] > 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }


def selftest(workloads, seed, out_dir, tmp):
    ok = True
    for w in workloads:
        first, second = (traced_run(w, seed, out_dir, tmp, reference=False)["layers"]
                         for _ in range(2))
        for name in SELFTEST_COUNTS:
            same = first[name] == second[name]
            ok &= same
            print(f"{w:<15} {name:<28} {first[name]:>14g} {second[name]:>14g} "
                  f"{'same' if same else 'DIFFERENT'}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed length of one run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="two traced runs per workload must give identical counts")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "zesolver" / "__init__.py").is_file():
        print(f"error: no zesolver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out_dir, prefix="tmp-"))
    try:
        if args.selftest:
            return selftest(workloads, args.seed, out_dir, tmp)
        env = dict(environment(), seed=args.seed)
        print("env " + json.dumps(env, sort_keys=True))
        results = {}
        for w in workloads:
            if args.trace:
                stats = traced_run(w, args.seed, out_dir, tmp)
            else:
                stats = timed_run(w, args.seed, seconds, out_dir, tmp)
            print("\n".join(report(w, stats, spec, args.trace)))
            results[w] = result_line(stats, spec, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
