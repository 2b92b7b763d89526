"""Run one workload in this (fresh) interpreter and write its raw results.

Started by run.py, never by hand.  Sets the workload up, then runs ops
either for a wall-clock budget (timed mode) or for a fixed count (fixed
mode, which traced runs use so that their counts repeat exactly), checks
every op's output, and writes one JSON document with the per-op outcomes.

    python3 perfbench/worker.py --workload W --seed N --mode timed|fixed|setup
        --seconds S --ops K --trace 0|1 --t0 MONOTONIC --work DIR --result PATH
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import re
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs

#: Acceptance 6 allows 1e-4 on both mass components of the README instance,
#: whose larger mass is 4: 2.5e-5 of it.  Cone instances carry masses from
#: about 0.1 to 100, so each is held to 2.5e-5 of its own larger mass, which
#: is exactly acceptance 6 on the README instance.
MASS_RTOL = 2.5e-5
#: Acceptance 7: level-line drift of the march <= 1e-8 * t*.
DRIFT_RTOL = 1e-8
CSV_HEADER = "x,R1,R2,u1,u2,zone"
#: The timeline's ordering gate (ROADMAP item 2) raises UnexpectedOrdering,
#: which the CLI reports on stderr with exit code 3.
GATE = re.compile(r"UnexpectedOrdering: (.*)")
#: Host-speed calibration.  A fixed kernel is timed every CAL_PERIOD_S; an
#: op's speed factor is the median kernel time within CAL_WINDOW_S of the
#: op's start over CAL_REF_S (the kernel's time on a quiet reference host),
#: and run.py divides op and set-up times by it.  On a shared host the
#: kernel's time swings between about 1.1x and 2x of CAL_REF_S, and its
#: samples decorrelate within 0.2-0.5 s, so the window is that short; a
#: wider one (1.5 s) left the rarest, slowest ops' times about twice as
#: spread.  perfbench/baseline.json holds the divided and raw figures.
CAL_REF_S = 4.5e-3
CAL_PERIOD_S = 0.1
CAL_WINDOW_S = 0.3


def calibrate():
    """Time of a fixed kernel shaped like the solver's hot paths.

    An interpreter loop, arithmetic on numpy scalars (the per-point
    hodograph calls), short-array numpy calls (the FV step), passes over a
    1 MiB array, and float formatting into a dict (the CSV writers).  Each
    part alone tracks some ops' slowdown on a busy host too weakly or too
    strongly, so the kernel mixes them.
    The collector is off while it runs, so that its time does not depend on
    the size of the solver's live heap.
    """
    gc.disable()
    start = perf_counter()
    acc = 0.0
    for i in range(5000):
        acc += i * 0.5
    x, y = np.float64(1.5), np.float64(0.3)
    for _ in range(1000):
        x = (x * y + 2.0 * x - y**3) / (x - y) ** 2 + 1.0
    a = np.arange(256.0)
    for _ in range(50):
        a = np.sqrt(a * a + 1.0) - 0.5
    b = np.arange(131072.0)
    for _ in range(4):
        b = np.sqrt(b * b + 1.0) - 0.5
    acc += len({f"{i * 0.37!r},{i * 0.74!r},z": i for i in range(1500)})
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def speed_factors(starts, cal_at, cal):
    """Per-op host speed: median kernel time within CAL_WINDOW_S, over CAL_REF_S."""
    cal_at, cal = np.asarray(cal_at), np.asarray(cal)
    lo = np.searchsorted(cal_at, np.asarray(starts) - CAL_WINDOW_S)
    hi = np.searchsorted(cal_at, np.asarray(starts) + CAL_WINDOW_S)
    return [float(np.median(cal[a:max(b, a + 1)])) / CAL_REF_S for a, b in zip(lo, hi)]


class Outcome:
    """One op: its duration, 'ok' / 'rejected' / 'failed', and why."""

    __slots__ = ("dur", "status", "reason", "bytes")

    def __init__(self, dur, status="ok", reason=None, nbytes=0):
        self.dur = dur
        self.status = status
        self.reason = reason
        self.bytes = nbytes


def gate_reason(message):
    """Short reason of an UnexpectedOrdering message: the violated event
    order when there is one, else the message's first words."""
    order = re.match(r"event order (.+?) violated", message)
    return f"UnexpectedOrdering({order.group(1) if order else ' '.join(message.split()[:6])})"


def check_profile(header, prof, mass):
    """Reason the profile fails its checks, or None.

    prof is a zesolver Profile, or None when the samples were not ordered
    by x (see csv_profile).
    """
    if header != CSV_HEADER:
        return "check:csv_header"
    if prof is None:
        return "check:x_order"
    m1, m2 = prof.mass()
    tol = MASS_RTOL * max(abs(mass[0]), abs(mass[1]))
    if abs(m1 - mass[0]) > tol or abs(m2 - mass[1]) > tol:
        return "check:mass"
    return None


def read_csv(path):
    """(header, (x, R1, R2, u1, u2) columns, zone labels) of a profile CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in fh]
    cols = np.array([r[:5] for r in rows], dtype=float).reshape(-1, 5)
    return header, cols.T, [r[5] for r in rows]


def csv_profile(t, cols, zone):
    """The zesolver Profile of CSV columns, or None if they are out of x order."""
    from zesolver import Profile
    from zesolver.errors import PhaseGap

    try:
        return Profile(t, *cols, zone)
    except PhaseGap:
        return None


class CliWorkload:
    """Ops that are one in-process zesolver CLI call on a generated config."""

    def __init__(self, data, work):
        self.data = data
        self.work = work
        self.ops = data["ops"]
        from zesolver import cli

        self.cli = cli

    def op(self, i):
        spec = self.ops[i % len(self.ops)]
        out = self.work / "out"
        cfg = self.work / "op.ini"
        cfg.write_text(self.config(spec), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                rc = self.cli.main(
                    [self.command, "--config", str(cfg), "--out", str(out)]
                    + self.argv(spec)
                )
            except Exception as e:  # an op that raises is a failed op, not a crash
                rc, exc = None, e
            dur = perf_counter() - start
        if exc is not None:
            outcome = Outcome(dur, "failed", f"raised:{type(exc).__name__}")
        elif rc != 0:
            err = stderr.getvalue()
            gate = GATE.search(err)
            if gate:
                outcome = Outcome(dur, "rejected", gate_reason(gate.group(1)))
            else:
                name = re.search(r"error: (\w+):", err)
                outcome = Outcome(dur, "failed", f"exit{rc}:{name.group(1) if name else 'error'}")
        else:
            reason = self.check(spec, out, stdout.getvalue())
            outcome = Outcome(dur, "failed" if reason else "ok", reason)
        if out.exists():
            outcome.bytes = sum(f.stat().st_size for f in out.iterdir())
            shutil.rmtree(out)
        return outcome


def mixture_ini(p):
    return "[mixture]\n" + "".join(f"{k} = {v!r}\n" for k, v in p.items())


class ScenarioSweep(CliWorkload):
    """Cold `profile` calls: fresh solver, two 4096-sample profiles, CSV + SVG."""

    command = "profile"

    def config(self, spec):
        return mixture_ini(spec["params"])

    def argv(self, spec):
        return ["--times", ",".join(repr(t) for t in spec["times"]),
                "--samples", str(self.data["samples"])]

    def check(self, spec, out, stdout):
        for t in spec["times"]:
            path = out / f"profile_t{t:.6f}.csv"
            if not path.exists() or not path.with_suffix(".svg").exists():
                return "check:missing_output"
            header, cols, zone = read_csv(path)
            reason = check_profile(header, csv_profile(t, cols, zone), spec["mass"])
            if reason:
                return reason
        return None


class GeneralMarch(CliWorkload):
    """`general` calls on the two-plateau data of cone instances."""

    command = "general"

    def config(self, spec):
        p = spec["params"]
        return mixture_ini(p) + (
            "[general]\n"
            f"breakpoints = {p['x1']!r}, {p['x2']!r}\n"
            f"r1_values = {p['mu1']!r}, {p['q1']!r}, {p['mu1']!r}\n"
            f"r2_values = {p['mu2']!r}, {p['q2']!r}, {p['mu2']!r}\n"
            f"domain = {spec['domain'][0]!r}, {spec['domain'][1]!r}\n"
            f"window = {spec['window'][0]!r}, {spec['window'][1]!r}\n"
        )

    def argv(self, spec):
        return ["--times", repr(spec["t"])]

    def check(self, spec, out, stdout):
        drift = re.search(r"max drift ([-+0-9.eE]+|nan|inf)\)", stdout)
        if drift is None:
            return "check:missing_output"
        if not float(drift.group(1)) <= DRIFT_RTOL * spec["t"]:
            return "check:level_drift"
        path = out / f"general_t{spec['t']:.6f}.csv"
        header, (x, *_), _ = read_csv(path)
        if header != CSV_HEADER:
            return "check:csv_header"
        if np.any(np.diff(x) < 0):
            return "check:x_order"
        return None


class FvCompare(CliWorkload):
    """`compare` calls on the README instance with grids N and 2N."""

    command = "compare"

    def config(self, spec):
        fv = self.data["fv"]
        return mixture_ini(self.data["params"]) + "[fv]\n" + "".join(
            f"{k} = {v!r}\n" for k, v in fv.items()
        )

    def argv(self, spec):
        return ["--times", repr(spec["t"]),
                "--cells", ",".join(str(n) for n in spec["cells"])]

    def check(self, spec, out, stdout):
        """Acceptance 8: the L1 error falls from N to 2N for both components."""
        path = out / "errors.json"
        if not path.exists():
            return "check:missing_output"
        coarse, fine = json.loads(path.read_text())[f"{spec['t']:.6f}"]
        if not (fine["l1_u1"] < coarse["l1_u1"] and fine["l1_u2"] < coarse["l1_u2"]):
            return "check:l1_not_falling"
        return None


class ProfileFrames:
    """Warm library calls: one solver, many profile_at(t, n) frames."""

    def __init__(self, data, work):
        from zesolver import MixtureParams, ScenarioSolver
        from zesolver.errors import UnexpectedOrdering

        self.gate = UnexpectedOrdering
        self.data = data
        self.times = data["times"]
        self.solver = ScenarioSolver(MixtureParams(**data["params"]))
        # Declared warm-up: both shock trajectories cover every frame time.
        t_max = data["t_max"] * 1.01
        self.solver.shock_boundary(1, t_max)
        self.solver.shock_boundary(2, t_max)

    def op(self, i):
        t = self.times[i % len(self.times)]
        start = perf_counter()
        try:
            prof = self.solver.profile_at(t, n=self.data["samples"])
        except self.gate as e:
            return Outcome(perf_counter() - start, "rejected", gate_reason(str(e)))
        except Exception as e:  # an op that raises is a failed op, not a crash
            return Outcome(perf_counter() - start, "failed", f"raised:{type(e).__name__}")
        dur = perf_counter() - start
        reason = check_profile(next(prof.csv_rows()), prof, self.data["mass"])
        return Outcome(dur, "failed" if reason else "ok", reason)


WORKLOADS = {
    "scenario_sweep": ScenarioSweep,
    "profile_frames": ProfileFrames,
    "general_march": GeneralMarch,
    "fv_compare": FvCompare,
}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "fixed", "setup"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    data = inputs.GENERATORS[args.workload](args.seed)
    workload = WORKLOADS[args.workload](data, args.work)
    setup_s = time.monotonic() - args.t0
    setup_speed = sorted(calibrate() for _ in range(11))[5] / CAL_REF_S
    result = {"setup_s": setup_s, "setup_speed": setup_speed, "ops": []}
    if args.mode != "setup":
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        outcomes, starts, cal_at, cal = [], [], [], []
        loop_start = time.monotonic()
        i = 0
        while (i < args.ops if args.mode == "fixed"
               else time.monotonic() - loop_start < args.seconds):
            now = time.monotonic()
            if not cal_at or now - cal_at[-1] >= CAL_PERIOD_S:
                cal.append(calibrate())
                cal_at.append(now)
            if tracer is not None:
                tracer.op_id = i
            starts.append(time.monotonic())
            outcomes.append(workload.op(i))
            i += 1
        # One more sample so that the last ops have calibrations after them.
        cal.append(calibrate())
        cal_at.append(time.monotonic())
        result["ops"] = [
            [o.dur, o.status, o.reason, o.bytes, f]
            for o, f in zip(outcomes, speed_factors(starts, cal_at, cal))
        ]
        # The calibration record, so that each op's factor can be re-derived.
        result["op_starts"] = [t - loop_start for t in starts]
        result["calibration"] = [[t - loop_start, c] for t, c in zip(cal_at, cal)]
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            spans = args.result.with_suffix(".spans.jsonl")
            tracer.write_spans(spans)
            result["spans"] = str(spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
