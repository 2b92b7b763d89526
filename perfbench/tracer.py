"""Spans around calls into zesolver's modules, recorded from outside.

Tracer.install replaces public functions and methods of the solver modules
with timing wrappers; the solver's own files are left untouched.  A module
function is replaced under every name that refers to it, so names imported
elsewhere (cli.general_profile, isochrone.build_timeline, ...) are traced
too.  Spans nest on a stack: a span's self time is its duration minus the
time its child spans cover.

Coarse calls are kept as spans (name, start, end, parent span, op id) and
written out when the run ends.  Hot leaves (hodograph evaluators, t_ab,
invariants helpers) run tens of thousands of times per op, so they only add
to per-name totals and to their parent's child time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

HODOGRAPH = ("t", "x", "t_partials", "x_partials")
INVARIANTS = (
    "validate_params", "lambda_k", "concentrations_from_invariants",
    "u_from_mobilities", "invariants_to_concentrations",
    "concentrations_to_invariants", "rh_residual",
)
SOLVER_METHODS = (
    "profile_at", "z5_profile", "z9_profile", "z10_profile", "rho_star",
    "sigma_star", "phi", "theta", "shock_boundary",
)


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Per-name call counts and times, spans, and the counts named below."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.spans = []
        self.op_id = None
        self._stack = []  # [child_time, span_id] per open call
        self._ids = itertools.count()
        self.counts = defaultdict(float)
        self._grids = set()
        self._last_shock = weakref.WeakKeyDictionary()

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn, record, after=None):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # Unrecorded leaves lend their parent's id to anything below them.
            frame = [0.0, next(ids) if record else parent and parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                stats.calls += 1
                stats.total += dur
                stats.self += dur - frame[0]
                if record:
                    spans.append(
                        (frame[1], name, start, end, parent and parent[1], self.op_id)
                    )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _replace_function(self, modules, name, fn, record, after=None):
        """Swap fn for its wrapper under every module attribute bound to it."""
        wrapper = self._wrap(name, fn, record, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, method, name, record, after=None):
        setattr(cls, method, self._wrap(name, getattr(cls, method), record, after))

    def install(self):
        from zesolver import (
            cauchy_general, cli, fv_reference, hodograph, invariants,
            isochrone, svgplot, wavefield,
        )

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "zesolver"]
        counts = self.counts

        def points(args, result):
            counts["hodograph.points"] += max(_size(args[1]), _size(args[2]))

        for meth in HODOGRAPH:
            self._replace_method(
                hodograph.ImplicitSolution, meth, f"hodograph.{meth}", False, points
            )
        for fname in INVARIANTS:
            self._replace_function(
                modules, f"invariants.{fname}", getattr(invariants, fname), False
            )

        self._replace_function(
            modules, "wavefield.build_timeline", wavefield.build_timeline, True
        )
        self._replace_method(wavefield.Timeline, "zones_at", "wavefield.zones_at", True)

        def samples(args, result):
            counts["isochrone.samples"] += len(result.x)

        def shock(args, result):
            solver, side = args[0], args[1]
            last = self._last_shock.setdefault(solver, {})
            counts["isochrone.shock_hits"] += last.get(side) is result
            last[side] = result

        after = {"profile_at": samples, "shock_boundary": shock}
        for meth in SOLVER_METHODS:
            self._replace_method(
                isochrone.ScenarioSolver, meth, f"isochrone.{meth}", True,
                after.get(meth),
            )

        def march(args, result):
            counts["cauchy_general.march_samples"] += len(result.x)
            counts["cauchy_general.fold_stops"] += list(result.status.values()).count("fold")

        self._replace_function(modules, "cauchy_general.t_ab", cauchy_general.t_ab, False)
        for fname, hook in (("find_seed", None), ("seed_point", None),
                            ("march_isochrone", march), ("general_profile", None)):
            self._replace_function(
                modules, f"cauchy_general.{fname}", getattr(cauchy_general, fname),
                True, hook,
            )

        def fv(args, result):
            grid = args[1]
            counts["fv_reference.steps"] += result.steps
            counts["fv_reference.cell_steps"] += result.steps * grid.n_cells
            self._grids.add((self.op_id, grid, args[2]))

        self._replace_function(modules, "fv_reference.fv_run", fv_reference.fv_run, True, fv)
        self._replace_function(
            modules, "fv_reference.l1_error", fv_reference.l1_error, True
        )
        self._replace_function(modules, "cli.main", cli.main, True)
        self._replace_method(svgplot.SvgPlot, "write", "svgplot.write", True)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics over everything traced so far."""
        st = self.stats
        c = self.counts

        def calls(*names):
            return sum(st[n].calls for n in names)

        def total(*names):
            return sum(st[n].total for n in names)

        def self_s(*names):
            return sum(st[n].self for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        hodo = [f"hodograph.{m}" for m in HODOGRAPH]
        inv = [f"invariants.{f}" for f in INVARIANTS]
        samples = c["isochrone.samples"]
        fv_calls = calls("fv_reference.fv_run")
        cell_steps = c["fv_reference.cell_steps"]
        return {
            "hodograph.calls": calls(*hodo),
            "hodograph.points": c["hodograph.points"],
            "hodograph.points_per_call": ratio(c["hodograph.points"], calls(*hodo)),
            "hodograph.self_s": self_s(*hodo),
            "wavefield.build_timeline.calls": calls("wavefield.build_timeline"),
            "wavefield.build_timeline_s": total("wavefield.build_timeline"),
            "wavefield.zones_at.calls": calls("wavefield.zones_at"),
            "wavefield.zones_at_s": total("wavefield.zones_at"),
            "isochrone.profile_at.calls": calls("isochrone.profile_at"),
            "isochrone.profile_at_s": total("isochrone.profile_at"),
            "isochrone.samples": samples,
            "isochrone.us_per_sample": ratio(1e6 * total("isochrone.profile_at"), samples),
            "isochrone.transport_s": total("isochrone.z9_profile", "isochrone.z10_profile"),
            "isochrone.profile_self_s": self_s("isochrone.profile_at"),
            "isochrone.boundary_root.calls": calls("isochrone.rho_star", "isochrone.sigma_star"),
            "isochrone.boundary_root_s": total("isochrone.rho_star", "isochrone.sigma_star"),
            "isochrone.boundary_x_s": total("isochrone.phi", "isochrone.theta"),
            "isochrone.z5_s": total("isochrone.z5_profile"),
            "isochrone.shock_s": total("isochrone.shock_boundary"),
            "isochrone.shock_cache_hit_ratio": ratio(
                c["isochrone.shock_hits"], calls("isochrone.shock_boundary")
            ),
            "cauchy_general.find_seed_s": total("cauchy_general.find_seed"),
            "cauchy_general.t_ab.calls": calls("cauchy_general.t_ab"),
            "cauchy_general.t_ab_per_seed": ratio(
                calls("cauchy_general.t_ab"), calls("cauchy_general.find_seed")
            ),
            "cauchy_general.seed_point_s": total("cauchy_general.seed_point"),
            "cauchy_general.march_s": total("cauchy_general.march_isochrone"),
            "cauchy_general.march_samples": c["cauchy_general.march_samples"],
            "cauchy_general.fold_stops": c["cauchy_general.fold_stops"],
            "fv_reference.fv_run.calls": fv_calls,
            "fv_reference.runs_per_grid": ratio(fv_calls, len(self._grids)),
            "fv_reference.fv_run_s": total("fv_reference.fv_run"),
            "fv_reference.steps": c["fv_reference.steps"],
            "fv_reference.cell_steps": cell_steps,
            "fv_reference.ns_per_cell_step": ratio(1e9 * total("fv_reference.fv_run"), cell_steps),
            "fv_reference.l1_error_s": total("fv_reference.l1_error"),
            "cli.main_s": total("cli.main"),
            "cli.self_s": self_s("cli.main"),
            "svgplot.write_s": total("svgplot.write"),
            "invariants.calls": calls(*inv),
            "invariants.self_s": self_s(*inv),
        }

    def write_spans(self, path):
        """One JSON object per span: name, start, end, parent span, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def _size(value):
    return getattr(value, "size", 1)
