"""Scenario runner: config-driven timeline, profile, compare, general modes.

Config files are flat INI key/value sections:

    [mixture]            # problem instance (required except for `general`)
    mu1 = 5
    mu2 = 8
    q1 = 2
    q2 = 10
    x1 = -1
    x2 = 1

    [output]
    times = 0.01, 0.0125     # isochrone times
    samples = 1024           # samples per profile, at least 2
    format = csv             # csv | json (timeline only)

    [fv]                     # compare mode
    cells = 1000, 2000, 4000 # one run per entry
    cfl = 0.45
    x_min = -3
    x_max = 7

    [general]                # general-Cauchy mode
    breakpoints = -1, 1
    r1_values = 5, 2, 5
    r2_values = 8, 10, 8
    domain = -21, 21
    window = -2, 6

Text after ";" or "#" (preceded by whitespace) is a comment.  Command-line
flags override the matching config keys.  Every command takes --config and
--out; each takes only its own other flags, and any other flag is a usage
error (exit 2):

    timeline   --format
    profile    --times --samples
    compare    --times --cells --cfl
    general    --times

Exit codes:

    0  success
    2  bad input: a missing or unreadable config, a missing section or key,
       a value that is not a number, a value that is not finite (nan, inf),
       a wrong value count (domain and window take two, the [general] value
       lists one more than breakpoints), an empty cell list, unsorted or
       non-positive times, two times with the same file tag (their %.6f
       text), fewer than 2 `profile` samples, mixture parameters that break
       0 < q1 < mu1 < mu2 < q2 or x1 < x2 (`general` too, when it reads its
       mobilities from [mixture]), [general] data that breaks its rules
       (domain lo < hi, window lo < hi, breakpoints increasing and inside
       the domain, R1 < R2 and R1 R2 != 0 on every piece), a grid with
       fewer than 4 cells or x_min >= x_max, a grid whose first cell
       reaches past x1 (x_min + dx > x1: the copy ghost cell would feed the
       column's state in from the left), a CFL number outside (0, 1)
    3  the solver failed on valid input (for example no seed at the
       requested time, a fold at the seed, level drift, or no sample of a
       `general` isochrone inside the window); the error type is printed

`general` marches each isochrone from its seed in both directions; each
direction stops when its position leaves [general] window, so a seed
outside the window marches into it.

Any other status is an uncaught exception, that is, a bug.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fv_reference
from .errors import CFLViolation, DomainError, InputError, OrderingViolation, SolverError
from .invariants import MixtureParams, validate_params
from .isochrone import PROFILE_HEADER, ScenarioSolver, column_text, csv_rows
from .svgplot import SvgPlot


def _parse_list(text, kind):
    try:
        values = [kind(v) for v in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad {kind.__name__} list {text!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise InputError(f"bad {kind.__name__} list {text!r}: a value is not finite")
    return values


def _parse_floats(text):
    return _parse_list(text, float)


def _parse_ints(text):
    return _parse_list(text, int)


def _parse_one(text, kind):
    values = _parse_list(text, kind)
    if len(values) != 1:
        raise InputError(f"expected one {kind.__name__}, got {text!r}")
    return values[0]


def _require(section, keys):
    """Raise InputError naming the keys that section lacks."""
    missing = [key for key in keys if key not in section]
    if missing:
        raise InputError(f"[{section.name}]: missing {', '.join(missing)}")


def _parse_pair(text, name):
    values = _parse_floats(text)
    if len(values) != 2:
        raise InputError(f"{name} needs two numbers, got {text!r}")
    return values[0], values[1]


class ScenarioConfig:
    """Parsed configuration with CLI overrides applied."""

    def __init__(self, path=None):
        self.cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if path is not None:
            read = self.cp.read(path)
            if not read:
                raise FileNotFoundError(f"config file not found: {path}")

    def mixture(self) -> MixtureParams:
        """The [mixture] instance, checked by validate_params."""
        sec = self.cp["mixture"]
        keys = [f.name for f in dataclasses.fields(MixtureParams)]
        _require(sec, keys)
        try:
            params = MixtureParams(**{key: _parse_one(sec[key], float) for key in keys})
        except InputError as exc:
            raise InputError(f"[mixture]: {exc}") from exc
        return validate_params(params)

    def get(self, section, key, fallback=None):
        if self.cp.has_option(section, key):
            return self.cp.get(section, key)
        return fallback

    def general_data(self):
        from .cauchy_general import PiecewiseInitialData  # loaded for `general` only

        sec = self.cp["general"]
        _require(sec, ("r1_values", "r2_values", "domain"))
        try:
            return PiecewiseInitialData(
                breakpoints=tuple(_parse_floats(sec.get("breakpoints", ""))),
                r1_values=tuple(_parse_floats(sec.get("r1_values"))),
                r2_values=tuple(_parse_floats(sec.get("r2_values"))),
                domain=_parse_pair(sec.get("domain"), "[general] domain"),
            )
        except DomainError as exc:
            raise InputError(f"[general]: {exc}") from exc


def _time_tag(t):
    return f"{t:.6f}"


def write_rows(rows, path):
    """Write the lines rows, each ended by a newline, in one call."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def _profile_svg(profile, boundaries, path, title):
    plot = SvgPlot(title=title, xlabel="x", ylabel="u")
    plot.add_series("u1", profile.x, profile.u1)
    plot.add_series("u2", profile.x, profile.u2)
    for x, label in boundaries:
        plot.add_vline(x, label)
    plot.write(path)


def _zone_boundaries(profile):
    """(x, curve label) pairs marking zone edges inside the profile span."""
    marks = []
    runs = profile.zone_runs()
    for (za, sa), (zb, sb) in zip(runs, runs[1:]):
        marks.append((profile.x[sb.start], f"{za}|{zb}"))
    return marks


def cmd_timeline(cfg: ScenarioConfig, out_dir: Path, fmt: str) -> int:
    params = cfg.mixture()
    solver = ScenarioSolver(params)
    tl = solver.timeline
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out_dir / "timeline.json"
        path.write_text(json.dumps(tl.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        path = out_dir / "timeline.txt"
        path.write_text("\n".join(tl.report_lines()) + "\n")
    for e in tl.events:
        print(f"{e.label}: T={e.T!r} X={e.X!r}")
    print(f"wrote {path}")
    return 0


def cmd_profile(cfg: ScenarioConfig, out_dir: Path, times, samples) -> int:
    params = cfg.mixture()
    solver = ScenarioSolver(params)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in times:
        profile = solver.profile_at(t, n=samples)
        tag = _time_tag(t)
        write_rows(profile.csv_rows(), out_dir / f"profile_t{tag}.csv")
        _profile_svg(
            profile,
            _zone_boundaries(profile),
            out_dir / f"profile_t{tag}.svg",
            title=f"concentrations at t = {tag}",
        )
        print(f"wrote profile_t{tag}.csv / .svg")
    return 0


def cmd_compare(cfg: ScenarioConfig, out_dir: Path, times, cells_list, cfl) -> int:
    params = cfg.mixture()
    x_min = _parse_one(cfg.get("fv", "x_min", -3.0), float)
    x_max = _parse_one(cfg.get("fv", "x_max", 7.0), float)
    try:
        grids = [fv_reference.Grid1D(x_min, x_max, cells, cfl) for cells in cells_list]
    except CFLViolation as exc:
        raise InputError(f"[fv]: {exc}") from exc
    # The copy ghost cell keeps the first cell's average forever, so that
    # cell must lie left of the column, in the outer plateau.
    for grid in grids:
        if grid.x_min + grid.dx > params.x1:
            raise InputError(
                f"[fv]: the first cell of the {grid.n_cells}-cell grid ends at "
                f"{grid.x_min + grid.dx!r}, right of x1 = {params.x1!r}"
            )
    solver = ScenarioSolver(params)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for t in times:
        profile = solver.profile_at(t, n=8192, window=(x_min - 1.0, x_max + 1.0))
        # The two strong discontinuities: the outer ends of the zone layout.
        layout = solver.timeline.zones_at(t)
        xs1, xs2 = layout[0].x_right, layout[-1].x_left
        runs = []
        for grid, result in zip(grids, fv_reference.fv_runs(params, grids, t)):
            e1, e2 = fv_reference.l1_error(result, profile)
            d1 = abs(fv_reference.steepest_gradient_x(result, 1) - xs1) / grid.dx
            d2 = abs(fv_reference.steepest_gradient_x(result, 2) - xs2) / grid.dx
            runs.append(
                {
                    "cells": grid.n_cells,
                    "l1_u1": e1,
                    "l1_u2": e2,
                    "shock1_dev_cells": d1,
                    "shock2_dev_cells": d2,
                }
            )
            print(
                f"t={t}: cells={grid.n_cells} L1=({e1:.4g}, {e2:.4g}) "
                f"shock dev=({d1:.2f}, {d2:.2f}) cells"
            )
        summary[_time_tag(t)] = runs

        # result is the finest grid's run, the last of grids.  Both CSVs
        # share its x, u1 and u2 columns, so each is formatted once.
        ua1, ua2 = profile.interp(result.x)
        tag = _time_tag(t)
        R1, R2 = fv_reference.invariants_field(params, result.u1, result.u2)
        x, u1, u2 = map(column_text, (result.x, result.u1, result.u2))
        write_rows(
            csv_rows(PROFILE_HEADER, (x, R1, R2, u1, u2), itertools.repeat("fv")),
            out_dir / f"fv_t{tag}.csv",
        )
        write_rows(
            csv_rows("x,u1_fv,u2_fv,u1_exact,u2_exact", (x, u1, u2, ua1, ua2)),
            out_dir / f"compare_t{tag}.csv",
        )
        plot = SvgPlot(title=f"exact vs finite-volume, t = {tag}", xlabel="x")
        plot.add_series("u1 exact", profile.x, profile.u1)
        plot.add_series("u2 exact", profile.x, profile.u2)
        plot.add_series("u1 fv", result.x, result.u1, dashed=True)
        plot.add_series("u2 fv", result.x, result.u2, dashed=True)
        plot.write(out_dir / f"compare_t{tag}.svg")
    (out_dir / "errors.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {out_dir / 'errors.json'}")
    return 0


def cmd_general(cfg: ScenarioConfig, out_dir: Path, times) -> int:
    from .cauchy_general import general_profile

    data = cfg.general_data()
    window = _parse_pair(cfg.get("general", "window", "-10 10"), "[general] window")
    if not window[0] < window[1]:
        raise InputError(f"[general] window needs lo < hi, got {window}")
    mobilities = None
    if cfg.cp.has_section("mixture"):
        p = cfg.mixture()
        mobilities = (p.mu1, p.mu2)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in times:
        result = general_profile(data, t, window, mobilities=mobilities)
        tag = _time_tag(t)
        path = out_dir / f"general_t{tag}.csv"
        nan = np.full_like(result.x, np.nan)
        u1 = nan if result.u1 is None else result.u1
        u2 = nan if result.u2 is None else result.u2
        write_rows(
            csv_rows(PROFILE_HEADER, (result.x, result.R1, result.R2, u1, u2),
                     itertools.repeat("general")),
            path,
        )
        print(
            f"wrote {path.name} (status {result.status}, "
            f"max drift {result.max_drift:.3g})"
        )
    return 0


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="zesolver",
        description="Exact two-component zone-electrophoresis solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "times": dict(help="comma list of times"),
        "samples": dict(type=int),
        "cells": dict(help="comma list of cell counts"),
        "cfl": dict(type=float),
        "format": dict(choices=("csv", "json")),
    }
    commands = {"timeline": ("format",), "profile": ("times", "samples"),
                "compare": ("times", "cells", "cfl"), "general": ("times",)}
    for name, own in commands.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config path")
        sp.add_argument("--out", default="out", help="output directory")
        for flag in own:
            sp.add_argument(f"--{flag}", **flags[flag])
        # Each command accepts only its own flags (argparse exits 2 on any
        # other); main reads the others as None, so config keys are read
        # and checked alike for every command.
        sp.set_defaults(**dict.fromkeys(flags.keys() - set(own)))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ScenarioConfig(args.config)
        out_dir = Path(args.out)
        times = _parse_floats(
            args.times
            if args.times is not None
            else cfg.get("output", "times", "0.01")
        )
        if any(t <= 0 for t in times) or sorted(times) != times:
            raise OrderingViolation("output times must be positive and sorted")
        tags = [_time_tag(t) for t in times]
        if len(set(tags)) != len(tags):
            # The tag names each time's files and errors.json key.
            raise InputError(f"output times {times} share a file tag in {tags}")
        samples = (
            args.samples
            if args.samples is not None
            else _parse_one(cfg.get("output", "samples", 1024), int)
        )
        fmt = args.format or cfg.get("output", "format", "csv")

        if args.command == "timeline":
            return cmd_timeline(cfg, out_dir, fmt)
        if args.command == "profile":
            if samples < 2:
                raise InputError(f"samples must be at least 2, got {samples}")
            return cmd_profile(cfg, out_dir, times, samples)
        if args.command == "compare":
            cells = _parse_ints(
                args.cells if args.cells is not None else cfg.get("fv", "cells", "1000")
            )
            if not cells:
                raise InputError("no cell counts given")
            cfl = args.cfl if args.cfl is not None else _parse_one(
                cfg.get("fv", "cfl", 0.45), float
            )
            return cmd_compare(cfg, out_dir, times, cells, cfl)
        if args.command == "general":
            return cmd_general(cfg, out_dir, times)
        raise ValueError(f"unknown command {args.command}")
    except (
        InputError, OrderingViolation, FileNotFoundError, KeyError, configparser.Error
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
