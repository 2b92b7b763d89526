"""Explicit profiles on isochrones t = t* of the implicit solution.

Inside the interaction zone Z5 the map (R1, R2) -> (t, x) is known in closed
form, so the state at (x, t*) is the root of t(R1, R2) = t*, x(R1, R2) = x
(ImplicitSolution.invert).  The transport zones created after the fan deaths
are one-parameter families x(rho) at fixed t* (Side.transport_x), bounded
after T_9 / T_10 by the curved shocks, whose time beta(rho) of carrying rho
is rational in rho (wavefield._shock_curve).  This module samples every zone
but Z5 on one multi-range grid, plateaus and fans in x and transport zones
in rho, and assembles complete profiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    DomainMismatch,
    NonMonotoneParametrization,
    PhaseGap,
)
from .hodograph import ImplicitSolution
from .invariants import MixtureParams, concentrations_from_invariants
from .wavefield import Timeline, build_timeline

#: Profile.interp's slack outside its sampled x range, for ranges from its ends.
INTERP_SLACK = 1e-12
#: header of the profile CSV.
PROFILE_HEADER = "x,R1,R2,u1,u2,zone"

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class Profile:
    """Sampled solution along an isochrone, ordered by x and tagged by zone.

    x is non-decreasing, strictly increasing within each zone run and
    repeated only at zone joints, which keep both one-sided states: the
    discontinuities are the repeated x, and a point zone is one sample at
    its joint.  Construction checks that order on one diff of x.
    """

    t_star: float
    x: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    zone: list

    def __post_init__(self):
        dx = np.diff(self.x)
        if (dx < 0).any():
            raise PhaseGap("profile samples are not ordered by x")
        for i in np.flatnonzero(dx <= 0).tolist():
            if self.zone[i] == self.zone[i + 1]:
                raise PhaseGap("x not strictly increasing inside a zone run")

    def zone_runs(self):
        """Contiguous runs of equal zone label, as (label, slice) pairs."""
        sizes = [(label, len(list(run))) for label, run in itertools.groupby(self.zone)]
        stops = itertools.accumulate(size for _, size in sizes)
        return [(label, slice(stop - size, stop)) for (label, size), stop in zip(sizes, stops)]

    def mass(self):
        """(integral of u1 dx, integral of u2 dx) by per-zone trapezoid."""
        runs = [sl for _, sl in self.zone_runs() if sl.stop - sl.start > 1]
        return tuple(sum((_trapz(u[sl], self.x[sl]) for sl in runs), 0.0)
                     for u in (self.u1, self.u2))

    def interp(self, xq):
        """Linear interpolation of (u1, u2) along the samples, as one polyline.

        Queries must lie inside [x[0], x[-1]]; a query exactly on a joint (a
        repeated x, such as a shock position) takes the left zone's value.
        """
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        if xq.min() < self.x[0] - INTERP_SLACK or xq.max() > self.x[-1] + INTERP_SLACK:
            raise DomainMismatch(
                f"queries outside profile range [{self.x[0]}, {self.x[-1]}]"
            )
        # np.interp takes the last of equal x; the first is the left zone's.
        first = np.minimum(np.searchsorted(self.x, xq), len(self.x) - 1)
        on = self.x[first] == xq
        u1, u2 = np.interp(xq, self.x, self.u1), np.interp(xq, self.x, self.u2)
        u1[on], u2[on] = self.u1[first[on]], self.u2[first[on]]
        return u1, u2

    def csv_rows(self):
        return csv_rows(
            PROFILE_HEADER, (self.x, self.R1, self.R2, self.u1, self.u2), self.zone
        )


def csv_rows(header, columns, labels=None):
    """A CSV as lines: the header, then one row per sample of the numeric
    columns, each number written as its shortest round-trip decimal, and
    the sample's label last when labels are given.  A column given as a
    list is taken as that text already (column_text's)."""
    yield header
    cells = [col if isinstance(col, list) else column_text(col) for col in columns]
    if labels is not None:
        cells.append(labels)
    yield from map(",".join, zip(*cells))


def column_text(col):
    """repr of every value of the float column, called once per run of
    bitwise-equal values: repr depends only on the bits, so -0.0 beside 0.0
    and NaNs with different payloads are separate runs."""
    col = np.asarray(col, dtype=float)
    bits = col.view(np.int64)
    starts = np.empty(len(col), dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    texts = np.array(list(map(repr, col[starts].tolist())), dtype=object)
    return texts[np.cumsum(starts) - 1].tolist()


@dataclass
class Segment:
    zone: str
    x: np.ndarray
    R1: np.ndarray
    R2: np.ndarray


class ScenarioSolver:
    """Facade: timeline + implicit solution + isochrone samplers."""

    def __init__(self, params: MixtureParams):
        self.params = params
        self.timeline: Timeline = build_timeline(params)
        self.hodograph: ImplicitSolution = self.timeline.hodograph

    # -- zone edges, read from the layout ---------------------------------------

    def _interval(self, name, t, zone=None):
        """zone if given, else zone name's interval in the layout at t;
        DomainError where the layout has no such zone at t."""
        if zone is None:
            zone = next((iv for iv in self.timeline.zones_at(t) if iv.zone == name), None)
            if zone is None:
                raise DomainError(f"{name} does not exist at t = {t}")
        return zone

    def _edge_states(self, zone, t, left_side, right_side):
        """The (R1, R2) states at a zone interval's two ends at t.

        Where the layout holds a curve's root, the state is that side's
        pair(rho) (left_side for the left curve, right_side for the right
        one), so an end's position and state rest on one root; elsewhere it
        is the curve's own state on the zone's side.
        """
        curves = self.timeline.curves
        left = (curves[zone.left_curve].right_state(t) if zone.left_rho is None
                else left_side.pair(zone.left_rho))
        right = (curves[zone.right_curve].left_state(t) if zone.right_rho is None
                 else right_side.pair(zone.right_rho))
        return left, right

    def phi(self, t):
        """Left boundary of Z5 at t: x_left of its interval in the layout."""
        return self._interval("Z5", t).x_left

    def theta(self, t):
        """Right boundary of Z5 at t: x_right of its interval in the layout."""
        return self._interval("Z5", t).x_right

    # -- parametric-boundary roots -------------------------------------------

    def rho_star(self, t_star):
        """Root of t(rho, mu2) = t* near [q1, mu1]: phi's rho_of_t."""
        return self.timeline.curves["phi"].rho_of_t(t_star)

    def sigma_star(self, t_star):
        """Mirror root of t(mu1, rho) = t* near [mu2, q2]: theta's rho_of_t."""
        return self.timeline.curves["theta"].rho_of_t(t_star)

    # -- zone Z5: the implicit solution on the isochrone -------------------------

    def z5_profile(self, t_star, n=64, zone=None) -> Segment:
        """Sample Z5 at time t*: n states at uniform x between its edges.

        zone is Z5's interval in the layout at t*, looked up when None
        (DomainError where Z5 does not exist).  Each end's position and
        state come from that interval (see _edge_states).  The states
        between are read from the implicit solution itself, t(R1, R2) = t*
        and x(R1, R2) = x, by ImplicitSolution.invert; the ends are pinned
        to the edge states.
        """
        zone = self._interval("Z5", t_star, zone)
        left, right = self._edge_states(zone, t_star, *self.timeline.sides.values())
        xl, xr = zone.x_left, zone.x_right

        if xr == xl:  # a point zone, as the layout decided
            return Segment("Z5", np.array([xl]), np.array([left[0]]), np.array([left[1]]))

        xs = np.linspace(xl, xr, max(n, 2))
        R1, R2 = self.hodograph.invert(t_star, xs, (xl, *left), (xr, *right))
        R1[0], R2[0] = left
        R1[-1], R2[-1] = right
        # Both invariants rise monotonically across Z5; a violation means
        # the solve went wrong, not that the solution looks unusual.
        if (R1[1:] < R1[:-1]).any() or (R2[1:] < R2[:-1]).any():
            raise NonMonotoneParametrization(
                f"Z5 invariants lost monotonicity at t* = {t_star}"
            )
        return Segment("Z5", xs, R1, R2)

    # -- zones Z9 / Z10: one-parameter transport ---------------------------------

    def z9_profile(self, t_star, n=64, zone=None) -> Segment:
        """One-parameter representation of Z9 at time t*.

        x(rho) = x(rho, mu2) + rho^2 mu2 (t* - t(rho, mu2)) (Side.transport_x)
        for rho between the values at Z9's two ends: the shock-side value
        (q1 on xw1, the root of Phi after T_9) and the Z5-side value (the
        root rho* of phi, mu1 on xf1 after T_fin); zone as for z5_profile.
        Z9's row of profile_at's grid (_grid), sampled alone.
        """
        return self._zone_alone("Z9", t_star, n, zone)

    def z10_profile(self, t_star, n=64, zone=None) -> Segment:
        """Mirror of z9_profile: Z10 with R2 = rho between sigma* and q2 or Theta."""
        return self._zone_alone("Z10", t_star, n, zone)

    def _zone_alone(self, name, t_star, n, zone):
        zone = self._interval(name, t_star, zone)
        x, R, _ = self._grid(t_star, [zone], [(zone.x_left, zone.x_right)], [max(n, 2)])
        return Segment(name, x, *R)

    # -- curved shocks after T_9 / T_10 ----------------------------------------

    def shock_boundary(self, side, t_end):
        """The curved shock of a side (Phi or Theta) as a timeline curve.

        Its rho_of_t is the invariant carried just behind the shock and its
        x the position; the Rankine-Hugoniot speed is D = mu1 mu2 rho.  The
        curve is exact at every t after the shock event; t_end only has to
        follow that event (else DomainError), and the curve's root is
        solved at t_end on this call.
        """
        s = self.timeline.side(side)
        t0 = self.timeline.times[s.shock_event]
        if t_end <= t0:
            raise DomainError(f"shock boundary {side} starts at {t0}")
        curve = self.timeline.curves[s.shock]
        curve.rho_of_t(t_end)
        return curve

    # -- full-profile assembly ---------------------------------------------------

    def profile_at(self, t_star, n=1024, window=None) -> Profile:
        """Complete profile across all zones alive at t*.

        Samples are spread over the zones proportionally to width in x (the
        two outer plateaus clipped to the window) and taken on one grid
        (_grid).  Each zone's first and last sample sit at its interval's
        ends in the layout, so neighbouring zones share their joint's x bit
        for bit, and the layout's order is the profile's (Profile checks it).
        """
        if not 0.0 < t_star < np.inf:
            raise DomainError("profiles exist for finite t > 0")
        intervals = self.timeline.zones_at(t_star)

        x_lo, x_hi = intervals[0].x_right, intervals[-1].x_left
        if window is None:
            span = max(x_hi - x_lo, 1.0)
            window = (x_lo - 0.1 * span, x_hi + 0.1 * span)

        ends = [(window[0] if iv.x_left is None else iv.x_left,
                 window[1] if iv.x_right is None else iv.x_right) for iv in intervals]
        widths = [max(xr - xl, 0.0) for xl, xr in ends]
        total = sum(widths) or 1.0
        sizes = [max(2, int(round(n * w / total))) for w in widths]
        x, R, slices = self._grid(t_star, intervals, ends, sizes)
        u1, u2 = concentrations_from_invariants(self.params, *R)
        zone = list(itertools.chain.from_iterable(
            itertools.repeat(iv.zone, sl.stop - sl.start) for iv, sl in zip(intervals, slices)))
        return Profile(t_star, x, *R, np.asarray(u1), np.asarray(u2), zone)

    def _grid(self, t_star, intervals, ends, sizes):
        """x, [R1, R2] and each zone's slice of them, on one multi-range grid.

        Each zone is a row of n_k values, (arange - k0) step + start with the
        last pinned to stop: np.linspace's bits.  A plateau or fan zone runs
        in x between its ends, with its plateau state or Side.fan.  A
        transport zone runs in rho between the values at its interval's ends
        (_edge_states), lower first, with the other invariant side.fixed,
        and Side.transport_x places it as it placed the layout's ends (x
        must rise: proved there, checked here); its end x are the layout's,
        which differ only where the layout moved an edge onto its neighbour.
        A point zone (x_left == x_right for a transport zone, ends that do
        not increase for a plateau or fan, as where the window cuts an outer
        plateau off) is one sample at its joint.  Z5 comes from z5_profile.
        """
        sides = {s.zone: s for s in self.timeline.sides.values()}
        fans = {s.fan_zone: s for s in sides.values()}
        rows, slices, stops, z5 = [], [], [], None
        for iv, (start, stop), n_k in zip(intervals, ends, sizes):
            first = slices[-1].stop if slices else 0
            state, side = self.timeline.plateaus.get(iv.zone, (None, None)), sides.get(iv.zone)
            if iv.zone == "Z5":
                z5 = self.z5_profile(t_star, n_k, iv)
                n_k = len(z5.x)
            elif side is not None:
                state, edges = side.pair(None), self._edge_states(iv, t_star, side, side)
                start, stop = sorted(end[side.index] for end in edges)
                if iv.x_left == iv.x_right:
                    stop, n_k = start, 1
            elif not stop > start:
                stop, n_k = start, 1  # a point zone, or an outer plateau cut off
            # First index, step, start and (R1, R2), NaN where the grid value sets it.
            rows.append((first, (stop - start) / max(n_k - 1, 1), start, *state))
            slices.append(slice(first, first + n_k))
            stops.append(stop)

        k0, step, start, *R = np.repeat(np.array(rows, dtype=float).T,
                                        [sl.stop - sl.start for sl in slices], axis=1)
        x = (np.arange(len(k0)) - k0) * step + start
        x[[sl.stop - 1 for sl in slices]] = stops
        for iv, sl in zip(intervals, slices):
            side = sides.get(iv.zone)
            if iv.zone == "Z5":
                x[sl], R[0][sl], R[1][sl] = z5.x, z5.R1, z5.R2
            elif side is not None:
                R[side.index][sl] = x[sl]
                x[sl] = side.transport_x(x[sl], t_star)
                x[sl.stop - 1], x[sl.start] = iv.x_right, iv.x_left
                if not (x[sl][1:] > x[sl][:-1]).all():
                    raise NonMonotoneParametrization(f"{side.zone} parametrization x(rho) not "
                                                     f"strictly increasing at t* = {t_star}")
            elif iv.zone in fans:  # a side's fan sets the other invariant
                R[1 - fans[iv.zone].index][sl] = fans[iv.zone].fan(x[sl], t_star)
        return x, R, slices


def profile_at(params_or_solver, t_star, n=1024, window=None) -> Profile:
    solver = (
        params_or_solver
        if isinstance(params_or_solver, ScenarioSolver)
        else ScenarioSolver(params_or_solver)
    )
    return solver.profile_at(t_star, n=n, window=window)
