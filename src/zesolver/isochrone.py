"""Explicit profiles on isochrones t = t* of the implicit solution.

Inside the interaction zone Z5 the map (R1, R2) -> (t, x) is known in closed
form, so the state at (x, t*) is the root of t(R1, R2) = t*, x(R1, R2) = x
(ImplicitSolution.invert).  The transport zones created after the fan deaths
are one-parameter families x(rho) at fixed t*, bounded after T_9 / T_10 by
the curved shocks.  A shock carries rho at the time beta(rho) = g(rho) /
(far - rho)^2 with g rational in rho: the ODE that the Rankine-Hugoniot
speed imposes on beta is linear (wavefield._shock_curve).  This module
reconstructs every zone and assembles complete profiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    DomainMismatch,
    NonMonotoneParametrization,
    PhaseGap,
)
from .hodograph import ImplicitSolution
from .invariants import MixtureParams, concentrations_from_invariants, lambda_k
from .wavefield import Timeline, build_timeline

#: |interval| below this counts as a degenerate (point) zone.
DEGENERATE_WIDTH = 1e-12
#: a transport zone born with zero width: parameter range below this (relative).
DEGENERATE_RHO = 1e-14
#: largest gap (relative) between neighbouring zone segments, which share an edge.
ASSEMBLY_GAP = 1e-6
#: Profile.interp's slack outside its sampled x range, for ranges from its ends.
INTERP_SLACK = 1e-12
#: header of the profile CSV.
PROFILE_HEADER = "x,R1,R2,u1,u2,zone"

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class Profile:
    """Sampled solution along an isochrone, ordered by x and tagged by zone.

    x is non-decreasing; it is strictly increasing within each zone run and
    repeats only at zone boundaries, where both one-sided states are kept
    (shocks are genuinely two-valued there).  Construction checks that
    order on one diff of x; the zone runs are found on first use.
    """

    t_star: float
    x: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    zone: list
    _runs: list = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        dx = np.diff(self.x)
        if (dx < 0).any():
            raise PhaseGap("profile samples are not ordered by x")
        for i in np.flatnonzero(dx <= 0).tolist():
            if self.zone[i] == self.zone[i + 1]:
                raise PhaseGap("x not strictly increasing inside a zone run")

    def zone_runs(self):
        """Contiguous runs of equal zone label, as (label, slice) pairs."""
        if self._runs is None:
            sizes = [(label, len(list(run))) for label, run in itertools.groupby(self.zone)]
            stops = itertools.accumulate(size for _, size in sizes)
            self._runs = [(label, slice(stop - size, stop))
                          for (label, size), stop in zip(sizes, stops)]
        return list(self._runs)

    def mass(self):
        """(integral of u1 dx, integral of u2 dx) by per-zone trapezoid."""
        m1 = m2 = 0.0
        for _, sl in self.zone_runs():
            if sl.stop - sl.start < 2:
                continue
            m1 += _trapz(self.u1[sl], self.x[sl])
            m2 += _trapz(self.u2[sl], self.x[sl])
        return m1, m2

    def interp(self, xq):
        """Zone-aware linear interpolation of (u1, u2) at query points.

        Queries must lie inside [x[0], x[-1]]; a query exactly on a shock
        position resolves to the left zone's value.
        """
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        if xq.min() < self.x[0] - INTERP_SLACK or xq.max() > self.x[-1] + INTERP_SLACK:
            raise DomainMismatch(
                f"queries outside profile range [{self.x[0]}, {self.x[-1]}]"
            )
        runs = self.zone_runs()
        right_edges = np.array([self.x[sl].max() for _, sl in runs])
        idx = np.searchsorted(right_edges, xq, side="left")
        idx = np.clip(idx, 0, len(runs) - 1)
        u1 = np.empty_like(xq)
        u2 = np.empty_like(xq)
        for k, (_, sl) in enumerate(runs):
            mask = idx == k
            if not np.any(mask):
                continue
            u1[mask] = np.interp(xq[mask], self.x[sl], self.u1[sl])
            u2[mask] = np.interp(xq[mask], self.x[sl], self.u2[sl])
        return u1, u2

    def csv_rows(self):
        return csv_rows(
            PROFILE_HEADER, (self.x, self.R1, self.R2, self.u1, self.u2), self.zone
        )


def csv_rows(header, columns, labels=None):
    """A CSV as lines: the header, then one row per sample of the numeric
    columns, each number written as its shortest round-trip decimal, and
    the sample's label last when labels are given."""
    yield header
    cells = [_column_text(np.asarray(col, dtype=float)) for col in columns]
    if labels is not None:
        cells.append(labels)
    yield from map(",".join, zip(*cells))


def _column_text(col):
    """repr of every value of the float column, called once per run of
    bitwise-equal values: repr depends only on the bits, so -0.0 beside 0.0
    and NaNs with different payloads are separate runs."""
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

        if xr - xl < DEGENERATE_WIDTH * max(1.0, abs(xl)):
            return Segment("Z5", np.array([xl]), np.array([left[0]]), np.array([left[1]]))

        xs = np.linspace(xl, xr, max(n, 2))
        R1, R2 = self.hodograph.invert(t_star, xs, (xl, *left), (xr, *right))
        R1[0], R2[0] = left
        R1[-1], R2[-1] = right
        # Both invariants rise monotonically across Z5; a violation means
        # the solve went wrong, not that the solution looks unusual.
        if np.any(np.diff(R1) < 0) or np.any(np.diff(R2) < 0):
            raise NonMonotoneParametrization(
                f"Z5 invariants lost monotonicity at t* = {t_star}"
            )
        return Segment("Z5", xs, R1, R2)

    # -- zones Z9 / Z10: one-parameter transport ---------------------------------

    def z9_profile(self, t_star, n=64, zone=None) -> Segment:
        """One-parameter representation of Z9 at time t*.

        x(rho) = x(rho, mu2) + rho^2 mu2 (t* - t(rho, mu2)) for rho between
        the values at Z9's two ends: the shock-side value (q1 on xw1, the
        root of Phi after T_9) and the Z5-side value (the root rho* of phi,
        mu1 on xf1 after T_fin); zone as for z5_profile.
        """
        return self._transport_segment(self.timeline.side(1), t_star, n, zone)

    def z10_profile(self, t_star, n=64, zone=None) -> Segment:
        """Mirror of z9_profile: Z10 with R2 = rho between sigma* and q2 or Theta."""
        return self._transport_segment(self.timeline.side(2), t_star, n, zone)

    def transport_x(self, side, rho, t_star):
        """Position reached at t* by the value rho leaving the Z5 boundary.

        rho may be a scalar or an array; an array is evaluated as a whole,
        with one hodograph t_x call for all of its values.
        """
        s = self.timeline.side(side)
        R = s.pair(rho)
        tau, x0 = self.hodograph.t_x(*R)
        return x0 + lambda_k(s.k, *R) * (t_star - tau)

    def _transport_segment(self, side, t_star, n, zone):
        """Sample a side's transport zone at n parameter values.

        The parameter runs between rho at the zone interval's two ends (see
        _edge_states; zone as for z5_profile).  The positions x(rho) of all
        samples come from one array evaluation of transport_x; they must
        increase strictly.
        """
        zone = self._interval(side.zone, t_star, zone)
        ends = self._edge_states(zone, t_star, side, side)
        lo, hi = sorted(state[side.index] for state in ends)
        if hi - lo < DEGENERATE_RHO * max(1.0, abs(hi)):
            rho = np.array([lo])
            x = np.array([self.transport_x(side.k, lo, t_star)])
        else:
            rho = np.linspace(lo, hi, max(n, 2))
            x = self.transport_x(side.k, rho, t_star)
            if np.any(np.diff(x) <= 0):
                raise NonMonotoneParametrization(
                    f"{side.zone} parametrization x(rho) not strictly increasing "
                    f"at t* = {t_star}"
                )
        R = np.empty((2, rho.size))
        R[side.index] = rho
        R[1 - side.index] = side.fixed
        return Segment(side.zone, x, R[0], R[1])

    # -- curved shocks after T_9 / T_10 ----------------------------------------

    def shock_boundary(self, side, t_end):
        """The curved shock of a side (Phi or Theta) as a timeline curve.

        Its rho_of_t is the invariant carried just behind the shock and its
        x the position; the Rankine-Hugoniot speed is D = mu1 mu2 rho.  The
        curve is exact at every t after the shock event; t_end only has to
        follow that event (else DomainError), and evaluating it here builds
        the curve's table, so a beta(rho) that does not rise raises
        DomainExit on this call.
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

        Samples are spread over the finite zones proportionally to width
        (uniform in x, or uniform in the parameter for transport zones); the
        two outer plateaus are clipped to the window.  Plateau and fan zones
        take x from one multi-range linspace, in numpy's own arithmetic.
        """
        if t_star <= 0.0:
            raise DomainError("profiles exist for t > 0")
        intervals = self.timeline.zones_at(t_star)

        x_lo, x_hi = intervals[0].x_right, intervals[-1].x_left
        if window is None:
            span = max(x_hi - x_lo, 1.0)
            window = (x_lo - 0.1 * span, x_hi + 0.1 * span)

        ends = [(window[0] if iv.x_left is None else iv.x_left,
                 window[1] if iv.x_right is None else iv.x_right) for iv in intervals]
        widths = [max(xr - xl, 0.0) for xl, xr in ends]
        total = sum(widths) or 1.0
        s1, s2 = self.timeline.sides.values()
        samplers = {"Z5": self.z5_profile, s1.zone: self.z9_profile, s2.zone: self.z10_profile}
        slices, stops, rows, segments = [], [], [], []
        for iv, (xl, xr), w in zip(intervals, ends, widths):
            n_k = max(2, int(round(n * w / total)))
            first = slices[-1].stop if slices else 0
            seg = samplers[iv.zone](t_star, n_k, iv) if iv.zone in samplers else None
            if seg is not None:
                n_k = len(seg.x)
            elif (xr - xl) < DEGENERATE_WIDTH * max(1.0, abs(xl)):
                xr, n_k = xl, 1  # a point zone
            slices.append(slice(first, first + n_k))
            stops.append(xr)
            segments.append(seg)
            # First index, step, start and (R1, R2), NaN where a fan or a sampler sets it.
            rows.append((first, (xr - xl) / max(n_k - 1, 1), xl,
                         *self.timeline.plateaus.get(iv.zone, (None, None))))

        counts = [sl.stop - sl.start for sl in slices]
        k0, step, start, *R = np.repeat(np.array(rows, dtype=float).T, counts, axis=1)
        x = (np.arange(len(k0)) - k0) * step + start
        x[[sl.stop - 1 for sl in slices]] = stops
        fans = {s.fan_zone: s for s in (s1, s2)}
        zones = [iv.zone for iv in intervals]
        for zone, sl, seg in zip(zones, slices, segments):
            if seg is not None:
                x[sl], R[0][sl], R[1][sl] = seg.x, seg.R1, seg.R2
            elif zone in fans:  # a side's fan sets the other invariant
                R[1 - fans[zone].index][sl] = fans[zone].fan(x[sl], t_star)
        for i in range(1, len(slices)):  # neighbouring zones share an edge
            a, b = x[slices[i].start - 1], x[slices[i].start]
            if abs(a - b) > ASSEMBLY_GAP * max(1.0, abs(a)):
                raise PhaseGap(f"assembly gap between {zones[i - 1]} ({a}) and {zones[i]} ({b})")
        # Shared boundary samples may disagree in the last bit; enforce order.
        x = np.maximum.accumulate(x)
        u1, u2 = concentrations_from_invariants(self.params, *R)
        zone = list(itertools.chain.from_iterable(map(itertools.repeat, zones, counts)))
        return Profile(t_star, x, *R, np.asarray(u1), np.asarray(u2), zone)


def profile_at(params_or_solver, t_star, n=1024, window=None) -> Profile:
    solver = (
        params_or_solver
        if isinstance(params_or_solver, ScenarioSolver)
        else ScenarioSolver(params_or_solver)
    )
    return solver.profile_at(t_star, n=n, window=window)
