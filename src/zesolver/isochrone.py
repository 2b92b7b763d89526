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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import wavefield
from .errors import (
    DomainError,
    DomainMismatch,
    NoRootInInterval,
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
#: relative slack on a lifetime: an event time and a t* from it differ in ulps.
LIFETIME_SLACK = 1e-12
#: largest gap (relative) between neighbouring zone segments, which share an edge.
ASSEMBLY_GAP = 1e-6
#: Profile.interp's slack outside its sampled x range, for ranges from its ends.
INTERP_SLACK = 1e-12
#: brentq tolerances of tau_root (rtol is about 4 ulp).
TAU_XTOL, TAU_RTOL = 1e-15, 8.9e-16

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class Profile:
    """Sampled solution along an isochrone, ordered by x and tagged by zone.

    x is non-decreasing; it is strictly increasing within each zone run and
    repeats only at zone boundaries, where both one-sided states are kept
    (shocks are genuinely two-valued there).
    """

    t_star: float
    x: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    zone: list

    def __post_init__(self):
        if np.any(np.diff(self.x) < 0):
            raise PhaseGap("profile samples are not ordered by x")
        for _, sl in self.zone_runs():
            if np.any(np.diff(self.x[sl]) <= 0) and sl.stop - sl.start > 1:
                raise PhaseGap("x not strictly increasing inside a zone run")

    def zone_runs(self):
        """Contiguous runs of equal zone label, as (label, slice) pairs."""
        if len(self.zone) == 0:
            return []
        labels = np.asarray(self.zone)
        cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
        bounds = [0, *cuts, len(labels)]
        return [(self.zone[a], slice(a, b)) for a, b in zip(bounds, bounds[1:])]

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
        return csv_rows(self.x, self.R1, self.R2, self.u1, self.u2, self.zone)


def csv_rows(x, R1, R2, u1, u2, zone):
    """The x,R1,R2,u1,u2,zone CSV as lines: the header, then one row per
    sample with every number written as its shortest round-trip decimal."""
    yield "x,R1,R2,u1,u2,zone"
    for xi, r1, r2, v1, v2, z in zip(x, R1, R2, u1, u2, zone):
        yield (
            f"{float(xi)!r},{float(r1)!r},{float(r2)!r},"
            f"{float(v1)!r},{float(v2)!r},{z}"
        )


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

    # -- moving weak boundaries of Z5 ----------------------------------------

    def phi(self, t):
        """Left boundary of Z5 (radical form before T_3, parametric after)."""
        return self._z5_edge(self.timeline.side(1), t).x(t)

    def theta(self, t):
        """Right boundary of Z5 (radical form before T_6, parametric after)."""
        return self._z5_edge(self.timeline.side(2), t).x(t)

    def _z5_edge(self, side, t):
        """The boundary curve of Z5 on a side at time t: the early (radical)
        curve up to the side's fan death, the parametric curve after it."""
        T = self.timeline.times
        if t < T["T_int"] * (1 - LIFETIME_SLACK) or t > T["T_fin"] * (1 + LIFETIME_SLACK):
            raise DomainError(f"{side.curve} defined on [T_int, T_fin]")
        return self.timeline.curves[side.early if t <= T[side.death] else side.curve]

    # -- parametric-boundary roots -------------------------------------------

    def rho_star(self, t_star):
        """Root of t(rho, mu2) = t* near [q1, mu1]: phi's rho_of_t."""
        return self.timeline.curves["phi"].rho_of_t(t_star)

    def sigma_star(self, t_star):
        """Mirror root of t(mu1, rho) = t* near [mu2, q2]: theta's rho_of_t."""
        return self.timeline.curves["theta"].rho_of_t(t_star)

    # -- zone Z5: the implicit solution on the isochrone -------------------------

    def z5_profile(self, t_star, n=64) -> Segment:
        """Sample Z5 at time t*: n states at uniform x between its edges.

        Each end's position and state come from one boundary curve (the
        side's _z5_edge), so on a parametric curve both rest on the same
        root rho_of_t(t*).  The states between are read from the implicit
        solution itself, t(R1, R2) = t* and x(R1, R2) = x, by
        ImplicitSolution.invert; the ends are pinned to the edge states.
        """
        # _z5_edge raises DomainError outside [T_int, T_fin].
        edge_l, edge_r = (
            self._z5_edge(s, t_star) for s in self.timeline.sides.values()
        )
        xl, left = edge_l.x(t_star), edge_l.left_state(t_star)
        xr, right = edge_r.x(t_star), edge_r.left_state(t_star)

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

    def z9_profile(self, t_star, n=64) -> Segment:
        """One-parameter representation of Z9 at time t*.

        x(rho) = x(rho, mu2) + rho^2 mu2 (t* - t(rho, mu2)) for rho between
        the left-boundary value (q1, or the shock value after T_9) and the
        isochrone root rho* (mu1 after T_fin).
        """
        return self._transport_segment(self.timeline.side(1), t_star, n)

    def z10_profile(self, t_star, n=64) -> Segment:
        """Mirror of z9_profile: Z10 with R2 = rho between sigma* and q2 or Theta."""
        return self._transport_segment(self.timeline.side(2), t_star, n)

    def transport_x(self, side, rho, t_star):
        """Position reached at t* by the value rho leaving the Z5 boundary.

        rho may be a scalar or an array; an array is evaluated as a whole,
        with one hodograph t and one x call for all of its values.
        """
        s = self.timeline.side(side)
        R = s.pair(rho)
        tau = self.hodograph.t(*R)
        x0 = self.hodograph.x(*R)
        return x0 + lambda_k(s.k, *R) * (t_star - tau)

    def _transport_segment(self, side, t_star, n):
        """Sample a side's transport zone at n parameter values.

        The parameter runs from the Z5 boundary root (the side's parametric
        curve's rho_of_t(t*); the side's far value after T_fin) to the
        shock-side value (side.start before the shock forms).  The
        positions x(rho) of all samples come from one array evaluation of
        transport_x; they must increase strictly.
        """
        T = self.timeline.times
        if t_star < T[side.death] * (1 - LIFETIME_SLACK):
            raise DomainError(f"{side.zone} exists for t >= {side.death} only")
        if t_star <= T["T_fin"]:
            inner = self.timeline.curves[side.curve].rho_of_t(t_star)
        else:
            inner = side.far
        if t_star <= T[side.shock_event]:
            outer = side.start
        else:
            outer = self.timeline.curves[side.shock].rho_of_t(t_star)
        lo, hi = sorted((inner, outer))
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

    def tau_root(self, x, t):
        """Departure time tau of the 1-characteristic through (x, t) in Z9.

        Solves x = phi(tau) + R1^2 mu2 (t - tau) by inverting the transport
        map in the parameter rho; returns tau = t(rho, mu2).
        """
        p = self.params
        rho_hi = self.rho_star(t) if t <= self.timeline.times["T_fin"] else p.mu1
        f = lambda r: self.transport_x(1, r, t) - x
        f_lo, f_hi = f(p.q1), f(rho_hi)
        if f_lo * f_hi > 0:
            raise NoRootInInterval(f"({x}, {t}) is not inside zone Z9")
        rho = brentq(f, p.q1, rho_hi, xtol=TAU_XTOL, rtol=TAU_RTOL)
        return float(self.hodograph.t(rho, p.mu2))

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
        two outer plateaus are clipped to the window.
        """
        if t_star <= 0.0:
            raise DomainError("profiles exist for t > 0")
        intervals = self.timeline.zones_at(t_star)

        x_lo_active = intervals[0].x_right
        x_hi_active = intervals[-1].x_left
        span = max(x_hi_active - x_lo_active, 1.0)
        if window is None:
            window = (x_lo_active - 0.1 * span, x_hi_active + 0.1 * span)

        ends = [(window[0] if iv.x_left is None else iv.x_left,
                 window[1] if iv.x_right is None else iv.x_right) for iv in intervals]
        widths = [max(xr - xl, 0.0) for xl, xr in ends]
        total = sum(widths) or 1.0
        segments = [
            self._zone_segment(iv.zone, xl, xr, t_star, max(2, int(round(n * w / total))))
            for iv, (xl, xr), w in zip(intervals, ends, widths)
        ]
        return self._merge_segments(t_star, segments)

    def _zone_segment(self, zone, xl, xr, t_star, n_k) -> Segment:
        p = self.params
        desc = wavefield.zone_descriptor(p, zone)
        degenerate = (xr - xl) < DEGENERATE_WIDTH * max(1.0, abs(xl))
        if desc.content in ("plateau", "fan1", "fan2"):
            # A fan zone leaves its self-similar invariant unset (None).
            xs = np.array([xl]) if degenerate else np.linspace(xl, xr, n_k)
            R1 = (wavefield.fan_R1(p, xs, t_star) if desc.R1 is None
                  else np.full_like(xs, desc.R1))
            R2 = (wavefield.fan_R2(p, xs, t_star) if desc.R2 is None
                  else np.full_like(xs, desc.R2))
            return Segment(zone, xs, R1, R2)
        if desc.content == "goursat":
            return self.z5_profile(t_star, n_k)
        if desc.content == "transport1":
            return self.z9_profile(t_star, n_k)
        if desc.content == "transport2":
            return self.z10_profile(t_star, n_k)
        raise PhaseGap(f"no sampler for zone {zone}")

    def _merge_segments(self, t_star, segments) -> Profile:
        for a, b in zip(segments, segments[1:]):
            if abs(a.x[-1] - b.x[0]) > ASSEMBLY_GAP * max(1.0, abs(a.x[-1])):
                raise PhaseGap(
                    f"assembly gap between {a.zone} ({a.x[-1]}) and {b.zone} ({b.x[0]})"
                )
        x = np.concatenate([s.x for s in segments])
        R1 = np.concatenate([s.R1 for s in segments])
        R2 = np.concatenate([s.R2 for s in segments])
        zone = sum(([s.zone] * len(s.x) for s in segments), [])
        # Shared boundary samples may disagree in the last bit; enforce order.
        x = np.maximum.accumulate(x)
        u1, u2 = concentrations_from_invariants(self.params, R1, R2)
        return Profile(t_star, x, R1, R2, np.asarray(u1), np.asarray(u2), zone)


def profile_at(params_or_solver, t_star, n=1024, window=None) -> Profile:
    solver = (
        params_or_solver
        if isinstance(params_or_solver, ScenarioSolver)
        else ScenarioSolver(params_or_solver)
    )
    return solver.profile_at(t_star, n=n, window=window)
