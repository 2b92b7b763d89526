"""Numerical-analytical Cauchy solver for arbitrary piecewise initial data.

For initial invariants R1_0(x), R2_0(x) the implicit solution is

    t(a, b) = [ 2(b-a) - (r1+r2) F(a,b) + 2 r1 r2 G(a,b) ] / (r1 - r2)^3,

with r1 = R1_0(b), r2 = R2_0(a), F = int_a^b f, G = int_a^b g,
f = (R1_0 + R2_0)/(R1_0 R2_0) and g = 1/(R1_0 R2_0).  An isochrone
t(a, b) = t* is traced by the marching system

    da/dmu = -t_b,  db/dmu = t_a,
    dF/dmu = f(a) t_b + f(b) t_a,   dG/dmu = g(a) t_b + g(b) t_a,
    dX/dmu = (lambda2(r1,r2) - lambda1(r1,r2)) t_a t_b,

which preserves t exactly; the solution along it is R1 = R1_0(b(mu)),
R2 = R2_0(a(mu)) at x = X(mu).

Jumps of the data are handled by walking the completed graph of each
R-profile: a jump becomes a zero-width vertical segment swept in the
invariant value with positions and the F, G integrals frozen.  That is what
turns a data jump into a rarefaction fan in the marched profile; with both
feet pinned on verticals the formula above reduces exactly to the closed
hodograph solution of the two-point scenario.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    CoincidentInvariants,
    DomainError,
    FoldDetected,
    IntegrationFailure,
    LevelDrift,
    NoRootInInterval,
)
from .invariants import MixtureParams, lambda_k

_MU_RTOL = 1e-11
_MU_ATOL = 1e-13
#: minimum |r1 - r2| (relative) tolerated along a march.
_COINCIDENT = 1e-9


@dataclass(frozen=True)
class _Seg:
    """One segment of a completed data graph, parametrized by arclength s."""

    s0: float
    s1: float
    kind: str  # "h": x sweeps, r frozen; "v": x frozen, r sweeps
    x0: float
    x1: float
    r0: float
    r1: float
    f: float  # local f value (horizontal segments only)
    g: float

    def eval(self, s):
        if self.kind == "h":
            return self.x0 + (s - self.s0), self.r0, 1.0, 0.0
        frac = (s - self.s0) / (self.s1 - self.s0)
        slope = (self.r1 - self.r0) / (self.s1 - self.s0)
        return self.x0, self.r0 + frac * (self.r1 - self.r0), 0.0, slope


class _Graph:
    """Completed graph of one piecewise-constant profile r(x).

    Horizontal segments carry the per-piece f, g values of the underlying
    data (needed by the chain rule); verticals contribute no f, g.
    """

    def __init__(self, breakpoints, values, domain, f_vals, g_vals):
        self.segments = []
        s = 0.0
        x_lo, x_hi = domain
        edges = [x_lo, *breakpoints, x_hi]
        for i, r in enumerate(values):
            a, b = edges[i], edges[i + 1]
            self.segments.append(
                _Seg(s, s + (b - a), "h", a, b, r, r, f_vals[i], g_vals[i])
            )
            s += b - a
            if i < len(values) - 1 and values[i + 1] != r:
                dr = abs(values[i + 1] - r)
                self.segments.append(
                    _Seg(s, s + dr, "v", b, b, r, values[i + 1], 0.0, 0.0)
                )
                s += dr
        self.s_min = 0.0
        self.s_max = s
        self._starts = np.array([seg.s0 for seg in self.segments])

    def locate(self, s, direction=1):
        """Segment index containing s; ties at joints resolved by direction."""
        i = int(np.searchsorted(self._starts, s, side="right")) - 1
        i = max(0, min(i, len(self.segments) - 1))
        seg = self.segments[i]
        if direction > 0 and s >= seg.s1 and i + 1 < len(self.segments):
            return i + 1
        if direction < 0 and s <= seg.s0 and i > 0:
            return i - 1
        return i

    def s_of_x(self, x):
        """Arclength of a horizontal position (off-breakpoint)."""
        for seg in self.segments:
            if seg.kind == "h" and seg.x0 <= x <= seg.x1:
                return seg.s0 + (x - seg.x0)
        raise DomainError(f"position {x} outside the data domain")


@dataclass(frozen=True)
class PiecewiseInitialData:
    """Piecewise-constant initial invariants with a declared domain.

    values have one entry more than breakpoints; piece i covers
    (breakpoints[i-1], breakpoints[i]).  Requires R1_0 R2_0 != 0 and
    R1_0 < R2_0 on every piece.
    """

    breakpoints: tuple
    r1_values: tuple
    r2_values: tuple
    domain: tuple

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if not self.domain[0] < self.domain[1]:
            raise DomainError("the domain needs lo < hi")
        if bp.size and np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        if len(self.r1_values) != bp.size + 1 or len(self.r2_values) != bp.size + 1:
            raise DomainError("need one piece value more than breakpoints")
        if bp.size and (bp[0] <= self.domain[0] or bp[-1] >= self.domain[1]):
            raise DomainError("breakpoints must lie inside the declared domain")
        for r1, r2 in zip(self.r1_values, self.r2_values):
            if r1 * r2 == 0.0:
                raise DomainError("R1_0 * R2_0 must be nonzero on every piece")
            if not r1 < r2:
                raise DomainError("pieces must satisfy R1_0 < R2_0")

    @classmethod
    def from_scenario(cls, p: MixtureParams, pad: float = 10.0):
        """The two-plateau data of the mixture-separation scenario."""
        width = p.x2 - p.x1
        return cls(
            breakpoints=(p.x1, p.x2),
            r1_values=(p.mu1, p.q1, p.mu1),
            r2_values=(p.mu2, p.q2, p.mu2),
            domain=(p.x1 - pad * width, p.x2 + pad * width),
        )

    # -- derived tables -----------------------------------------------------

    def _edges(self):
        return np.array([self.domain[0], *self.breakpoints, self.domain[1]])

    def piece_of(self, x, side="right"):
        return int(np.searchsorted(np.asarray(self.breakpoints), x, side=side))

    def f_piece(self, i):
        return (self.r1_values[i] + self.r2_values[i]) / (
            self.r1_values[i] * self.r2_values[i]
        )

    def g_piece(self, i):
        return 1.0 / (self.r1_values[i] * self.r2_values[i])

    def F(self, xa, xb):
        """Exact integral of f over [xa, xb] for the piecewise data."""
        return self._integral(self.f_piece, xa, xb)

    def G(self, xa, xb):
        return self._integral(self.g_piece, xa, xb)

    def _integral(self, piece_fn, xa, xb):
        if xb < xa:
            return -self._integral(piece_fn, xb, xa)
        edges = self._edges()
        cuts = np.concatenate(([xa], edges[(edges > xa) & (edges < xb)], [xb]))
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            total += piece_fn(self.piece_of(0.5 * (lo + hi))) * (hi - lo)
        return total

    def graphs(self):
        f_vals = [self.f_piece(i) for i in range(len(self.r1_values))]
        g_vals = [self.g_piece(i) for i in range(len(self.r1_values))]
        ga = _Graph(self.breakpoints, self.r2_values, self.domain, f_vals, g_vals)
        gb = _Graph(self.breakpoints, self.r1_values, self.domain, f_vals, g_vals)
        return ga, gb


@dataclass
class AbPlaneState:
    """A point of the (a, b)-plane march with its accumulated integrals."""

    a: float
    b: float
    F: float
    G: float
    X: float
    r1: float
    r2: float
    t_star: float
    s_a: float = field(repr=False, default=0.0)
    s_b: float = field(repr=False, default=0.0)


def t_ab(data: PiecewiseInitialData, a: float, b: float) -> float:
    """Implicit solution time for the characteristic pair rooted at (a, b).

    At a breakpoint the value limits are taken from inside [a, b]:
    r1 = R1_0(b-), r2 = R2_0(a+).
    """
    r1 = data.r1_values[data.piece_of(b, side="left")]
    r2 = data.r2_values[data.piece_of(a, side="right")]
    return _t_formula(r1, r2, b - a, data.F(a, b), data.G(a, b))


def _coincident(r1, r2):
    return abs(r1 - r2) < _COINCIDENT * max(1.0, abs(r1), abs(r2))


def _t_formula(r1, r2, width, F, G):
    if _coincident(r1, r2):
        raise CoincidentInvariants("r1(b) and r2(a) coincide")
    return (2.0 * width - (r1 + r2) * F + 2.0 * r1 * r2 * G) / (r1 - r2) ** 3


def _parts(data, ga, gb, ia, ib, s_a, s_b, F, G):
    """t and its s-derivatives at a march point, using segment formulas.

    Within a segment the chain rule gives

        t_sb = (2 - (r1+r2) f(b) + 2 r1 r2 g(b)) / d^3 * x'(s_b) + t_r1 r'(s_b)
        t_sa = (-2 + (r1+r2) f(a) - 2 r1 r2 g(a)) / d^3 * x'(s_a) + t_r2 r'(s_a)

    with t_r1 = (-F + 2 r2 G)/d^3 - 3t/d and t_r2 = (-F + 2 r1 G)/d^3 + 3t/d.
    """
    seg_a = ga.segments[ia]
    seg_b = gb.segments[ib]
    X_a, r2, dXa, dr2 = seg_a.eval(s_a)
    X_b, r1, dXb, dr1 = seg_b.eval(s_b)
    if _coincident(r1, r2):
        raise CoincidentInvariants("march entered a coincident-invariant region")
    d = r1 - r2
    d3 = d**3
    t = (2.0 * (X_b - X_a) - (r1 + r2) * F + 2.0 * r1 * r2 * G) / d3
    t_r1 = (-F + 2.0 * r2 * G) / d3 - 3.0 * t / d
    t_r2 = (-F + 2.0 * r1 * G) / d3 + 3.0 * t / d
    fa = seg_a.f if seg_a.kind == "h" else 0.0
    gav = seg_a.g if seg_a.kind == "h" else 0.0
    fb = seg_b.f if seg_b.kind == "h" else 0.0
    gbv = seg_b.g if seg_b.kind == "h" else 0.0
    t_sb = (2.0 - (r1 + r2) * fb + 2.0 * r1 * r2 * gbv) / d3 * dXb + t_r1 * dr1
    t_sa = (-2.0 + (r1 + r2) * fa - 2.0 * r1 * r2 * gav) / d3 * dXa + t_r2 * dr2
    return t, t_sa, t_sb, r1, r2, fa, gav, fb, gbv, dXa, dXb


def seed_point(data: PiecewiseInitialData, a_star: float, b_star: float):
    """Integrate along the characteristic a = a* to get (X*, F*, G*).

    Solves dY/db = lambda2(r1(b), r2(a*)) t_b(a*, b) from Y(a*) = a*
    together with the running integrals F, G; jump crossings restart the
    integrator on the next graph segment.
    """
    if b_star < a_star:
        raise DomainError("seed needs a* <= b*")
    ga, gb = data.graphs()
    s_a = ga.s_of_x(a_star)
    ia = ga.locate(s_a)
    s_b_end = gb.s_of_x(b_star)
    s_b = gb.s_of_x(a_star)

    y = np.array([a_star, 0.0, 0.0])  # Y, F, G
    while s_b < s_b_end - 1e-14:
        ib = gb.locate(s_b, direction=1)
        seg_end = min(gb.segments[ib].s1, s_b_end)

        def rhs(s, yv):
            _, _, t_sb, r1, r2, _, _, fb, gbv, _, dXb = _parts(
                data, ga, gb, ia, ib, s_a, s, yv[1], yv[2]
            )
            return (
                lambda_k(2, r1, r2) * t_sb,
                fb * dXb,
                gbv * dXb,
            )

        sol = solve_ivp(
            rhs, (s_b, seg_end), y, method="RK45",
            rtol=_MU_RTOL, atol=_MU_ATOL,
        )
        if not sol.success:
            raise IntegrationFailure(f"seed integration failed: {sol.message}")
        y = sol.y[:, -1]
        s_b = seg_end

    X_star, F_star, G_star = y
    r1 = gb.segments[gb.locate(s_b_end, direction=-1)].eval(s_b_end)[1]
    r2 = ga.segments[ia].eval(s_a)[1]
    t_star = _t_formula(r1, r2, b_star - a_star, F_star, G_star)
    return AbPlaneState(
        a=a_star, b=b_star, F=F_star, G=G_star, X=X_star,
        r1=r1, r2=r2, t_star=t_star, s_a=s_a, s_b=s_b_end,
    )


@dataclass
class MarchResult:
    """Isochrone march output: samples ordered by x plus diagnostics."""

    t_star: float
    x: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    a: np.ndarray
    b: np.ndarray
    F: np.ndarray
    G: np.ndarray
    knots: list  # x positions where the march crossed a data breakpoint
    status: dict  # per-direction termination reason
    max_drift: float


def march_isochrone(
    data: PiecewiseInitialData,
    seed: AbPlaneState,
    x_window,
    max_arc: float = 1e4,
    density: float = 256.0,
) -> MarchResult:
    """Trace the isochrone through the seed in both directions.

    Each direction runs until the physical position leaves x_window, a data
    graph ends, or the map folds (t_sa * t_sb changes sign, i.e. the
    Jacobian proxy (lambda2 - lambda1) t_a t_b vanishes); folds terminate
    the direction without continuation and are recorded in status.
    """
    ga, gb = data.graphs()
    t_star = seed.t_star
    chunks = []
    status = {}
    knots = set()
    max_drift = 0.0

    for direction in (+1, -1):
        y = np.array([seed.s_a, seed.s_b, seed.F, seed.G, seed.X])
        sign_a = sign_b = 1
        prev_dx_sign = 0.0
        arc_used = 0.0
        reason = "arc-budget"
        while arc_used < max_arc:
            at_edge = (
                y[0] <= ga.s_min + 1e-12 or y[0] >= ga.s_max - 1e-12
                or y[1] <= gb.s_min + 1e-12 or y[1] >= gb.s_max - 1e-12
            )
            picked = _pick_segments(data, ga, gb, y, direction, sign_a, sign_b)
            if picked is None:
                reason = "domain" if at_edge else "fold"
                break
            ia, ib, sign_a, sign_b, dx = picked
            dx_sign = math.copysign(1.0, dx) if dx != 0.0 else 0.0
            if dx_sign == 0.0 or (prev_dx_sign and dx_sign != prev_dx_sign):
                reason = "fold"
                break
            prev_dx_sign = dx_sign

            run, stop, y, arc = _march_run(
                data, ga, gb, ia, ib, y, direction, t_star, x_window,
                max_arc - arc_used, density,
            )
            if arc <= 1e-13:
                reason = "fold" if stop == "fold" else stop
                break
            arc_used += arc
            if run is not None:
                chunks.append(run)
                max_drift = max(max_drift, run["drift"])
            if stop == "segment":
                knots.add(float(run["x"][-1]))
                continue
            reason = stop
            break
        status[direction] = reason

    if not chunks:
        if "fold" in status.values():
            raise FoldDetected(
                f"isochrone march folded immediately at the seed (t* = {t_star})"
            )
        raise IntegrationFailure("march produced no samples")
    out = MarchResult(
        t_star=t_star,
        x=np.concatenate([c["x"] for c in chunks]),
        R1=np.concatenate([c["R1"] for c in chunks]),
        R2=np.concatenate([c["R2"] for c in chunks]),
        a=np.concatenate([c["a"] for c in chunks]),
        b=np.concatenate([c["b"] for c in chunks]),
        F=np.concatenate([c["F"] for c in chunks]),
        G=np.concatenate([c["G"] for c in chunks]),
        knots=sorted(knots),
        status=status,
        max_drift=max_drift,
    )
    order = np.argsort(out.x, kind="stable")
    for name in ("x", "R1", "R2", "a", "b", "F", "G"):
        setattr(out, name, getattr(out, name)[order])
    return out


def _pick_segments(data, ga, gb, y, direction, sign_a, sign_b):
    """Choose graph segments at a run start so motion points into them.

    At a joint the incoming motion sign proposes the next segment; if the
    tangent there pushes back out, the other side is taken with the flipped
    sign.  Returns (ia, ib, sign_a, sign_b, dX/dmu) or None if no consistent
    choice exists (the march cannot continue smoothly).
    """

    def tangent(ia, ib):
        t, t_sa, t_sb, r1, r2, *_ = _parts(
            data, ga, gb, ia, ib, y[0], y[1], y[2], y[3]
        )
        dsa = -t_sb * direction
        dsb = t_sa * direction
        dx = (lambda_k(2, r1, r2) - lambda_k(1, r1, r2)) * t_sa * t_sb * direction
        return dsa, dsb, dx

    for try_a in (sign_a, -sign_a):
        for try_b in (sign_b, -sign_b):
            ia = ga.locate(y[0], direction=try_a)
            ib = gb.locate(y[1], direction=try_b)
            try:
                dsa, dsb, dx = tangent(ia, ib)
            except CoincidentInvariants:
                continue
            ok_a = _consistent(y[0], ga.segments[ia], dsa)
            ok_b = _consistent(y[1], gb.segments[ib], dsb)
            if ok_a and ok_b:
                return ia, ib, (1 if dsa >= 0 else -1), (1 if dsb >= 0 else -1), dx
    return None


def _consistent(s, seg, ds):
    """Motion ds at point s does not immediately leave segment seg."""
    at_lo = abs(s - seg.s0) < 1e-12 * max(1.0, seg.s1)
    at_hi = abs(s - seg.s1) < 1e-12 * max(1.0, seg.s1)
    if at_lo and ds < 0:
        return False
    if at_hi and ds > 0:
        return False
    return seg.s0 - 1e-12 <= s <= seg.s1 + 1e-12


def _march_run(data, ga, gb, ia, ib, y0, direction, t_star, x_window,
               arc_budget, density):
    """Integrate one smooth run (fixed graph segments) of the march."""
    seg_a = ga.segments[ia]
    seg_b = gb.segments[ib]

    def rhs(mu, y):
        t, t_sa, t_sb, r1, r2, fa, gav, fb, gbv, dXa, dXb = _parts(
            data, ga, gb, ia, ib, y[0], y[1], y[2], y[3]
        )
        norm = math.hypot(t_sa, t_sb)
        if norm == 0.0:
            return (0.0, 0.0, 0.0, 0.0, 0.0)
        k = direction / norm
        lam = lambda_k(2, r1, r2) - lambda_k(1, r1, r2)
        return (
            -t_sb * k,
            t_sa * k,
            (fa * dXa * t_sb + fb * dXb * t_sa) * k,
            (gav * dXa * t_sb + gbv * dXb * t_sa) * k,
            lam * t_sa * t_sb * k,
        )

    d0 = rhs(0.0, y0)

    def ev_seg_a(mu, y):
        return y[0] - (seg_a.s1 if d0[0] >= 0 else seg_a.s0)

    def ev_seg_b(mu, y):
        return y[1] - (seg_b.s1 if d0[1] >= 0 else seg_b.s0)

    def ev_x_lo(mu, y):
        return y[4] - x_window[0]

    def ev_x_hi(mu, y):
        return y[4] - x_window[1]

    def ev_fold(mu, y):
        _, t_sa, t_sb, *_ = _parts(data, ga, gb, ia, ib, y[0], y[1], y[2], y[3])
        return t_sa * t_sb

    events = (ev_seg_a, ev_seg_b, ev_x_lo, ev_x_hi, ev_fold)
    for ev in events:
        ev.terminal = True

    sol = solve_ivp(
        rhs, (0.0, arc_budget), y0, method="RK45",
        rtol=_MU_RTOL, atol=_MU_ATOL, dense_output=True,
        events=events,
    )
    if not sol.success and sol.status != 1:
        raise IntegrationFailure(f"march run failed: {sol.message}")

    stop = "arc-budget"
    mu_end = sol.t[-1]
    if sol.status == 1:
        first = None
        for i, te in enumerate(sol.t_events):
            if te.size and (first is None or te[0] < mu_end):
                mu_end = te[0]
                first = i
        stop = {0: "segment", 1: "segment", 2: "window", 3: "window", 4: "fold"}[first]

    if mu_end <= 1e-13:
        return None, stop, y0, 0.0

    n = max(9, int(mu_end * density))
    ys = sol.sol(np.linspace(0.0, mu_end, n))
    run = _sample_run(seg_a, seg_b, ys, t_star)
    y_next = ys[:, -1].copy()
    # Snap the segment coordinate exactly onto the boundary we stopped at.
    if stop == "segment":
        for idx, seg in ((0, seg_a), (1, seg_b)):
            for edge in (seg.s0, seg.s1):
                if abs(y_next[idx] - edge) < 1e-10:
                    y_next[idx] = edge
    return run, stop, y_next, mu_end


def _sample_run(seg_a, seg_b, ys, t_star):
    """Fields of one run's dense samples, ys with rows (s_a, s_b, F, G, X).

    Evaluates t as _parts does, on whole arrays of the run's fixed segments,
    and raises LevelDrift if it strays from t_star by more than 1e-8 t*.
    """
    a, r2 = seg_a.eval(ys[0])[:2]
    b, r1 = seg_b.eval(ys[1])[:2]
    n = ys.shape[1]
    r1, r2, a, b = (np.broadcast_to(np.asarray(v, dtype=float), n) for v in (r1, r2, a, b))
    d = r1 - r2
    if np.any(np.abs(d) < _COINCIDENT * np.maximum(1.0, np.maximum(np.abs(r1), np.abs(r2)))):
        raise CoincidentInvariants("march entered a coincident-invariant region")
    # The C library's pow per value, as in _parts: numpy's array power may
    # round differently in the last bit.
    d3 = np.array([v**3 for v in d.tolist()])
    t = (2.0 * (b - a) - (r1 + r2) * ys[2] + 2.0 * r1 * r2 * ys[3]) / d3
    drift = np.fmax.reduce(np.abs(t - t_star), initial=0.0)
    if drift > 1e-8 * max(abs(t_star), 1e-12):
        raise LevelDrift(f"isochrone march drifted by {drift} at t* = {t_star}")
    return {
        "x": ys[4], "R1": r1.copy(), "R2": r2.copy(), "a": a.copy(), "b": b.copy(),
        "F": ys[2], "G": ys[3], "drift": drift,
    }


def t_ray(data: PiecewiseInitialData, a=None, b=None):
    """t(a, b) along a ray of the (a, b)-plane with one foot held fixed.

    Give exactly one of a, b.  Returns v -> t(a, v) or v -> t(v, b) for a
    scalar or array v strictly on its side of the fixed foot (v > a, resp.
    v < b; DomainError otherwise), NaN where r1 and r2 coincide (where t_ab
    raises CoincidentInvariants).

    Every value is bitwise equal to t_ab's: the integrals F, G are summed
    term by term in _integral's order.  The fixed foot, the data edges
    between the feet and the value of the fixed foot's invariant do not
    depend on where v lies inside one gap between consecutive edges, so
    each gap's terms, constant factors and (r1 - r2)^3 are computed once
    here and only the term touching v is evaluated per point.
    """
    if (a is None) == (b is None):
        raise ValueError("fix exactly one foot of the ray")
    edges = data._edges()
    bp = np.asarray(data.breakpoints)
    last = len(data.r1_values) - 1
    f = np.array([data.f_piece(i) for i in range(last + 1)])
    g = np.array([data.g_piece(i) for i in range(last + 1)])

    def terms(cuts):
        """_integral's summands over consecutive cuts, for F and for G."""
        out = []
        for lo, hi in zip(cuts, cuts[1:]):
            i = data.piece_of(0.5 * (lo + hi))
            out.append((data.f_piece(i) * (hi - lo), data.g_piece(i) * (hi - lo)))
        return out

    def factors(r1, r2):
        """r1 + r2, 2 r1 r2 and (r1 - r2)^3 of _t_formula; NaN if coincident."""
        d3 = math.nan if _coincident(r1, r2) else (r1 - r2) ** 3
        return r1 + r2, 2.0 * r1 * r2, d3

    # Gap k holds the points with k edges below them (a-fixed: edges < v;
    # b-fixed: edges <= v); the piece of the moving foot is k - 1 clipped.
    if b is None:
        r2 = data.r2_values[data.piece_of(a)]
        first = int(np.searchsorted(edges, a, side="right"))
        cuts = [a, *edges[first:]]  # the last cut below v in gap first + j is cuts[j]
        pre_f, pre_g = [0.0], [0.0]
        for tf, tg in terms(cuts):
            pre_f.append(pre_f[-1] + tf)
            pre_g.append(pre_g[-1] + tg)
        s, p, d3 = np.array([
            factors(data.r1_values[min(max(k - 1, 0), last)], r2)
            for k in range(first, edges.size + 1)
        ]).T
        cuts, pre_f, pre_g = np.array(cuts), np.array(pre_f), np.array(pre_g)

        def along_b(v):
            if np.any(v <= a):
                raise DomainError(f"ray from a = {a} needs b > a")
            j = np.searchsorted(edges, v, side="left") - first
            c = cuts[j]
            i = np.searchsorted(bp, 0.5 * (c + v), side="right")
            F = pre_f[j] + f[i] * (v - c)
            G = pre_g[j] + g[i] * (v - c)
            return (2.0 * (v - a) - s[j] * F + p[j] * G) / d3[j]

        return along_b

    r1 = data.r1_values[data.piece_of(b, side="left")]
    stop = int(np.searchsorted(edges, b, side="left"))
    cuts = np.array([*edges[:stop], b])  # the first cut above v in gap k is cuts[k]
    tail = terms(cuts)
    s, p, d3 = np.array([
        factors(r1, data.r2_values[min(max(k - 1, 0), last)]) for k in range(stop + 1)
    ]).T

    def along_a(v):
        if np.any(v >= b):
            raise DomainError(f"ray from b = {b} needs a < b")
        k = np.searchsorted(edges, v, side="right")
        c = cuts[k]
        i = np.searchsorted(bp, 0.5 * (v + c), side="right")
        # 0.0 + as in _integral's running total (it turns -0.0 into 0.0).
        F = 0.0 + f[i] * (c - v)
        G = 0.0 + g[i] * (c - v)
        for j in range(int(np.min(k)), stop):
            later = k <= j
            F = np.where(later, F + tail[j][0], F)
            G = np.where(later, G + tail[j][1], G)
        return (2.0 * (b - v) - s[k] * F + p[k] * G) / d3[k]

    return along_a


def level_map(data: PiecewiseInitialData, rect, resolution=96):
    """Sampled field t(a, b) over a rectangle, for seed hunting."""
    a = np.linspace(rect[0], rect[1], resolution)
    b = np.linspace(rect[2], rect[3], resolution)
    T = np.full((resolution, resolution), np.nan)
    for i, av in enumerate(a):
        right = b > av
        if right.any():
            T[i, right] = t_ray(data, a=av)(b[right])
    return a, b, T


def _level_crossings(ray, rows, t_star):
    """Points where ray(v) = t_star, scanning each row of v in order.

    A sample that hits t_star exactly counts when its right neighbour is a
    number; a sign change between neighbours is refined by brentq on the
    ray itself.  Neighbours in different rows never form a bracket.
    """
    if not rows:
        return
    vv = np.concatenate(rows)
    vals = ray(vv) - t_star
    pair = np.ones(vv.size - 1, dtype=bool)
    pair[np.cumsum([len(r) for r in rows])[:-1] - 1] = False
    hit = pair & (vals[:-1] == 0.0) & ~np.isnan(vals[1:])
    cross = pair & (vals[:-1] * vals[1:] < 0)
    for k in np.flatnonzero(hit | cross):
        if hit[k]:
            yield vv[k]
        else:
            yield brentq(
                lambda v: ray(v) - t_star, vv[k], vv[k + 1], xtol=1e-15, rtol=8.9e-16,
            )


def find_seed(data: PiecewiseInitialData, t_star, a_fixed=None, b_fixed=None,
              resolution=128):
    """Locate (a*, b*) with t(a*, b*) = t* by scan plus bisection.

    With a_fixed (or b_fixed) given, bisection runs along that ray;
    otherwise rows of a coarse level map are scanned piece by piece and
    refined.  Brackets never straddle a breakpoint.  Seeds whose feet sit
    in different data pieces are preferred: a bracket with both feet in one
    piece lies on a constant-state arc, which is trivial and usually a
    characteristic-crossing ghost rather than the branch carrying the wave
    structure.  Each row is evaluated by one t_ray call.
    """
    lo, hi = data.domain
    edges = [lo, *data.breakpoints, hi]
    eps = 1e-12 * (hi - lo)

    def seeds_along_b(av):
        rows = [
            np.linspace(max(e0, av) + eps, e1, resolution)
            for e0, e1 in zip(edges, edges[1:]) if e1 > av
        ]
        return ((av, bv) for bv in _level_crossings(t_ray(data, a=av), rows, t_star))

    def preferred(seeds):
        fallback = None
        for av, bv in seeds:
            if data.piece_of(av, side="right") != data.piece_of(bv, side="left"):
                return av, bv
            if fallback is None:
                fallback = (av, bv)
        return fallback

    if a_fixed is not None:
        seed = preferred(seeds_along_b(a_fixed))
        if seed is None:
            raise NoRootInInterval(f"no seed with t = {t_star} on a = {a_fixed}")
        return seed
    if b_fixed is not None:
        rows = [
            np.linspace(e0, min(e1, b_fixed) - eps, resolution)
            for e0, e1 in zip(edges, edges[1:]) if e0 < b_fixed
        ]
        for av in _level_crossings(t_ray(data, b=b_fixed), rows, t_star):
            return av, b_fixed
        raise NoRootInInterval(f"no seed with t = {t_star} on b = {b_fixed}")
    seed = preferred(
        itertools.chain.from_iterable(
            seeds_along_b(av) for av in np.linspace(lo, hi, resolution)
        )
    )
    if seed is None:
        raise NoRootInInterval(f"no seed found for t = {t_star} in the data domain")
    return seed


def general_profile(
    data: PiecewiseInitialData,
    t_star: float,
    x_window,
    mobilities: Optional[tuple] = None,
    seed_at=None,
    density: float = 256.0,
):
    """End-to-end general Cauchy solve: seed, march, and sample fields.

    Returns a MarchResult augmented with u1/u2 when mobilities are given.
    """
    if seed_at is None:
        a_star, b_star = find_seed(data, t_star)
    else:
        a_star, b_star = seed_at
    seed = seed_point(data, a_star, b_star)
    if abs(seed.t_star - t_star) > 1e-9 * max(1.0, t_star):
        # find_seed roots t_ab exactly; seed_point recomputes from integrals.
        raise LevelDrift(
            f"seed time {seed.t_star} disagrees with requested {t_star}"
        )
    seed = replace(seed, t_star=t_star)
    result = march_isochrone(data, seed, x_window, density=density)
    if mobilities is not None:
        from .invariants import u_from_mobilities

        u1, u2 = u_from_mobilities(mobilities[0], mobilities[1], result.R1, result.R2)
        result.u1 = np.asarray(u1)
        result.u2 = np.asarray(u2)
    return result
