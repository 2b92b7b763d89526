"""Numerical-analytical Cauchy solver for arbitrary piecewise initial data.

For initial invariants R1_0(x), R2_0(x) the implicit solution is

    t(a, b) = [ 2(b-a) - (r1+r2) F(a,b) + 2 r1 r2 G(a,b) ] / (r1 - r2)^3,

with r1 = R1_0(b), r2 = R2_0(a), F = int_a^b f, G = int_a^b g,
f = (R1_0 + R2_0)/(R1_0 R2_0) and g = 1/(R1_0 R2_0).  For piecewise-constant
data F and G are closed forms of the feet a <= b, piecewise linear in each,
read from one table of the data (PiecewiseInitialData).  So is the position
X(a, b) where the two characteristics meet (_position).  The paper traces an
isochrone t(a, b) = t* by the level-line system

    da/dmu = -t_b,  db/dmu = t_a,

and reads the solution R1 = R1_0(b), R2 = R2_0(a) at x = X(a, b) along it.
Jumps of the data are walked on the completed graph of each R-profile: a
jump is a vertical segment swept in the invariant with the position, and so
F and G, frozen; that turns a data jump into a rarefaction fan, and with
both feet on verticals t(a, b) is the two-point hodograph solution.  A march
run keeps both feet on fixed graph segments, and there the level line is
explicit (_level_line): a straight line with both feet horizontal, the
moving foot rational in the swept invariant with one foot on a jump, and a
root of a cubic with both on jumps.  So each run is solved in closed form;
the tests keep the RK45 march of the system above as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    CoincidentInvariants,
    DomainError,
    FoldDetected,
    IntegrationFailure,
    LevelDrift,
    NoRootInInterval,
)
from .invariants import MixtureParams, lambda_k, u_from_mobilities
from .wavefield import bracketed_newton

#: minimum |r1 - r2| (relative) tolerated along a march: t has a pole there.
_COINCIDENT = 1e-9
#: largest |t - t*| along a march, relative to t*: beyond it the level line is lost.
_DRIFT = 1e-8
#: largest |t(seed) - t*| relative to max(1, t*): the seed must keep find_seed's level.
_SEED_AGREE = 1e-9
#: a point this close (relative) to a graph joint or a data edge sits on it.
_EDGE = 1e-12
#: find_seed's scan: this many rows of a across the domain, and samples of b
#: per data piece in each row.
_SCAN_RESOLUTION = 128
#: a march direction stops once its runs' chords sum to this arclength.
_MAX_ARC = 1e4
#: march samples per unit chord of a run (at least 9 per run).
_DENSITY = 256.0


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
            return s - (self.s0 - self.x0), self.r0, 1.0, 0.0
        frac = (s - self.s0) / (self.s1 - self.s0)
        slope = (self.r1 - self.r0) / (self.s1 - self.s0)
        return self.x0, self.r0 + frac * (self.r1 - self.r0), 0.0, slope


class _Graph:
    """Completed graph of one piecewise-constant profile r(x).

    Horizontal segments carry the per-piece f, g values of the underlying
    data (needed by the chain rule); verticals carry f = g = 0.
    """

    def __init__(self, breakpoints, values, domain, f_vals, g_vals):
        self.segments = []
        x_lo, x_hi = domain
        s = float(x_lo)  # so s - x is the sum of the jumps left of x: s keeps x's rounding
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
        self.s_min = float(x_lo)
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

    def s_of_x(self, x, side="left"):
        """Arclength of a horizontal position.  On a breakpoint, side picks
        the end of the piece on the left (x-) or the start of the piece on
        the right (x+); a jump's vertical segment lies between the two."""
        hits = [x + (seg.s0 - seg.x0) for seg in self.segments
                if seg.kind == "h" and seg.x0 <= x <= seg.x1]
        if not hits:
            raise DomainError(f"position {x} outside the data domain")
        return hits[0] if side == "left" else hits[-1]


class _Table(NamedTuple):
    """Integral table of n pieces; the outer two extend to -inf and +inf."""

    breakpoints: np.ndarray
    lo: np.ndarray  # lower edge of each piece
    hi: np.ndarray  # upper edge of each piece
    f: np.ndarray
    g: np.ndarray
    between_f: np.ndarray  # [i, j]: f over the whole pieces strictly between i < j
    between_g: np.ndarray
    r1: np.ndarray
    r2: np.ndarray  # [i, j]: r2 of piece i, NaN where it coincides with r1 of piece j


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

    @cached_property
    def _table(self) -> _Table:
        bp = np.asarray(self.breakpoints, dtype=float)
        lo = np.concatenate(([-np.inf], bp))
        hi = np.concatenate((bp, [np.inf]))
        r1 = np.asarray(self.r1_values, dtype=float)
        r2 = np.asarray(self.r2_values, dtype=float)
        f = (r1 + r2) / (r1 * r2)
        g = 1.0 / (r1 * r2)

        def between(v):
            out = np.zeros((v.size, v.size))
            for i in range(v.size - 2):
                out[i, i + 2:] = np.cumsum(v[i + 1:-1] * np.diff(bp)[i:])
            return out

        r2_pair = [[np.nan if _coincident(v1, v2) else v2 for v1 in r1] for v2 in r2]
        return _Table(bp, lo, hi, f, g, between(f), between(g), r1, np.array(r2_pair))

    def _integrals(self, a, b):
        """Pieces ia, ib of the feet a <= b and F, G over [a, b]; arrays broadcast.

        Foot a lies in its piece on the right (a+), b in its piece on the
        left (b-).  F is f(a) times a's part of its piece, plus the whole
        pieces between, plus f(b) times b's part of its piece; with both feet
        in one piece the first part is b - a and the others are zero.  G alike.
        """
        tab = self._table
        ia = tab.breakpoints.searchsorted(a, side="right")
        ib = tab.breakpoints.searchsorted(b, side="left")
        cut = np.minimum(b, tab.hi[ia])  # where a's part of the interval ends
        wa = cut - a
        wb = b - np.maximum(cut, tab.lo[ib])
        F = tab.f[ia] * wa + tab.between_f[ia, ib] + tab.f[ib] * wb
        G = tab.g[ia] * wa + tab.between_g[ia, ib] + tab.g[ib] * wb
        return ia, ib, F, G

    @cached_property
    def graphs(self):
        """The graphs of R2_0 (foot a) and R1_0 (foot b), shared: nothing mutates a _Graph."""
        f_vals, g_vals = self._table.f.tolist(), self._table.g.tolist()
        ga = _Graph(self.breakpoints, self.r2_values, self.domain, f_vals, g_vals)
        gb = _Graph(self.breakpoints, self.r1_values, self.domain, f_vals, g_vals)
        return ga, gb


@dataclass
class AbPlaneState:
    """A point of the (a, b)-plane march."""

    a: float
    b: float
    X: float
    r1: float
    r2: float
    t_star: float
    s_a: float = field(repr=False, default=0.0)
    s_b: float = field(repr=False, default=0.0)


def _coincident(r1, r2):
    return abs(r1 - r2) < _COINCIDENT * max(1.0, abs(r1), abs(r2))


def _level(width, r1, r2, F, G):
    """The implicit time t from its parts, for scalars or arrays."""
    d = r1 - r2
    return (2.0 * width - (r1 + r2) * F + 2.0 * r1 * r2 * G) / (d * d * d)


def _t_feet(data, a, b):
    """t(a, b) for feet a <= b (arrays broadcast) from data's integral table.

    r1 = R1_0(b-) and r2 = R2_0(a+); NaN where they coincide.
    """
    ia, ib, F, G = data._integrals(a, b)
    return _level(b - a, data._table.r1[ib], data._table.r2[ia, ib], F, G)


def t_ab(data: PiecewiseInitialData, a: float, b: float) -> float:
    """Implicit solution time for the characteristic pair rooted at a <= b.

    At a breakpoint the value limits are taken from inside [a, b]:
    r1 = R1_0(b-), r2 = R2_0(a+).
    """
    if b < a:
        raise DomainError(f"t(a, b) needs a <= b, got a = {a}, b = {b}")
    t = float(_t_feet(data, a, b))
    if math.isnan(t):
        raise CoincidentInvariants("r1(b) and r2(a) coincide")
    return t


def _anchor(data, seg_a, seg_b, s_a, s_b):
    """The start of a run: its feet (a0, b0), their exact F0 and G0, then
    per R1_0 jump x_k between the feet (right of seg_a's start, not right of
    seg_b's) the tuple (x_k, R1_0(x_k-), R1_0(x_k+), F(a0, x_k), G(a0, x_k)),
    with None for R1_0(x_k+) on b's own jump (seg_b a vertical)."""
    a0, b0 = seg_a.eval(s_a)[0], seg_b.eval(s_b)[0]
    tab = data._table
    k = np.flatnonzero((seg_a.x0 < tab.breakpoints) & (tab.breakpoints <= seg_b.x0))
    F, G = (v.tolist() for v in data._integrals(a0, np.append(b0, tab.breakpoints[k]))[2:])
    r_hi = tab.r1[k + 1].tolist()
    if seg_b.kind == "v" and seg_a.x0 < seg_b.x0:
        r_hi[-1] = None
    jumps = zip(tab.breakpoints[k].tolist(), tab.r1[k].tolist(), r_hi, F[1:], G[1:])
    return (a0, b0, F[0], G[0], *jumps)


def _continued(seg_a, seg_b, a, b, anchor):
    """F and G at feet (a, b) of a run on fixed segments, from its anchor.

    Inside a run F = F0 - f(a) (a - a0) + f(b) (b - b0), exactly; G alike.
    """
    a0, b0, F0, G0, *_ = anchor
    return (
        F0 - seg_a.f * (a - a0) + seg_b.f * (b - b0),
        G0 - seg_a.g * (a - a0) + seg_b.g * (b - b0),
    )


def _position(seg_a, a, r1, r2, t, anchor):
    """X(a, b) at feet a, invariants r1, r2 and time t = t(a, b) of a run,
    scalars or arrays: where the 2-characteristic from a meets the
    1-characteristic from b.  Along the former dX = r1 r2^2 dt from X = a,
    so X = a + r2^2 (r1 t - int t dr1).  r1 changes only on the R1_0 jumps
    x_k between the feet, where t = alpha/e^3 + beta/e^2 in e = r1 - r2 with
    alpha = 2 ((x_k - a) - r2 F_k + r2^2 G_k), beta = 2 r2 G_k - F_k and
    F_k = F(a, x_k), G_k alike, continued from the anchor as in _continued.
    A jump adds alpha/(2e^2) + beta/e between its limits, upper r1 - r2 on
    b's own jump.
    """
    a0, _, _, _, *jumps = anchor
    total = r1 * t
    for xk, r_lo, r_hi, Fk, Gk in jumps:
        Fk, Gk = Fk - seg_a.f * (a - a0), Gk - seg_a.g * (a - a0)
        alpha = 2.0 * ((xk - a) - r2 * Fk + r2 * r2 * Gk)
        beta = 2.0 * r2 * Gk - Fk
        for e, sign in (((r1 if r_hi is None else r_hi) - r2, 1.0), (r_lo - r2, -1.0)):
            total = total + sign * (0.5 * alpha / e + beta) / e
    return a + r2 * r2 * total


def _parts(seg_a, seg_b, s_a, s_b, anchor):
    """t, its s-derivatives and (r1, r2) at points of a run, scalars or arrays.

    F and G continue the run's anchor (_continued).  Within a segment the
    chain rule gives

        t_sb = (2 - (r1+r2) f(b) + 2 r1 r2 g(b)) / d^3 * x'(s_b) + t_r1 r'(s_b)
        t_sa = (-2 + (r1+r2) f(a) - 2 r1 r2 g(a)) / d^3 * x'(s_a) + t_r2 r'(s_a)

    with t_r1 = (-F + 2 r2 G)/d^3 - 3t/d and t_r2 = (-F + 2 r1 G)/d^3 + 3t/d.
    The caller rules out d = r1 - r2 = 0.
    """
    a, r2, dXa, dr2 = seg_a.eval(s_a)
    b, r1, dXb, dr1 = seg_b.eval(s_b)
    F, G = _continued(seg_a, seg_b, a, b, anchor)
    d = r1 - r2
    d3 = d * d * d
    t = _level(b - a, r1, r2, F, G)
    t_r1 = (-F + 2.0 * r2 * G) / d3 - 3.0 * t / d
    t_r2 = (-F + 2.0 * r1 * G) / d3 + 3.0 * t / d
    t_sb = (2.0 - (r1 + r2) * seg_b.f + 2.0 * r1 * r2 * seg_b.g) / d3 * dXb + t_r1 * dr1
    t_sa = (-2.0 + (r1 + r2) * seg_a.f - 2.0 * r1 * r2 * seg_a.g) / d3 * dXa + t_r2 * dr2
    return t, t_sa, t_sb, r1, r2


def seed_point(data: PiecewiseInitialData, a_star: float, b_star: float):
    """The (a, b)-plane point at feet (a*, b*): t* = t_ab(a*, b*) and X* by
    _position.  As in t_ab, r1 = R1_0(b*-) and r2 = R2_0(a*+)."""
    t_star = t_ab(data, a_star, b_star)  # DomainError for b* < a*
    ga, gb = data.graphs
    s_a = ga.s_of_x(a_star, side="right")
    s_b = gb.s_of_x(b_star)
    seg_a = ga.segments[ga.locate(s_a)]
    seg_b = gb.segments[gb.locate(s_b, direction=-1)]
    r1, r2 = seg_b.eval(s_b)[1], seg_a.eval(s_a)[1]
    X = _position(seg_a, a_star, r1, r2, t_star, _anchor(data, seg_a, seg_b, s_a, s_b))
    return AbPlaneState(
        a=a_star, b=b_star, X=X, r1=r1, r2=r2, t_star=t_star, s_a=s_a, s_b=s_b,
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
    knots: list  # x positions where the march crossed a data breakpoint
    status: dict  # per-direction termination reason
    max_drift: float
    u1: Optional[np.ndarray] = None  # set by general_profile given mobilities
    u2: Optional[np.ndarray] = None


def march_isochrone(
    data: PiecewiseInitialData,
    seed: AbPlaneState,
    x_window,
) -> MarchResult:
    """Trace the isochrone through the seed in both directions.

    Each direction runs until the physical position leaves x_window, a data
    graph ends, or the map folds (t_sa * t_sb changes sign, i.e. the
    Jacobian proxy (lambda2 - lambda1) t_a t_b vanishes); folds terminate
    the direction without continuation and are recorded in status.  A
    knot is recorded where a run ends on a joint and the next run starts
    there.  A seed outside x_window marches into it; a march with no sample
    inside x_window raises DomainError.
    """
    ga, gb = data.graphs
    t_star = seed.t_star
    chunks = []
    status = {}
    knots = set()
    max_drift = 0.0

    for direction in (+1, -1):
        y = np.array([seed.s_a, seed.s_b])
        sign_a = sign_b = 1
        prev_dx_sign = 0.0
        arc_used = 0.0
        joint = None  # x where the last run ended on a graph joint
        reason = "arc-budget"
        while arc_used < _MAX_ARC:
            at_edge = (
                y[0] <= ga.s_min + _EDGE or y[0] >= ga.s_max - _EDGE
                or y[1] <= gb.s_min + _EDGE or y[1] >= gb.s_max - _EDGE
            )
            picked = _pick_segments(data, ga, gb, y, direction, sign_a, sign_b)
            if picked is None:
                reason = "domain" if at_edge else "fold"
                break
            seg_a, seg_b, sign_a, sign_b, dx, start = picked
            dx_sign = math.copysign(1.0, dx) if dx != 0.0 else 0.0
            if dx_sign == 0.0 or (prev_dx_sign and dx_sign != prev_dx_sign):
                reason = "fold"
                break
            prev_dx_sign = dx_sign

            run, stop, y, arc = _march_run(
                seg_a, seg_b, y, direction, t_star, x_window, _MAX_ARC - arc_used, start,
            )
            if run is None:  # the run ended where it started
                reason = stop
                break
            if joint is not None:  # the march went on past the joint
                knots.add(joint)
            arc_used += arc
            chunks.append(run)
            max_drift = max(max_drift, run["drift"])
            if stop == "segment":
                joint = float(run["x"][-1])
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
    fields = {
        name: np.concatenate([c[name] for c in chunks])
        for name in ("x", "R1", "R2", "a", "b")
    }
    if not np.any((fields["x"] >= x_window[0]) & (fields["x"] <= x_window[1])):
        raise DomainError(f"no sample of the isochrone t = {t_star} lies in the window "
                          f"[{x_window[0]:g}, {x_window[1]:g}] (status {status})")
    order = np.argsort(fields["x"], kind="stable")
    return MarchResult(t_star=t_star, **{name: v[order] for name, v in fields.items()},
                       knots=sorted(knots), status=status, max_drift=max_drift)


def _pick_segments(data, ga, gb, y, direction, sign_a, sign_b):
    """Choose graph segments at a run start so motion points into them.

    At a joint the incoming motion sign proposes the next segment; if the
    tangent there pushes back out, the other side is taken with the flipped
    sign.  Returns (seg_a, seg_b, sign_a, sign_b, dX/dmu, start) or None if
    no consistent choice exists (the march cannot continue smoothly); start
    is the run's (anchor, t_sa, t_sb, r1, r2) at y, for _march_run.
    """
    for try_a in (sign_a, -sign_a):
        for try_b in (sign_b, -sign_b):
            seg_a = ga.segments[ga.locate(y[0], direction=try_a)]
            seg_b = gb.segments[gb.locate(y[1], direction=try_b)]
            if _coincident(seg_b.eval(y[1])[1], seg_a.eval(y[0])[1]):
                continue
            anchor = _anchor(data, seg_a, seg_b, y[0], y[1])
            _, t_sa, t_sb, r1, r2 = _parts(seg_a, seg_b, y[0], y[1], anchor)
            dsa = -t_sb * direction
            dsb = t_sa * direction
            if _consistent(y[0], seg_a, dsa) and _consistent(y[1], seg_b, dsb):
                dx = (lambda_k(2, r1, r2) - lambda_k(1, r1, r2)) * t_sa * t_sb * direction
                return (seg_a, seg_b, (1 if dsa >= 0 else -1), (1 if dsb >= 0 else -1), dx,
                        (anchor, t_sa, t_sb, r1, r2))
    return None


def _consistent(s, seg, ds):
    """Motion ds at point s does not immediately leave segment seg."""
    tol = _EDGE * max(1.0, abs(seg.s0), abs(seg.s1))
    if (abs(s - seg.s0) < tol and ds < 0) or (abs(s - seg.s1) < tol and ds > 0):
        return False
    return seg.s0 - _EDGE <= s <= seg.s1 + _EDGE


def _march_run(seg_a, seg_b, y0, direction, t_star, x_window, arc_budget, start):
    """One run of the march, in closed form: the feet stay on seg_a, seg_b.

    From y0 = (s_a, s_b), with start = (anchor, t_sa, t_sb, r1, r2) there
    (_pick_segments), the run moves along (-t_sb, t_sa) direction.  Its
    free coordinate s_i is the arclength of the foot on a vertical (b's if
    both are), else of the faster foot; the other, s_j, is explicit
    (_level_line).  The run ends where s_i ends its segment or, first, where
    s_j does ("segment"), X leaves the window ("window"), t_sa t_sb changes
    sign ("fold") or the chord from y0 exceeds arc_budget ("arc-budget"):
    roots in s_i bracketed on a grid (its ends if both feet are horizontal,
    where the run is straight) and refined by bracketed_newton with the
    bracket's slope; a refinement evaluates only its own event.  The run
    has max(9, int(_DENSITY * chord)) samples, uniform in s_i.
    """
    anchor, t_sa, t_sb, r1, r2 = start
    motion = (-t_sb * direction, t_sa * direction)
    x_up = (lambda_k(2, r1, r2) - lambda_k(1, r1, r2)) * t_sa * t_sb * direction > 0
    straight = seg_a.kind == seg_b.kind == "h"
    i = int(abs(motion[1]) > abs(motion[0]) if straight else seg_b.kind == "v")
    j, p0 = 1 - i, y0[i]
    p_end, q_end = ((seg_a, seg_b)[k].s1 if motion[k] > 0 else (seg_a, seg_b)[k].s0
                    for k in (i, j))

    def line(p):
        return _level_line(seg_a, seg_b, anchor, t_star, y0, i, p)

    def events(p, rows=(0, 1, 2, 3)):
        """The event functions at s_i = p (segment, window, fold, arc-budget),
        only those in rows: the run's level line, then _parts and _position
        only where a row needs them."""
        ys = line(p)
        g = np.empty((len(rows), p.size))
        if 1 in rows or 2 in rows:
            t, t_sa, t_sb, r1, r2 = _parts(seg_a, seg_b, ys[0], ys[1], anchor)
        for k, e in enumerate(rows):
            if e == 0:
                g[k] = (ys[j] - q_end) * motion[j]
            elif e == 1:
                x = _position(seg_a, seg_a.eval(ys[0])[0], r1, r2, t, anchor)
                g[k] = x - x_window[1] if x_up else x_window[0] - x
            elif e == 2:
                g[k] = t_sa * t_sb * motion[0] * motion[1]
            else:
                g[k] = np.hypot(ys[0] - y0[0], ys[1] - y0[1]) - arc_budget
        return g

    grid = np.linspace(p0, p_end, 2 if straight else max(9, int(_DENSITY * abs(p_end - p0))))
    with np.errstate(divide="ignore", invalid="ignore"):  # past the run's end
        g = events(grid)
    past = (g >= 0.0) & (g[:, :1] < 0.0)
    stop, p_stop, hit = "segment", p_end, None
    if past.any():
        k = int(np.argmax(past.any(axis=0)))
        slope = (g[:, k] - g[:, k - 1]) / (grid[k] - grid[k - 1])  # exact on a straight run
        roots = {e: bracketed_newton(lambda p: (events(np.array([p]), (e,))[0, 0], slope[e]),
                                     grid[k - 1], grid[k], g[e, k - 1], g[e, k])
                 for e in np.flatnonzero(past[:, k])}
        hit = min(roots, key=lambda e: abs(roots[e] - p0))  # the first event ends the run
        p_stop, stop = roots[hit], ("segment", "window", "fold", "arc-budget")[hit]
    if p_stop == p0:
        return None, stop, y0, 0.0
    arc = math.hypot(*(line(np.array([p_stop]))[:, 0] - y0))
    ys = line(np.linspace(p0, p_stop, max(9, int(_DENSITY * arc))))
    if hit == 0:
        ys[j, -1] = q_end
    return _sample_run(seg_a, seg_b, ys, t_star, anchor), stop, ys[:, -1].copy(), arc


def _level_line(seg_a, seg_b, anchor, t_star, y0, i, p):
    """Rows (s_a, s_b) of a run's level line t = t* where s_i = p (an array).

    At s_i = p and the other foot at y0, t d^3 = N = 2 (b - a) - (r1 + r2) F
    + 2 r1 r2 G.  A horizontal other foot changes N by c = +-(2 - (r1 + r2)
    f + 2 r1 r2 g) per unit (+ for b), so it lies (t* d^3 - N) / c away.  On
    two verticals (i = b) e = r1 - r2 solves t* e^3 - (F - 2 r1 G) e =
    2 (b - a) - 2 r1 F + 2 r1^2 G, the root with r2 in seg_a's range.
    """
    ys = np.empty((2, p.size))
    ys[i], ys[1 - i] = p, y0[1 - i]
    a, r2 = seg_a.eval(ys[0])[:2]
    b, r1 = seg_b.eval(ys[1])[:2]
    F, G = _continued(seg_a, seg_b, a, b, anchor)
    seg = (seg_a, seg_b)[1 - i]
    if seg.kind == "h":
        d = r1 - r2
        N = 2.0 * (b - a) - (r1 + r2) * F + 2.0 * r1 * r2 * G
        c = (2.0 - (r1 + r2) * seg.f + 2.0 * r1 * r2 * seg.g) * (1.0 if i == 0 else -1.0)
        ys[1 - i] += (t_star * d * d * d - N) / c
        return ys
    P = (2.0 * r1 * G - F) / t_star
    Q = (2.0 * r1 * (F - r1 * G) - 2.0 * (b - a)) / t_star
    # Cardano: e = u - P / (3 u) over the three cube roots u of -Q/2 -+ sqrt(D).
    D = Q * Q / 4.0 + P * P * P / 27.0
    u = (-0.5 * Q - np.copysign(1.0, Q) * np.sqrt(D + 0j)) ** (1.0 / 3.0)
    u = u[:, None] * np.exp(2j * np.pi / 3.0 * np.arange(3))
    roots = u - P[:, None] / (3.0 * u)
    r2 = r1[:, None] - roots.real
    lo, hi = sorted((seg.r0, seg.r1))
    miss = np.abs(roots.imag) + np.fmax(lo - r2, 0.0) + np.fmax(r2 - hi, 0.0)
    e = roots.real[np.arange(p.size), np.argmin(miss, axis=1)]
    ys[0] = seg.s0 + (r1 - e - seg.r0) / (seg.r1 - seg.r0) * (seg.s1 - seg.s0)
    return ys


def _sample_run(seg_a, seg_b, ys, t_star, anchor):
    """Fields of one run's samples, ys with rows (s_a, s_b).

    Evaluates t as _parts does, F and G continued from the run's anchor,
    and x (_position) on whole arrays of the run's fixed segments, and
    raises LevelDrift if t strays from t_star by more than _DRIFT t*.
    """
    a, r2 = seg_a.eval(ys[0])[:2]
    b, r1 = seg_b.eval(ys[1])[:2]
    n = ys.shape[1]
    r1, r2, a, b = (np.broadcast_to(np.asarray(v, dtype=float), n) for v in (r1, r2, a, b))
    d = r1 - r2
    if np.any(np.abs(d) < _COINCIDENT * np.maximum(1.0, np.maximum(np.abs(r1), np.abs(r2)))):
        raise CoincidentInvariants("march entered a coincident-invariant region")
    t = _level(b - a, r1, r2, *_continued(seg_a, seg_b, a, b, anchor))
    drift = np.fmax.reduce(np.abs(t - t_star), initial=0.0)
    if drift > _DRIFT * max(abs(t_star), 1e-12):
        raise LevelDrift(f"isochrone march drifted by {drift} at t* = {t_star}")
    return {
        "x": _position(seg_a, a, r1, r2, t, anchor), "R1": r1.copy(), "R2": r2.copy(),
        "a": a.copy(), "b": b.copy(), "drift": drift,
    }


def _level_crossings(ray, rows, t_star):
    """Points where ray(v) = t_star, scanning each row of v in order.

    A sample that hits t_star exactly counts when its right neighbour is a
    number; a sign change between neighbours is refined on the ray itself
    by bracketed_newton with the chord's slope (within a row both feet stay
    in their pieces, so t is affine in the free foot).  Neighbours in
    different rows never form a bracket.
    """
    if not rows:
        return
    vv = np.concatenate(rows)
    vals = ray(vv) - t_star
    pair = np.ones(vv.size - 1, dtype=bool)
    pair[np.cumsum([len(r) for r in rows])[:-1] - 1] = False
    hit = pair & (vals[:-1] == 0.0) & ~np.isnan(vals[1:])
    cross = pair & (vals[:-1] * vals[1:] < 0)
    for k in np.flatnonzero(hit | cross):  # a hit is its own root
        slope = (vals[k + 1] - vals[k]) / (vv[k + 1] - vv[k])
        yield bracketed_newton(
            lambda v: (ray(v) - t_star, slope), vv[k], vv[k + 1], vals[k], vals[k + 1]
        )


def find_seed(data: PiecewiseInitialData, t_star):
    """Locate (a*, b*) with t(a*, b*) = t* by a scan and a root per bracket.

    For _SCAN_RESOLUTION values of a across the domain, rows of b (one per
    data piece right of a) are scanned and refined.  Brackets never
    straddle a breakpoint.  Seeds whose feet sit in different data pieces
    are preferred: a bracket with both feet in one piece lies on a
    constant-state arc, which is trivial and usually a
    characteristic-crossing ghost rather than the branch carrying the wave
    structure.  Each row is evaluated by one _t_feet call with a fixed.

    Only rows that can cross t* are scanned.  With a fixed and b in one
    piece, r1 and r2 are fixed and F, G are affine in b, so t is affine in b
    up to the rounding of each evaluation.  Each term of t's numerator is at
    most its factor times b - a and is rounded a few times, so that
    rounding stays below 10 eps K with
    K = (b - a) (2 + |r1 + r2| max|f| + 2 |r1 r2| max|g|) / |r1 - r2|^3.
    A sample pair can then bracket or hit t* only if the row's end values
    come within 20 eps K of it.  One batched call evaluates the ends of
    every row, and a row is scanned only if its ends straddle t* within
    the slack 64 eps K, K at the row's end, where b - a is largest.  A row
    whose start does not lie below its end (a within _EDGE of a breakpoint)
    is always scanned.  Once a same-piece root is kept as the fallback,
    same-piece rows are skipped: only a cross-piece root can still change
    the result (and a skipped row's bracketed_newton cannot raise).
    """
    lo, hi = data.domain
    edges = data._edges()
    av = np.linspace(lo, hi, _SCAN_RESOLUTION)
    tab = data._table
    ia = tab.breakpoints.searchsorted(av, side="right")[:, None]  # a's piece, per row of a
    piece = np.arange(edges.size - 1)
    start = np.maximum(edges[:-1], av[:, None]) + _EDGE * (hi - lo)  # [row of a, piece]
    end = np.broadcast_to(edges[1:], start.shape)
    r1, r2 = tab.r1[piece], tab.r2[ia, piece]
    K = (end - av[:, None]) * (2.0 + np.abs(r1 + r2) * np.abs(tab.f).max()
                               + 2.0 * np.abs(r1 * r2) * np.abs(tab.g).max())
    K /= np.abs(r1 - r2) ** 3
    slack = 64.0 * np.finfo(float).eps * K
    ends = _t_feet(data, av[:, None], np.stack((start, end))) - t_star
    spans = start < end
    crosses = ((np.minimum(*ends) <= slack) & (np.maximum(*ends) >= -slack)) | ~spans
    crosses &= end > av[:, None]
    same = spans & (piece == ia)
    fallback = None
    for i in np.flatnonzero(crosses.any(axis=1)):
        keep = crosses[i] if fallback is None else crosses[i] & ~same[i]
        rows = [np.linspace(start[i, k], end[i, k], _SCAN_RESOLUTION)
                for k in np.flatnonzero(keep)]
        for bv in _level_crossings(partial(_t_feet, data, av[i]), rows, t_star):
            if ia[i, 0] != data.piece_of(bv, side="left"):
                return av[i], bv
            if fallback is None:
                fallback = (av[i], bv)
    if fallback is None:
        raise NoRootInInterval(f"no seed found for t = {t_star} in the data domain")
    return fallback


def _dependence(data, t_star, x_window):
    """data cut to the domain of dependence of x_window at t*.

    Both feet of a point X lie within L t* of it, where L = r1 r2 max(r1, r2)
    at the data's largest |r1|, |r2| bounds |lambda_1| and |lambda_2|.
    """
    r1, r2 = (max(map(abs, v)) for v in (data.r1_values, data.r2_values))
    reach = t_star * r1 * r2 * max(r1, r2)
    lo = max(data.domain[0], x_window[0] - reach)
    hi = min(data.domain[1], x_window[1] + reach)
    if not lo < hi:
        raise DomainError(f"the window [{x_window[0]:g}, {x_window[1]:g}] depends on "
                          f"no data at t = {t_star}")
    i, j = data.piece_of(lo), data.piece_of(hi, side="left")
    return PiecewiseInitialData(data.breakpoints[i:j], data.r1_values[i:j + 1],
                                data.r2_values[i:j + 1], (lo, hi))


def general_profile(
    data: PiecewiseInitialData,
    t_star: float,
    x_window,
    mobilities: Optional[tuple] = None,
):
    """End-to-end general Cauchy solve: seed, march, and sample fields.

    The seed is found in the window's domain of dependence.  Returns a
    MarchResult with u1/u2 set when mobilities are given.
    """
    seed = seed_point(data, *find_seed(_dependence(data, t_star, x_window), t_star))
    if abs(seed.t_star - t_star) > _SEED_AGREE * max(1.0, t_star):
        # A find_seed root short of the level.
        raise LevelDrift(f"seed time {seed.t_star} disagrees with requested {t_star}")
    seed = replace(seed, t_star=t_star)
    result = march_isochrone(data, seed, x_window)
    if mobilities is not None:
        u1, u2 = u_from_mobilities(mobilities[0], mobilities[1], result.R1, result.R2)
        result.u1, result.u2 = np.asarray(u1), np.asarray(u2)
    return result
