"""Zone decomposition of the (x,t)-plane and the interaction timeline.

The two-point initial discontinuity breaks up into shocks and rarefaction
fans whose boundaries are straight lines; every later interaction (fan-fan,
fan death, shock-fan, final separation) happens at a closed-form event
(T_int, T_3, T_6, T_9, T_10, T_fin).  This module builds the boundary
curves, the event list, and the zone layout at any time; the two mirrored
halves share one code path, each described by a Side.  The two curved
shocks created after T_9 / T_10 are closed forms too: the time beta(rho) at
which a shock carries the invariant rho solves an ODE linear in beta, whose
solution is rational in rho (see _shock_curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NoRootInInterval, UnexpectedOrdering
from .hodograph import ImplicitSolution, interaction_time
from .invariants import MixtureParams, lambda_k, validate_params

#: a Z5 boundary's rho_of_t admits roots this fraction of its rho span
#: beyond each end, at most halfway to the pole at the fixed invariant.
PARAM_MARGIN = 0.02
#: relative tolerance of every root (4 ulp), on the step and the bracket.
ROOT_RTOL = 8.9e-16
#: bracketed_newton raises after this many steps; bisection alone takes
#: about 50 to shrink a bracket at the root's scale to ROOT_RTOL.
ROOT_MAX_ITER = 100
#: an edge within this fraction of max(1, |x|) of the one before it is
#: rounding and takes its x, so a point zone is a point: 64 eps (worst
#: disorder seen 8.6 eps in 15,000 layouts; widest point zone 12 eps in 70,000).
TILING_ATOL = 64 * 2.0**-52


@dataclass
class BoundaryCurve:
    """A zone boundary: shock or weak discontinuity, with adjacent states.

    kind is "shock", "weak-1" or "weak-2"; the digit is the characteristic
    family.  left_state/right_state map t to the (R1, R2) pair on each side
    (equal for weak curves).  The parametric Z5 boundaries phi and theta
    carry rho_of_t (the root of t(rho) = t, in closed form), position
    ((rho, t) -> x, so that x(t) = position(rho_of_t(t), t)) and
    param_point (rho -> (x, t)).  The curved shocks Phi and Theta carry
    rho_of_t (the invariant behind the shock), position and param_point too.
    """

    id: str
    kind: str
    t_start: float
    t_end: float
    x: Callable[[float], float]
    left_state: Callable[[float], tuple]
    right_state: Callable[[float], tuple]
    rho_of_t: Optional[Callable[[float], float]] = field(default=None, repr=False)
    position: Optional[Callable[[float, float], float]] = field(default=None, repr=False)
    param_point: Optional[Callable[[float], tuple]] = field(default=None, repr=False)


@dataclass(frozen=True)
class Side:
    """One of the two mirrored halves of the wave-interaction picture.

    Side k transports R_k = rho along k-characteristics while the other
    invariant keeps the value fixed.  Side 1: zone Z9, R2 = mu2, rho in
    [q1, mu1], Z5 boundary phi (phi_early before T_3), curved shock Phi
    from T_9 whose invariant runs from q1 towards mu1.  Side 2 mirrors it:
    Z10, R1 = mu1, rho in [mu2, q2], theta (theta_early before T_6), Theta
    from T_10, q2 towards mu2.  T_9 and T_10 may each fall before or after
    T_fin (see Timeline._check_partial_order).

    The side's jump at origin (x1, x2) breaks up into a straight shock of
    speed shock_speed (xs1, xs2) and a fan of R_{3-k} (fan zone Z3, Z6)
    between the outer front (xl2, xr1) and the inner front (xr2, xl1); the
    plateau zone (Z2, Z7) with state pair(start) lies between the shock
    and the fan.  x0 and K place its transport characteristics (transport_x).
    """

    k: int
    fixed: float
    lo: float
    hi: float
    start: float
    far: float
    curve: str
    early: str
    death: str
    shock_event: str
    shock: str
    zone: str
    origin: float
    shock_speed: float
    fan_zone: str
    plateau_zone: str
    outer_front: str
    inner_front: str
    x0: float
    K: float

    def pair(self, rho):
        """The hodograph point (R1, R2) with R_k = rho; rho may be an array."""
        return (rho, self.fixed) if self.k == 1 else (self.fixed, rho)

    @property
    def index(self) -> int:
        """Slot of rho in (R1, R2)."""
        return self.k - 1

    def fan(self, x, t):
        """R_{3-k} in the side's fan, sqrt((x - origin) / (start t)); x may be an array."""
        return np.sqrt((x - self.origin) / (self.start * t))

    def transport_x(self, rho, t):
        """Position at t of the k-characteristic that carries rho from the
        Z5 boundary, x(pair) + fixed rho^2 (t - t(pair)); rho may be an array.
        It places Z9/Z10's samples and every curve bounding them in the layout.

        Its hodograph terms collapse to x0 + K (rho / (rho - fixed))^2 +
        fixed rho^2 t, where no term cancels: x0 = x2 and K = (mu2 - q1)
        (q2 - mu2) C on side 1, x0 = x1 and K = (mu1 - q1)(mu1 - q2) C on
        side 2, C = (x2 - x1)/(q1 q2).  x rises strictly with rho at t > 0:
        dx/drho = 2 fixed rho (t - K / (rho - fixed)^3), and K / (rho -
        fixed)^3 < 0 on the cone (K > 0 with rho < mu2 on side 1, K < 0
        with rho > mu1 on side 2).
        """
        g = rho / (rho - self.fixed)
        return self.x0 + self.K * (g * g) + (self.fixed * t) * (rho * rho)


def mirrored_sides(p: MixtureParams) -> dict:
    """The two Side descriptors of an instance, keyed by k."""
    C = (p.x2 - p.x1) / (p.q1 * p.q2)
    return {
        1: Side(k=1, fixed=p.mu2, lo=p.q1, hi=p.mu1, start=p.q1, far=p.mu1,
                curve="phi", early="phi_early", death="T_3", shock_event="T_9",
                shock="Phi", zone="Z9", origin=p.x1, shock_speed=p.q1 * p.mu1 * p.mu2,
                fan_zone="Z3", plateau_zone="Z2", outer_front="xl2", inner_front="xr2",
                x0=p.x2, K=(p.mu2 - p.q1) * (p.q2 - p.mu2) * C),
        2: Side(k=2, fixed=p.mu1, lo=p.mu2, hi=p.q2, start=p.q2, far=p.mu2,
                curve="theta", early="theta_early", death="T_6", shock_event="T_10",
                shock="Theta", zone="Z10", origin=p.x2, shock_speed=p.mu1 * p.mu2 * p.q2,
                fan_zone="Z6", plateau_zone="Z7", outer_front="xr1", inner_front="xl1",
                x0=p.x1, K=(p.mu1 - p.q1) * (p.mu1 - p.q2) * C),
    }


@dataclass(frozen=True)
class Event:
    """An interaction point on the (x,t)-plane."""

    label: str
    T: float
    X: float
    participants: tuple
    consequence: str


def _ray(x0, speed):
    return lambda t: x0 + speed * t


def _const_state(R1, R2):
    return lambda t: (R1, R2)


def _ordered(side, outer, inner):
    """(left, right) of a pair given outermost first: side 1 lies left of Z5."""
    return (outer, inner) if side.k == 1 else (inner, outer)


def _side_timeline(p: MixtureParams, side: Side, T_int):
    """The fan death and shock events of one side, and its straight curves.

    Returns (death, shock event, curves by id).  From t = +0 the shock xs_k
    and the fan's outer and inner fronts leave origin; each front moves at
    the (3-k)-speed of the plateau it borders.  The early Z5 boundary
    (phi_early, theta_early) is a k-characteristic through the fan from the
    interaction point:

        sqrt(x - origin) = start^(3/2) (sqrt(t) - sqrt(T_int)) + sqrt(X_int - origin).

    It meets the outer front at the fan's death, T_death = T_int (q2 - q1)^2
    / (start - fixed)^2, and from there the weak line xw_k carries start at
    its k-speed (Side.transport_x of start) until the shock catches it at
    T_death (fixed - start) / (far - start).
    """
    k, inside = side.k, side.pair(side.start)
    T_death = T_int * (p.q2 - p.q1) ** 2 / (side.start - side.fixed) ** 2
    T_shock = T_death * (side.fixed - side.start) / (side.far - side.start)
    outer_speed = lambda_k(3 - k, *inside)
    death = Event(side.death, T_death, side.origin + outer_speed * T_death,
                  (side.early, side.outer_front), f"{side.fan_zone} dies; {side.zone} born")
    joined = "/".join(_ordered(side, ("Z1", "Z8")[side.index], side.zone))
    shock = Event(
        side.shock_event, T_shock, side.origin + side.start * p.mu1 * p.mu2 * T_shock,
        (f"xw{k}", f"xs{k}"),
        f"{side.plateau_zone} dies; {joined} boundary becomes shock {side.shock}",
    )

    inner_speed = lambda_k(3 - k, p.q1, p.q2)
    root0 = math.sqrt(inner_speed * T_int)  # sqrt(X_int - origin), which cancels

    def root(t):  # sqrt(x - origin) on the early curve
        if t < T_int:
            raise DomainError(f"{side.early} undefined before the interaction time")
        return side.start ** 1.5 * (math.sqrt(t) - math.sqrt(T_int)) + root0

    def early(t):
        r = root(t)
        return side.origin + r * r

    # Side.fan on the curve, from its root: through x it cancels in x - origin.
    on_early = lambda t: _ordered(side, side.start, root(t) / math.sqrt(side.start * t))
    plateau = _const_state(*inside)
    # The fan meets the Z4 plateau on the inner front, where the fan formula
    # is (q1, q2) in exact arithmetic but cancels in x - origin.
    z4 = _const_state(p.q1, p.q2)
    curves = (
        BoundaryCurve(f"xs{k}", "shock", 0.0, T_shock, _ray(side.origin, side.shock_speed),
                      *_ordered(side, _const_state(p.mu1, p.mu2), plateau)),
        BoundaryCurve(side.outer_front, f"weak-{3 - k}", 0.0, T_death,
                      _ray(side.origin, outer_speed), plateau, plateau),
        BoundaryCurve(side.inner_front, f"weak-{3 - k}", 0.0, T_int,
                      _ray(side.origin, inner_speed), z4, z4),
        BoundaryCurve(side.early, f"weak-{k}", T_int, T_death, early, on_early, on_early),
        BoundaryCurve(f"xw{k}", f"weak-{k}", T_death, T_shock,
                      partial(side.transport_x, side.start), plateau, plateau),
    )
    return death, shock, {c.id: c for c in curves}


def bracketed_newton(fn, a, b, fa, fb):
    """The root of F in [a, b], fn(r) = (F(r), F'(r)), fa = F(a) and fb = F(b)
    not of one sign: Newton from the chord of (a, fa) and (b, fb), bisecting
    where a step leaves the bracket or F' = 0 (rtsafe, Numerical Recipes
    9.4).  It stops on a step or a bracket below ROOT_RTOL of the ends'
    scale, so rounding noise in F cannot stall it."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    tol = ROOT_RTOL * max(abs(a), abs(b))
    r = a - fa * (b - a) / (fb - fa)
    if fa > 0.0:  # keep F(a) < 0 < F(b)
        a, b = b, a
    for _ in range(ROOT_MAX_ITER):
        F, dF = fn(r)
        a, b = (r, b) if F < 0.0 else (a, r)
        step = F / dF if dF else math.inf
        if abs(step) <= tol:
            return r - step
        r -= step
        if not (r - a) * (r - b) < 0.0:
            r = 0.5 * (a + b)
        if abs(b - a) <= tol:
            return r
    raise NoRootInInterval(f"no convergence in the bracket [{a}, {b}]")


def _negative_cubic_root(k, a, c):
    """The one negative root of k d^3 - 2 (a - c) d + 4 a c = 0, for k, a, c > 0.

    As d^3 + p d + q = 0 the roots sum to 0 and multiply to -q < 0.  Cardano
    gives it as A + B = -q / (A^2 - AB + B^2), which cancels nowhere, where
    q^2/4 + p^3/27 >= 0, the trigonometric form elsewhere; one Newton step
    on the cubic polishes it (and the cube root's last bit).
    """
    p, q = -2.0 * (a - c) / k, 4.0 * a * c / k
    h = 0.25 * q * q + p * p * p / 27.0
    if h < 0.0:
        m = math.sqrt(-p / 3.0)
        d = -2.0 * m * math.cos(math.acos(min(q / (2.0 * m * m * m), 1.0)) / 3.0)
    else:
        A = -(0.5 * q + math.sqrt(h)) ** (1.0 / 3.0)
        B = -p / (3.0 * A)
        d = -q / (A * A + B * B + p / 3.0)
    return d - ((d * d + p) * d + q) / (3.0 * d * d + p)


def _parametric_curve(sol: ImplicitSolution, side: Side, t_start, t_end):
    """Build the Z5 boundary of one side, given parametrically by the hodograph.

    The curve is (x, t)(side.pair(rho)) for rho in [side.lo, side.hi]: phi
    with R2 = mu2 on side 1, theta with R1 = mu1 on side 2.  It is a
    characteristic of the other family, across which the state is
    side.pair(rho).  rho_of_t, the one solver of t(side.pair(rho)) = t, is
    read by x(t), the states and the isochrone's rho*/sigma*; the x of rho
    is where its k-characteristic leaves Z5, Side.transport_x(rho, t).

    With u = R1 - q1, v = q2 - R2, D = q2 - q1, d = R1 - R2 = u + v - D
    and C = (x2 - x1)/(q1 q2), t = C (D d - 2 u v) / d^3.  One offset is
    fixed on the curve, c = q2 - mu2 (v, phi) or mu1 - q1 (u, theta); the
    other is s = d + a, a = D - c.  So t = t* is k d^3 - 2 (a - c) d + 4 a c
    = 0 with k = 2 t*/C, and R1 < R2 picks its negative root: rho = mu2 + d
    on phi, mu1 - d on theta.  t is monotone in s, so the root is unique:
    dt/ds = 2 C ((D^2 - c^2) - s (D - 2 c)) / d^4 is linear in s and
    positive at s = 0 and s = a (3 a c), and on the margin s = -delta,
    delta < a/50, since delta |D - 2 c| < (D^2 - c^2)/50.  A root beyond
    [lo, hi] by more than the margin raises NoRootInInterval.
    """
    p = sol.params
    lo, hi, f = side.lo, side.hi, side.fixed
    C = (p.x2 - p.x1) / (p.q1 * p.q2)
    a, c = (f - p.q1, p.q2 - f) if side.k == 1 else (p.q2 - f, f - p.q1)
    first = lo - min(PARAM_MARGIN * (hi - lo), 0.5 * abs(lo - f))
    last = hi + min(PARAM_MARGIN * (hi - lo), 0.5 * abs(hi - f))

    def rho_of_t(t):
        k = 2.0 * t / C
        if 0.0 < k < math.inf:
            d = _negative_cubic_root(k, a, c)
            rho = f + d if side.k == 1 else f - d
            if first <= rho <= last:
                return rho
        raise NoRootInInterval(f"{side.curve}: time {t} outside the curve's span")

    def param_point(r):
        t = sol.t(*side.pair(r))
        return side.transport_x(r, t), t

    state = lambda t: side.pair(rho_of_t(t))
    return BoundaryCurve(
        side.curve, f"weak-{3 - side.k}", t_start, t_end,
        lambda t: side.transport_x(rho_of_t(t), t), state, state,
        rho_of_t=rho_of_t, position=side.transport_x, param_point=param_point,
    )


def _shock_curve(p: MixtureParams, side: Side, event: Event):
    """The curved shock of one side in closed form: Phi from T_9, Theta from T_10.

    The invariant rho behind the shock left the Z5 boundary on a
    k-characteristic, so the shock passes Side.transport_x(rho, t).  With
    the Rankine-Hugoniot speed D = mu1 mu2 rho this gives an ODE for the
    time beta(rho) at which the shock carries rho, linear in beta; the
    integrating factor (far - rho)^2 and one integration by parts solve it.
    Since the time t(side.pair(rho)) at which rho left Z5 is (a e + B)/e^3
    for a constant a and e = rho - fixed, the solution is rational in rho;
    with w = far - rho it reduces to

        g(rho) = beta w^2 = G0 + B (e - w) / (2 e^2),
        G0 = C ((mu1 - q1) - (q2 - mu2)),

    in which the event time T_s = g(start) / (far - start)^2 drops out.

    beta rises strictly from T_s to infinity at far.  g'(rho) = B w / e^3
    has the sign of far - start on the cone: on side 1 B < 0, w > 0 and
    e < 0; on side 2 B > 0, w < 0 and e > 0.  So g rises from g(start) =
    T_s (far - start)^2 > 0 to g(far) = G0 + B / (2 (far - fixed)) as rho
    moves toward far, while |w| falls to 0.

    rho_of_t(t) solves F = g(rho) - t w^2 = 0, F' = w (B/e^3 + 2 t).  At the
    root |w| = sqrt(g(rho)/t) and g(start) <= g(rho) <= g(far), which
    brackets rho between the offsets sqrt(g(far)/t) and sqrt(g(start)/t)
    from far, clipped to [start, far]; bracketed_newton solves it there.
    """
    f, far, start = side.fixed, side.far, side.start
    # t = C N / (R1 - R2)^3 with N symmetric and R1 - R2 = e (side 1), -e (side 2).
    C = (1.0 if side.k == 1 else -1.0) * (p.x2 - p.x1) / (p.q1 * p.q2)
    B = C * 2.0 * (f - p.q1) * (f - p.q2)
    # Written as C ((mu1 + mu2) - (q1 + q2)) it cancels at narrow gaps.
    G0 = C * ((p.mu1 - p.q1) - (p.q2 - p.mu2))

    def g(r):
        e = r - f
        return G0 + B * (e - (far - r)) / (2.0 * e * e)

    g_ends = (g(far), event.T * (far - start) ** 2)
    toward = 1.0 if far > start else -1.0
    lo, hi = min(start, far), max(start, far)

    def level(r, t):  # F = g(r) - t (far - r)^2 and its derivative
        w, e = far - r, r - f
        return g(r) - t * w * w, w * (B / (e * e * e) + 2.0 * t)

    def rho_of_t(t):
        if not event.T <= t < math.inf:  # nan and inf too
            raise DomainError(f"shock {side.shock} lives on [{event.label} = {event.T}, inf)")
        a, b = (min(max(far - toward * math.sqrt(gr / t), lo), hi) for gr in g_ends)
        fa, fb = level(a, t)[0], level(b, t)[0]
        if fa >= 0.0:  # rounding left no sign change: that end is the root
            return a
        if fb <= 0.0:
            return b
        return bracketed_newton(lambda r: level(r, t), a, b, fa, fb)

    def param_point(r):
        beta = g(r) / (far - r) ** 2
        return side.transport_x(r, beta), beta

    behind = lambda t: side.pair(rho_of_t(t))
    plateau = _const_state(p.mu1, p.mu2)
    return BoundaryCurve(
        side.shock, "shock", event.T, math.inf,
        lambda t: side.transport_x(rho_of_t(t), t), *_ordered(side, plateau, behind),
        rho_of_t=rho_of_t, position=side.transport_x, param_point=param_point,
    )


@dataclass(frozen=True)
class ZoneInterval:
    """One zone's slice of an isochrone: [x_left, x_right] with its curves."""

    zone: str
    x_left: Optional[float]
    x_right: Optional[float]
    left_curve: Optional[str]
    right_curve: Optional[str]
    #: each curve's root rho_of_t(t) where it has one, else None.
    left_rho: Optional[float] = None
    right_rho: Optional[float] = None


class Timeline:
    """Ordered events, boundary curves, and zone lifetimes for one instance.

    plateaus maps each plateau and fan zone to its (R1, R2); a fan's
    self-similar invariant is None (the side's Side.fan).
    """

    def __init__(self, params: MixtureParams):
        p = self.params = validate_params(params)
        sol = self.hodograph = ImplicitSolution(params)
        self.sides = mirrored_sides(params)
        s1, s2 = self.sides.values()

        T_int = interaction_time(p)
        X_int = (p.x1 * p.q1 - p.x2 * p.q2) / (p.q1 - p.q2)
        ev_int = Event("T_int", T_int, X_int, (s1.inner_front, s2.inner_front),
                       "Z4 dies; Z5 born")
        T_fin, X_fin = sol.t(p.mu1, p.mu2), sol.x(p.mu1, p.mu2)
        ev_fin = Event("T_fin", T_fin, X_fin, (s1.curve, s2.curve), "Z5 dies; Z11 born")
        pure = (p.mu1, p.mu2)
        self.plateaus = {"Z1": pure, "Z4": (p.q1, p.q2), "Z8": pure, "Z11": pure}
        self.curves = {}
        deaths, shocks = [], []
        separated = _const_state(*pure)
        for side in self.sides.values():
            k = side.k
            death, shock, curves = _side_timeline(p, side, T_int)
            deaths.append(death)
            shocks.append(shock)
            self.curves.update(curves)
            self.curves[side.curve] = _parametric_curve(sol, side, death.T, T_fin)
            self.curves[f"xf{k}"] = BoundaryCurve(
                f"xf{k}", f"weak-{k}", T_fin, math.inf,
                partial(side.transport_x, side.far), separated, separated,
            )
            self.curves[side.shock] = _shock_curve(p, side, shock)
            self.plateaus[side.plateau_zone] = side.pair(side.start)
            self.plateaus[side.fan_zone] = _ordered(side, side.start, None)

        self._check_partial_order(ev_int, *deaths, *shocks)
        self.events = sorted([ev_int, *deaths, *shocks, ev_fin], key=lambda e: e.T)
        self.event_by_label = {e.label: e for e in self.events}

        T = self.times = {e.label: e.T for e in self.events}
        self.zone_lifetimes = {
            "Z1": (0.0, math.inf),
            "Z2": (0.0, T["T_9"]),
            "Z3": (0.0, T["T_3"]),
            "Z4": (0.0, T["T_int"]),
            "Z5": (T["T_int"], T["T_fin"]),
            "Z6": (0.0, T["T_6"]),
            "Z7": (0.0, T["T_10"]),
            "Z8": (0.0, math.inf),
            "Z9": (T["T_3"], math.inf),
            "Z10": (T["T_6"], math.inf),
            "Z11": (T["T_fin"], math.inf),
        }

    @staticmethod
    def _check_partial_order(ev_int, ev3, ev6, ev9, ev10):
        """Reject an instance whose events are not in the constructed order.

        The four hold on the whole validated cone 0 < q1 < mu1 < mu2 < q2.
        T_3 = T_int (q2 - q1)^2 / (mu2 - q1)^2 and T_6 = T_int (q2 - q1)^2 /
        (q2 - mu1)^2 exceed T_int because mu2 - q1 and q2 - mu1 are both less
        than q2 - q1.  T_9 = T_3 (mu2 - q1) / (mu1 - q1) and T_10 = T_6 (q2 -
        mu1) / (q2 - mu2) exceed T_3 and T_6 because mu1 < mu2.  In floating
        point they can fail only by rounding, where two of the gaps agree to
        a few ulps.

        T_9 and T_10 may fall on either side of T_fin; the construction needs
        no order there.  The left shock only ever meets Z2 and Z9: xs1 stays
        left of xw1 = transport_x(q1, t) until it catches it at T_9, then Phi
        is at transport_x(rho, t).  After T_fin, Z9's right edge is xf1, which
        carries rho = mu1 at speed mu1^2 mu2.  The shock moves at mu1 mu2 rho
        with rho < mu1, so it never reaches xf1: Side.transport_x rises
        strictly in rho.  Side 2 mirrors this with Z7, Z10, Theta and xf2.
        """
        required = [
            ("T_int < T_3", ev_int.T, ev3.T),
            ("T_int < T_6", ev_int.T, ev6.T),
            ("T_3 < T_9", ev3.T, ev9.T),
            ("T_6 < T_10", ev6.T, ev10.T),
        ]
        for name, lo, hi in required:
            if not lo < hi:
                raise UnexpectedOrdering(
                    f"event order {name} violated ({lo} >= {hi}); "
                    "parameters are outside the supported interaction scenario"
                )

    def side(self, k) -> Side:
        """The Side descriptor of side k; ValueError unless k is 1 or 2."""
        try:
            return self.sides[k]
        except KeyError:
            raise ValueError(f"side must be 1 or 2, got {k!r}") from None

    # -- layout --------------------------------------------------------------

    def zones_at(self, t: float) -> list:
        """Ordered zone intervals tiling the x-axis at time t.

        Past T_9 (T_10) the left (right) outer boundary is the curved shock
        Phi (Theta), read like every other boundary from its curve, whose
        position is in closed form up to one root (see _shock_curve).  Each
        root is solved once, and kept as right_rho of the zone it ends and
        left_rho of the zone it starts.  A curve bounding Z9 or Z10 takes its
        x from its side's transport_x, as the zone's samples do.  An edge
        within TILING_ATOL of the one before it, on either side, is rounding
        (two curves meeting at an event) and takes that edge's x; one further
        left raises UnexpectedOrdering.  This is the one place that decides
        which curve bounds a zone at t, and which zone is a point (x_left ==
        x_right); the isochrone samplers read their ends from these intervals.
        """
        if not 0.0 < t < math.inf:
            raise DomainError("zone layout defined for finite t > 0 only")
        T = self.times
        c = self.curves

        def pos(curve_id):
            curve = c[curve_id]
            if curve.rho_of_t is None:
                return float(curve.x(t)), None
            rho = curve.rho_of_t(t)
            return float(curve.position(rho, t)), rho

        chain = []
        cursor_id = "xs1" if t < T["T_9"] else "Phi"
        cursor_x, cursor_rho = pos(cursor_id)
        chain.append(ZoneInterval("Z1", None, cursor_x, None, cursor_id, None, cursor_rho))

        def push(zone, right_id):
            nonlocal cursor_id, cursor_x, cursor_rho
            right_x, rho = pos(right_id)
            if abs(right_x - cursor_x) <= TILING_ATOL * max(1.0, abs(cursor_x)):
                right_x = cursor_x
            elif right_x < cursor_x:
                raise UnexpectedOrdering(f"zone boundaries out of order at {right_id}")
            chain.append(ZoneInterval(zone, cursor_x, right_x, cursor_id, right_id,
                                      cursor_rho, rho))
            cursor_id, cursor_x, cursor_rho = right_id, right_x, rho

        if t < T["T_9"]:
            push("Z2", "xl2" if t <= T["T_3"] else "xw1")
        if t <= T["T_3"]:
            push("Z3", "xr2" if t <= T["T_int"] else "phi_early")
        if t <= T["T_int"]:
            push("Z4", "xl1")
        if t > T["T_3"]:
            push("Z9", "phi" if t <= T["T_fin"] else "xf1")
        if T["T_int"] <= t <= T["T_fin"]:
            push("Z5", "theta_early" if t <= T["T_6"] else "theta")
        if t > T["T_fin"]:
            push("Z11", "xf2")
        if t <= T["T_6"]:
            push("Z6", "xr1")
        if t > T["T_6"]:
            push("Z10", "xw2" if t <= T["T_10"] else "Theta")
        if t < T["T_10"]:
            push("Z7", "xs2")
        chain.append(ZoneInterval("Z8", cursor_x, None, cursor_id, None, cursor_rho))
        return chain

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "events": [
                {
                    "label": e.label,
                    "T": e.T,
                    "X": e.X,
                    "participants": list(e.participants),
                    "consequence": e.consequence,
                }
                for e in self.events
            ],
            "zones": [
                {"id": z, "birth": birth, "death": death}
                for z, (birth, death) in self.zone_lifetimes.items()
            ],
        }

    def report_lines(self) -> list:
        lines = []
        for e in self.events:
            lines.append(
                f"EVENT label={e.label} T={e.T!r} X={e.X!r} "
                f"participants={','.join(e.participants)} consequence={e.consequence}"
            )
        for z, (birth, death) in self.zone_lifetimes.items():
            lines.append(f"ZONE id={z} birth={birth!r} death={death!r}")
        return lines


def build_timeline(p: MixtureParams) -> Timeline:
    """Construct and order the full event/zone structure for one instance."""
    return Timeline(p)
