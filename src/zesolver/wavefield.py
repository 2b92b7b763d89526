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
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, DomainExit, NoRootInInterval, UnexpectedOrdering
from .hodograph import ImplicitSolution, interaction_time
from .invariants import MixtureParams, lambda_k, validate_params

#: rho samples used to tabulate the parametric boundaries (monotonicity check).
PARAM_TABLE_SIZE = 512
#: relative bracket extension for root solves just beyond a curve's endpoint.
PARAM_MARGIN = 0.02
#: relative tolerance of every root (4 ulp), on the step and the bracket.
ROOT_RTOL = 8.9e-16
#: bracketed_newton raises after this many steps; bisection alone takes
#: about 50 to shrink a bracket at the root's scale to ROOT_RTOL.
ROOT_MAX_ITER = 100
#: a curved shock's beta table: rho = far - (far - start) s, s geometric
#: from 1 down to SHOCK_TABLE_DEPTH, so dense toward far.
SHOCK_TABLE_SIZE = 128
SHOCK_TABLE_DEPTH = 1e-12
#: the early weak curves accept times down to T_int (1 - EARLY_RTOL).
EARLY_RTOL = 1e-12
#: adjacent zones must meet, and zone boundaries keep their order, to this
#: absolute x.
TILING_ATOL = 1e-9


@dataclass
class BoundaryCurve:
    """A zone boundary: shock or weak discontinuity, with adjacent states.

    kind is "shock", "weak-1" or "weak-2"; the digit is the characteristic
    family.  left_state/right_state map t to the (R1, R2) pair on each side
    (equal for weak curves).  Parametric curves carry their (rho, t, x)
    table, rho_of_t (the exact root of t(rho) = t), position ((rho, t) ->
    x, so that x(t) = position(rho_of_t(t), t)) and param_point (rho ->
    (x, t)).  The curved shocks Phi and Theta carry rho_of_t (the invariant
    behind the shock), position and param_point too, without the tables.
    """

    id: str
    kind: str
    t_start: float
    t_end: float
    x: Callable[[float], float]
    left_state: Callable[[float], tuple]
    right_state: Callable[[float], tuple]
    param_grid: Optional[np.ndarray] = field(default=None, repr=False)
    t_grid: Optional[np.ndarray] = field(default=None, repr=False)
    x_grid: Optional[np.ndarray] = field(default=None, repr=False)
    rho_of_t: Optional[Callable[[float], float]] = field(default=None, repr=False)
    position: Optional[Callable[[float, float], float]] = field(default=None, repr=False)
    param_point: Optional[Callable[[float], tuple]] = field(default=None, repr=False)

    @property
    def family(self) -> Optional[int]:
        if self.kind == "weak-1":
            return 1
        if self.kind == "weak-2":
            return 2
        return None


@dataclass(frozen=True)
class Side:
    """One of the two mirrored halves of the wave-interaction picture.

    Side k transports R_k = rho along k-characteristics while the other
    invariant keeps the value fixed.  Side 1: zone Z9, R2 = mu2, rho in
    [q1, mu1], Z5 boundary phi (phi_early before T_3), curved shock Phi
    from T_9 whose invariant runs from q1 towards mu1.  Side 2 mirrors it:
    Z10, R1 = mu1, rho in [mu2, q2], theta (theta_early before T_6), Theta
    from T_10, q2 towards mu2.

    The side's jump at origin (x1, x2) breaks up into a straight shock of
    speed shock_speed (xs1, xs2) and a fan of R_{3-k} (fan zone Z3, Z6)
    between the outer front (xl2, xr1) and the inner front (xr2, xl1); the
    plateau zone (Z2, Z7) with state pair(start) lies between the shock
    and the fan.
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

    def pair(self, rho):
        """The hodograph point (R1, R2) with R_k = rho; rho may be an array."""
        return (rho, self.fixed) if self.k == 1 else (self.fixed, rho)

    @property
    def index(self) -> int:
        """Slot of rho in (R1, R2), and so of d/drho in t_partials."""
        return self.k - 1

    def fan(self, x, t):
        """R_{3-k} in the side's fan, sqrt((x - origin) / (start t)); x may be an array."""
        return np.sqrt((x - self.origin) / (self.start * t))


def mirrored_sides(p: MixtureParams) -> dict:
    """The two Side descriptors of an instance, keyed by k."""
    return {
        1: Side(k=1, fixed=p.mu2, lo=p.q1, hi=p.mu1, start=p.q1, far=p.mu1,
                curve="phi", early="phi_early", death="T_3", shock_event="T_9",
                shock="Phi", zone="Z9", origin=p.x1, shock_speed=p.q1 * p.mu1 * p.mu2,
                fan_zone="Z3", plateau_zone="Z2", outer_front="xl2", inner_front="xr2"),
        2: Side(k=2, fixed=p.mu1, lo=p.mu2, hi=p.q2, start=p.q2, far=p.mu2,
                curve="theta", early="theta_early", death="T_6", shock_event="T_10",
                shock="Theta", zone="Z10", origin=p.x2, shock_speed=p.mu1 * p.mu2 * p.q2,
                fan_zone="Z6", plateau_zone="Z7", outer_front="xr1", inner_front="xl1"),
    }


@dataclass(frozen=True)
class Event:
    """An interaction point on the (x,t)-plane."""

    label: str
    T: float
    X: float
    participants: tuple
    consequence: str


def _ray(x0, speed, t0=0.0):
    return lambda t: x0 + speed * (t - t0)


def _const_state(R1, R2):
    return lambda t: (R1, R2)


def _ordered(side, outer, inner):
    """(left, right) of a pair given outermost first: side 1 lies left of Z5."""
    return (outer, inner) if side.k == 1 else (inner, outer)


def _side_timeline(p: MixtureParams, side: Side, T_int, X_int):
    """The fan death and shock events of one side, and its straight curves.

    Returns (death, shock event, curves by id).  From t = +0 the shock xs_k
    and the fan's outer and inner fronts leave origin; each front moves at
    the (3-k)-speed of the plateau it borders.  The early Z5 boundary
    (phi_early, theta_early) is a k-characteristic through the fan from the
    interaction point:

        sqrt(x - origin) = start^(3/2) (sqrt(t) - sqrt(T_int)) + sqrt(X_int - origin).

    It meets the outer front at the fan's death, T_death = T_int (q2 - q1)^2
    / (start - fixed)^2, and from there the weak line xw_k carries start at
    its k-speed until the shock catches it at T_death (fixed - start) /
    (far - start).
    """
    k, inside = side.k, side.pair(side.start)
    T_death = T_int * (p.q2 - p.q1) ** 2 / (side.start - side.fixed) ** 2
    T_shock = T_death * (side.fixed - side.start) / (side.far - side.start)
    outer_speed = lambda_k(3 - k, *inside)
    X_death = side.origin + outer_speed * T_death
    death = Event(side.death, T_death, X_death, (side.early, side.outer_front),
                  f"{side.fan_zone} dies; {side.zone} born")
    joined = "/".join(_ordered(side, ("Z1", "Z8")[side.index], side.zone))
    shock = Event(
        side.shock_event, T_shock, side.origin + side.start * p.mu1 * p.mu2 * T_shock,
        (f"xw{k}", f"xs{k}"),
        f"{side.plateau_zone} dies; {joined} boundary becomes shock {side.shock}",
    )

    def fan_state(x, t):
        return _ordered(side, side.start, float(side.fan(x, t)))

    root0 = math.sqrt(X_int - side.origin)

    def early(t):
        if t < T_int * (1.0 - EARLY_RTOL):
            raise DomainError(f"{side.early} undefined before the interaction time")
        r = side.start ** 1.5 * (math.sqrt(t) - math.sqrt(T_int)) + root0
        return side.origin + r * r

    inner = _ray(side.origin, lambda_k(3 - k, p.q1, p.q2))
    on_early = lambda t: fan_state(early(t), t)
    plateau = _const_state(*inside)
    curves = (
        BoundaryCurve(f"xs{k}", "shock", 0.0, T_shock, _ray(side.origin, side.shock_speed),
                      *_ordered(side, _const_state(p.mu1, p.mu2), plateau)),
        BoundaryCurve(side.outer_front, f"weak-{3 - k}", 0.0, T_death,
                      _ray(side.origin, outer_speed), plateau, plateau),
        BoundaryCurve(side.inner_front, f"weak-{3 - k}", 0.0, T_int, inner,
                      *_ordered(side, lambda t: fan_state(inner(t), t),
                                _const_state(p.q1, p.q2))),
        BoundaryCurve(side.early, f"weak-{k}", T_int, T_death, early, on_early, on_early),
        BoundaryCurve(f"xw{k}", f"weak-{k}", T_death, T_shock,
                      _ray(X_death, lambda_k(k, *inside), T_death), plateau, plateau),
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


def _parametric_curve(sol: ImplicitSolution, side: Side, t_start, t_end):
    """Build the Z5 boundary of one side, given parametrically by the hodograph.

    The curve is (x, t)(side.pair(rho)) for rho in [side.lo, side.hi]: phi
    with R2 = mu2 on side 1, theta with R1 = mu1 on side 2.  It is a
    characteristic of the other family, across which the state is
    side.pair(rho).  The t(rho) and x(rho) tables are each one array
    evaluation of the hodograph over the whole rho grid.  The t(rho) table
    must be strictly monotone.  rho_of_t is the one solver of
    t(side.pair(rho)) = t: the table of t at the bracket nodes picks the
    cell holding t and gives the ends' values, and bracketed_newton refines
    the root with dt/drho from t_partials; x(t), the states and the
    isochrone's rho*/sigma* all read it.  A time outside the curve's span
    (beyond the bracket margin) raises NoRootInInterval.
    """
    lo, hi = side.lo, side.hi
    t_of = lambda r: sol.t(*side.pair(r))
    x_of = lambda r: sol.x(*side.pair(r))
    level = lambda r, t: (t_of(r) - t, sol.t_partials(*side.pair(r))[side.index])

    grid = np.linspace(lo, hi, PARAM_TABLE_SIZE)
    t_tab = t_of(grid)
    x_tab = x_of(grid)
    d = np.diff(t_tab)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise UnexpectedOrdering(
            f"boundary {side.curve}: t(rho) is not monotone over [{lo}, {hi}]"
        )

    # Bracket nodes: the grid with its two ends pushed out by the margin, so
    # times at or just beyond the curve's endpoints still find their root.
    # A push stops halfway to the fixed invariant: at rho = side.fixed
    # (R1 = R2) t(rho) has its pole, and a node past it brackets nothing.
    nodes = grid.copy()
    nodes[0] -= min(PARAM_MARGIN * (hi - lo), 0.5 * abs(lo - side.fixed))
    nodes[-1] += min(PARAM_MARGIN * (hi - lo), 0.5 * abs(hi - side.fixed))
    t_nodes = t_tab.copy()
    t_nodes[[0, -1]] = t_of(nodes[[0, -1]])
    if d[0] < 0:
        nodes, t_nodes = nodes[::-1], t_nodes[::-1]
    node_list, t_list = nodes.tolist(), t_nodes.tolist()
    last = PARAM_TABLE_SIZE - 1

    def rho_of_t(t):
        # The cell comes from the table, so a time equal to a node's table
        # value is that node's root even where a scalar evaluation of t
        # differs from the table in the last bit.
        j = min(max(int(np.searchsorted(t_nodes, t)), 1), last)
        fa, fb = t_list[j - 1] - t, t_list[j] - t
        if fa * fb > 0.0:
            raise NoRootInInterval(f"{side.curve}: time {t} outside the curve's span")
        return bracketed_newton(
            lambda r: level(r, t), node_list[j - 1], node_list[j], fa, fb
        )

    state = lambda t: side.pair(rho_of_t(t))
    return BoundaryCurve(
        side.curve, f"weak-{3 - side.k}", t_start, t_end,
        lambda t: x_of(rho_of_t(t)), state, state,
        param_grid=grid, t_grid=t_tab, x_grid=x_tab,
        rho_of_t=rho_of_t, position=lambda r, t: x_of(r),
        param_point=lambda r: (x_of(r), t_of(r)),
    )


def _shock_curve(sol: ImplicitSolution, side: Side, event: Event):
    """The curved shock of one side in closed form: Phi from T_9, Theta from T_10.

    The invariant rho behind the shock left the Z5 boundary at tau(rho) =
    t(side.pair(rho)) on a k-characteristic, so the shock passes x(pair) +
    fixed rho^2 (t - tau).  With the Rankine-Hugoniot speed D = mu1 mu2 rho
    this gives an ODE for the time beta(rho) at which the shock carries rho,
    linear in beta; the integrating factor (far - rho)^2 and one integration
    by parts solve it:

        g(rho) = beta (far - rho)^2 = T_s (far - start)^2
                 + [(far - r)(fixed - r) tau(r) + (fixed - far) int tau dr]_start^rho,

    rational in rho, since tau = A/e^2 + B/e^3 with e = rho - fixed.
    rho_of_t(t) solves g(rho) = t (far - rho)^2 by bracketed_newton, in the
    cell of a table of beta dense toward far (built on first use).  beta
    must rise over the table and to infinity at far, else DomainExit.
    """
    p = sol.params
    f, far, start = side.fixed, side.far, side.start
    # t = C N / (R1 - R2)^3 with N symmetric and R1 - R2 = e (side 1), -e (side 2).
    C = (1.0 if side.k == 1 else -1.0) * (p.x2 - p.x1) / (p.q1 * p.q2)
    A = C * (2.0 * f - (p.q1 + p.q2))
    B = C * 2.0 * (f - p.q1) * (f - p.q2)
    tau = lambda r: (A * (r - f) + B) / (r - f) ** 3

    def primitive(r):
        e = r - f
        return (far - r) * (f - r) * tau(r) - (f - far) * (A + 0.5 * B / e) / e

    w0 = far - start
    g0, p0 = event.T * w0 * w0, primitive(start)
    g = lambda r: g0 + (primitive(r) - p0)
    position = lambda r, t: sol.x(*side.pair(r)) + f * r * r * (t - tau(r))
    table = None

    def level(r, t):  # g(r) - t (far - r)^2 and its derivative
        w, e = far - r, r - f
        dF = w * (-(f - r) * (2.0 * A * e + 3.0 * B) / e**4 - 2.0 * tau(r) + 2.0 * t)
        return g(r) - t * w * w, dF

    def rho_of_t(t):
        nonlocal table
        if t < event.T:
            raise DomainError(f"shock {side.shock} starts at {event.label} = {event.T}")
        if table is None:
            rho = far - w0 * np.geomspace(1.0, SHOCK_TABLE_DEPTH, SHOCK_TABLE_SIZE)
            rho[0] = start
            g_tab = np.append(g(rho), g(far))
            beta = g_tab[:-1] / (far - rho) ** 2
            if not (np.all(np.diff(beta) > 0) and g_tab[-1] > 0):
                raise DomainExit(f"shock {side.shock}: beta(rho) does not rise to {far}")
            table = np.append(rho, far).tolist(), g_tab.tolist(), beta
        nodes, g_tab, beta = table
        j = max(int(np.searchsorted(beta, t)), 1)
        a, b = nodes[j - 1], nodes[j]
        fa, fb = g_tab[j - 1] - t * (far - a) ** 2, g_tab[j] - t * (far - b) ** 2
        return bracketed_newton(lambda r: level(r, t), a, b, fa, fb)

    def param_point(r):
        beta = g(r) / (far - r) ** 2
        return position(r, beta), beta

    behind = lambda t: side.pair(rho_of_t(t))
    plateau = _const_state(p.mu1, p.mu2)
    return BoundaryCurve(
        side.shock, "shock", event.T, math.inf, lambda t: position(rho_of_t(t), t),
        *_ordered(side, plateau, behind),
        rho_of_t=rho_of_t, position=position, param_point=param_point,
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
        for side in self.sides.values():
            death, shock, curves = _side_timeline(p, side, T_int, X_int)
            deaths.append(death)
            shocks.append(shock)
            self.curves.update(curves)
            self.plateaus[side.plateau_zone] = side.pair(side.start)
            self.plateaus[side.fan_zone] = _ordered(side, side.start, None)

        self._check_partial_order(ev_int, *deaths, *shocks, ev_fin)
        self.events = sorted([ev_int, *deaths, *shocks, ev_fin], key=lambda e: e.T)
        self.event_by_label = {e.label: e for e in self.events}

        # The curves read from the hodograph come after the gate, so that an
        # instance out of order fails on its order and not on a boundary's
        # monotonicity check: the parametric Z5 boundaries from the fan
        # deaths to T_fin, the Z11 boundaries leaving the separation point
        # at the pure state's speeds, and the curved shocks.
        separated = _const_state(*pure)
        for side, death, shock in zip(self.sides.values(), deaths, shocks):
            k = side.k
            self.curves[side.curve] = _parametric_curve(sol, side, death.T, T_fin)
            self.curves[f"xf{k}"] = BoundaryCurve(
                f"xf{k}", f"weak-{k}", T_fin, math.inf,
                _ray(X_fin, lambda_k(k, *pure), T_fin), separated, separated,
            )
            self.curves[side.shock] = _shock_curve(sol, side, shock)

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
    def _check_partial_order(ev_int, ev3, ev6, ev9, ev10, ev_fin):
        """Reject an instance whose events are not in the constructed order.

        The first four hold on the whole validated cone 0 < q1 < mu1 < mu2
        < q2.  T_3 = T_int (q2 - q1)^2 / (mu2 - q1)^2 and T_6 = T_int
        (q2 - q1)^2 / (q2 - mu1)^2 exceed T_int because mu2 - q1 and q2 -
        mu1 are both less than q2 - q1.  T_9 = T_3 (mu2 - q1) / (mu1 - q1)
        and T_10 = T_6 (q2 - mu1) / (q2 - mu2) exceed T_3 and T_6 because
        mu1 < mu2.  In floating point they can fail only by rounding, where
        two of the gaps agree to a few ulps.  T_9 < T_fin and T_10 < T_fin
        do not follow from the cone; they bound the scenario this
        construction covers.
        """
        required = [
            ("T_int < T_3", ev_int.T, ev3.T),
            ("T_int < T_6", ev_int.T, ev6.T),
            ("T_3 < T_9", ev3.T, ev9.T),
            ("T_6 < T_10", ev6.T, ev10.T),
            ("T_9 < T_fin", ev9.T, ev_fin.T),
            ("T_10 < T_fin", ev10.T, ev_fin.T),
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
        left_rho of the zone it starts.  This is the one place that decides
        which curve bounds a zone at t; the isochrone samplers read their
        ends from these intervals.
        """
        if t <= 0.0:
            raise DomainError("zone layout defined for t > 0 only")
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

        self._check_tiling(chain)
        return chain

    @staticmethod
    def _check_tiling(chain):
        for left, right in zip(chain, chain[1:]):
            if left.x_right is None or right.x_left is None:
                raise DomainError("interior zone with an open end")
            if not math.isclose(left.x_right, right.x_left, rel_tol=0.0, abs_tol=TILING_ATOL):
                raise DomainError(
                    f"zone tiling gap between {left.zone} and {right.zone}"
                )
        xs = [z.x_right for z in chain[:-1]]
        if any(b < a - TILING_ATOL for a, b in zip(xs, xs[1:])):
            raise UnexpectedOrdering("zone boundaries out of order")

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
