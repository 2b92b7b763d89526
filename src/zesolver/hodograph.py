"""Hodograph-plane solution of the wave-interaction region.

Swapping dependent and independent variables turns the quasilinear system
into a linear second-order equation for t(R1, R2),

    t_{R1 R2} + 2 (t_{R1} - t_{R2}) / (R2 - R1) = 0,

whose Riemann-Green function V is known in closed form.  With boundary data
on the two characteristics bounding the interaction region the Goursat
solution collapses to

    t(R1, R2) = T_int * V(q1, q2 | R1, R2),

and x(R1, R2) follows from the same kernel after the substitution R -> 1/R.
This module provides the kernel, the closed-form pair (t, x) with exact
partial derivatives, and a generic Goursat evaluator whose boundary
integrals run on adaptive Gauss-Legendre panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import CoincidentInvariants, NoRootInInterval, QuadratureFailure
from .invariants import MixtureParams, lambda_k, validate_params

#: |R1 - R2| below this (times scale) counts as a coincident-invariant misuse.
COINCIDENT_RTOL = 1e-9
#: invert stops when every Newton step is below this fraction of the state:
#: convergence is quadratic, so the error left is far below round-off.
NEWTON_STOP = 1e-10
#: invert raises after this many Newton steps; a converging solve takes <= 5.
NEWTON_MAX_ITER = 30
#: Goursat data must meet t0 at the corner to this fraction of max(1, |t0|).
CORNER_RTOL = 1e-9
#: a boundary integral is done when its panels' error estimates sum below
#: QUAD_ATOL or QUAD_RTOL of its value, and fails at QUAD_MAX_PANELS panels.
QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-12
QUAD_MAX_PANELS = 200


def _check_separated(R1, R2):
    """Raise where |R1 - R2| < COINCIDENT_RTOL * max(1, |R1|, |R2|).

    Scalars and 0-d arrays take a plain-float path: root solves call the
    evaluators one point at a time, and there the numpy version of the test
    costs more than the formula it guards.
    """
    try:
        r1, r2 = float(R1), float(R2)
    except TypeError:  # an array of several points: test elementwise
        scale = np.maximum(1.0, np.maximum(np.abs(R1), np.abs(R2)))
        coincident = np.any(
            np.abs(np.asarray(R1) - np.asarray(R2)) < COINCIDENT_RTOL * scale
        )
    else:
        coincident = abs(r1 - r2) < COINCIDENT_RTOL * max(1.0, abs(r1), abs(r2))
    if coincident:
        raise CoincidentInvariants("R1 and R2 coincide: (R1-R2)^3 denominator")


def interaction_time(p: MixtureParams) -> float:
    """T_int = (x2 - x1) / (q1 q2 (q2 - q1)): the inner fan fronts meet."""
    return (p.x2 - p.x1) / (p.q1 * p.q2 * (p.q2 - p.q1))


def riemann_green(r1, r2, R1, R2):
    """Riemann-Green kernel V(r1, r2 | R1, R2) of the hodograph equation.

    V = ((R1+R2)(r1+r2) - 2(R1 R2 + r1 r2)) (r1 - r2) / (R1 - R2)^3,
    normalized so V(r1, r2 | r1, r2) = 1.
    """
    _check_separated(R1, R2)
    num = ((R1 + R2) * (r1 + r2) - 2.0 * (R1 * R2 + r1 * r2)) * (r1 - r2)
    return num / (R1 - R2) ** 3


class ImplicitSolution:
    """Closed-form implicit solution t(R1, R2), x(R1, R2) for one instance.

    Normalized so t(q1, q2) = T_int, the birth time of the interaction
    region.  Evaluators accept scalars or numpy arrays.
    """

    def __init__(self, params: MixtureParams):
        self.params = validate_params(params)
        self.T_int = interaction_time(params)

    # -- time ---------------------------------------------------------------

    def t(self, R1, R2):
        """t(R1, R2) = T_int * V(q1, q2 | R1, R2), expanded in closed form."""
        p = self.params
        _check_separated(R1, R2)
        num = 2.0 * R1 * R2 + 2.0 * p.q1 * p.q2 - (p.q1 + p.q2) * (R1 + R2)
        return (p.x2 - p.x1) * num / (p.q1 * p.q2 * (R1 - R2) ** 3)

    def t_partials(self, R1, R2):
        """Exact (dt/dR1, dt/dR2) of the closed form.

        With C = (x2-x1)/(q1 q2), S = q1+q2, d = R1-R2 and
        N = 2 R1 R2 + 2 q1 q2 - S (R1+R2):

            dt/dR1 = C ((2 R2 - S) d - 3 N) / d^4
            dt/dR2 = C ((2 R1 - S) d + 3 N) / d^4
        """
        p = self.params
        _check_separated(R1, R2)
        C = (p.x2 - p.x1) / (p.q1 * p.q2)
        S = p.q1 + p.q2
        d = R1 - R2
        N = 2.0 * R1 * R2 + 2.0 * p.q1 * p.q2 - S * (R1 + R2)
        t_r1 = C * ((2.0 * R2 - S) * d - 3.0 * N) / d**4
        t_r2 = C * ((2.0 * R1 - S) * d + 3.0 * N) / d**4
        return t_r1, t_r2

    # -- position -----------------------------------------------------------

    def x(self, R1, R2):
        """x(R1, R2) obtained from the kernel under t <-> x, R -> 1/R."""
        p = self.params
        _check_separated(R1, R2)
        d3 = (R1 - R2) ** 3
        term1 = (
            (p.x2 - p.x1)
            * (R1 * R2) ** 2
            * (R2 + R1 - 2.0 * (p.q1 + p.q2))
            / (p.q1 * p.q2 * d3)
        )
        term2 = (
            p.x1 * R1**3 - p.x2 * R2**3 + 3.0 * R1 * R2 * (R2 * p.x2 - R1 * p.x1)
        ) / d3
        return term1 + term2

    def x_partials(self, R1, R2):
        """(dx/dR1, dx/dR2) via the hodograph relations x_Rk = lambda^(3-k) t_Rk."""
        t_r1, t_r2 = self.t_partials(R1, R2)
        return lambda_k(2, R1, R2) * t_r1, lambda_k(1, R1, R2) * t_r2

    # -- inverse map on an isochrone --------------------------------------------

    def _t_x_partials(self, R1, R2):
        """(t, x, dt/dR1, dt/dR2) of arrays in one pass: the formulas of t, x
        and t_partials sharing d = R1 - R2 and N, with products for powers."""
        p = self.params
        C, S = (p.x2 - p.x1) / (p.q1 * p.q2), p.q1 + p.q2
        d, P = R1 - R2, R1 * R2
        d3 = d * d * d
        N = 2.0 * P + 2.0 * p.q1 * p.q2 - S * (R1 + R2)
        x = C * P * P * (R2 + R1 - 2.0 * S) / d3 + (
            p.x1 * R1 * R1 * R1 - p.x2 * R2 * R2 * R2 + 3.0 * P * (R2 * p.x2 - R1 * p.x1)
        ) / d3
        t_r1 = C * ((2.0 * R2 - S) * d - 3.0 * N) / (d3 * d)
        t_r2 = C * ((2.0 * R1 - S) * d + 3.0 * N) / (d3 * d)
        return C * N / d3, x, t_r1, t_r2

    def invert(self, t_star, x, left, right):
        """The states (R1, R2) with t(R1, R2) = t* and x(R1, R2) = x, x an array.

        The states of the isochrone points left = (x_l, R1_l, R2_l) and right
        = (x_r, R1_r, R2_r) bound the solution componentwise.  Newton starts
        on the chord between them, in proportion to x, and clips each iterate
        to their box (rtsafe's bracket safeguard).  The Jacobian [[t_R1, t_R2],
        [lambda2 t_R1, lambda1 t_R2]] has determinant (lambda1 - lambda2) t_R1
        t_R2, where lambda1 - lambda2 = R1 R2 (R1 - R2).
        """
        (xl, R1l, R2l), (xr, R1r, R2r) = left, right
        if not R2l - R1r >= COINCIDENT_RTOL * max(1.0, abs(R2l)):
            raise CoincidentInvariants(f"state box reaches R1 = R2 ({R1r}, {R2l})")
        s = (x - xl) / (xr - xl)
        R1, R2 = R1l + s * (R1r - R1l), R2l + s * (R2r - R2l)
        for _ in range(NEWTON_MAX_ITER):
            t, xx, t_r1, t_r2 = self._t_x_partials(R1, R2)
            P = R1 * R2
            dR1 = (P * R1 * (t - t_star) - (xx - x)) / (t_r1 * P * (R1 - R2))
            dR2 = ((xx - x) - P * R2 * (t - t_star)) / (t_r2 * P * (R1 - R2))
            R1 = np.clip(R1 - dR1, R1l, R1r)
            R2 = np.clip(R2 - dR2, R2l, R2r)
            if np.all((abs(dR1) <= NEWTON_STOP * R1) & (abs(dR2) <= NEWTON_STOP * R2)):
                return R1, R2
        raise NoRootInInterval(f"isochrone t* = {t_star}: Newton did not converge")

    # -- characteristic boundary restrictions -------------------------------

    def t_on_phi(self, R2):
        """Time along the left bounding characteristic R1 = q1."""
        p = self.params
        return self.T_int * (p.q2 - p.q1) ** 2 / (R2 - p.q1) ** 2

    def t_on_theta(self, R1):
        """Time along the right bounding characteristic R2 = q2."""
        p = self.params
        return self.T_int * (p.q1 - p.q2) ** 2 / (R1 - p.q2) ** 2


@dataclass(frozen=True)
class CharacteristicBoundaryData:
    """Goursat data: t prescribed on the two characteristics of a corner.

    on_r1_axis(R1) is t(R1, R2_0); on_r2_axis(R2) is t(R1_0, R2).  Both must
    agree with t0 at the corner (R1_0, R2_0).
    """

    R1_0: float
    R2_0: float
    t0: float
    on_r1_axis: Callable[[float], float]
    on_r2_axis: Callable[[float], float]

    def __post_init__(self):
        for corner in (self.on_r1_axis(self.R1_0), self.on_r2_axis(self.R2_0)):
            if abs(corner - self.t0) > CORNER_RTOL * max(1.0, abs(self.t0)):
                raise ValueError(
                    f"boundary data disagree at the corner: {corner} vs {self.t0}"
                )


def scenario_boundary_data(sol: ImplicitSolution) -> CharacteristicBoundaryData:
    """Boundary data carried by the weak-discontinuity curves of the scenario."""
    p = sol.params
    return CharacteristicBoundaryData(
        R1_0=p.q1,
        R2_0=p.q2,
        t0=sol.T_int,
        on_r1_axis=sol.t_on_theta,
        on_r2_axis=sol.t_on_phi,
    )


def goursat_solution(data: CharacteristicBoundaryData, R1: float, R2: float) -> float:
    """Evaluate the Goursat solution with kernel V at a hodograph point.

    t = -V(R1_0, R2_0 | R1, R2) t0
        + 2 (R1-R1_0)(R2-R1_0) H2(R2) / (R1-R2)^3
        - 2 (R1-R2_0)(R2-R2_0) H1(R1) / (R1-R2)^3
        + (R1-R2_0)^2 t(R1, R2_0) / (R1-R2)^2
        + (R2-R1_0)^2 t(R1_0, R2) / (R1-R2)^2

    with H1, H2 the running integrals of the boundary data (_boundary_integral).
    """
    _check_separated(R1, R2)
    H1 = _boundary_integral(data.on_r1_axis, data.R1_0, R1)
    H2 = _boundary_integral(data.on_r2_axis, data.R2_0, R2)
    d = R1 - R2
    V0 = riemann_green(data.R1_0, data.R2_0, R1, R2)
    return (
        -V0 * data.t0
        + 2.0 * (R1 - data.R1_0) * (R2 - data.R1_0) * H2 / d**3
        - 2.0 * (R1 - data.R2_0) * (R2 - data.R2_0) * H1 / d**3
        + (R1 - data.R2_0) ** 2 * data.on_r1_axis(R1) / d**2
        + (R2 - data.R1_0) ** 2 * data.on_r2_axis(R2) / d**2
    )


@cache
def _rules():
    """(nodes, weights) of the Gauss-Legendre rules of orders 20 and 10,
    built on first use: only the Goursat evaluator needs them."""
    return [(x.tolist(), w) for x, w in map(np.polynomial.legendre.leggauss, (20, 10))]


def _panel(fn, lo, hi):
    """fn's integral over [lo, hi] by the order-20 Gauss-Legendre rule, and
    its distance from the order-10 rule as the error estimate."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fine, coarse = (half * float(np.dot(w, [fn(mid + half * x) for x in nodes]))
                    for nodes, w in _rules())
    return fine, abs(fine - coarse)


def _boundary_integral(fn, a, b):
    """int_a^b fn on adaptive panels: the panel with the largest error
    estimate is halved until the estimates sum below max(QUAD_ATOL,
    QUAD_RTOL |value|); QuadratureFailure once QUAD_MAX_PANELS are in use."""
    panels = [(a, b, *_panel(fn, a, b))]
    while True:
        value = sum(p[2] for p in panels)
        error = sum(p[3] for p in panels)
        if error <= max(QUAD_ATOL, QUAD_RTOL * abs(value)):
            return value
        if len(panels) >= QUAD_MAX_PANELS:
            raise QuadratureFailure(
                f"boundary quadrature error estimate {error} on [{a}, {b}] "
                f"after {len(panels)} panels"
            )
        lo, hi, *_ = panels.pop(max(range(len(panels)), key=lambda k: panels[k][3]))
        mid = 0.5 * (lo + hi)
        panels += [(lo, mid, *_panel(fn, lo, mid)), (mid, hi, *_panel(fn, mid, hi))]
