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
partial derivatives, and the pair's inverse on an isochrone.
"""

from __future__ import annotations

import numpy as np

from .errors import CoincidentInvariants, NoRootInInterval
from .invariants import MixtureParams, lambda_k, validate_params

#: |R1 - R2| below this (times scale) counts as a coincident-invariant misuse.
COINCIDENT_RTOL = 1e-9
#: invert stops when every Newton step is below this fraction of the state:
#: convergence is quadratic, so the error left is far below round-off.
NEWTON_STOP = 1e-10
#: invert raises after this many Newton steps; a converging solve takes <= 5.
NEWTON_MAX_ITER = 30


def _check_separated(R1, R2):
    """Raise where |R1 - R2| < COINCIDENT_RTOL * max(1, |R1|, |R2|), elementwise."""
    scale = np.maximum(1.0, np.maximum(np.abs(R1), np.abs(R2)))
    if np.any(np.abs(np.asarray(R1) - np.asarray(R2)) < COINCIDENT_RTOL * scale):
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
    d = R1 - R2
    return num / (d * d * d)


class ImplicitSolution:
    """Closed-form implicit solution t(R1, R2), x(R1, R2) for one instance.

    Normalized so t(q1, q2) = T_int, the birth time of the interaction
    region.  Evaluators accept scalars or numpy arrays.  Powers are taken as
    products, so a point evaluated alone gives the same bits as inside an
    array (numpy's power and Python's disagree in the last bit, and numpy's
    is slow on the negative R1 - R2).
    """

    def __init__(self, params: MixtureParams):
        self.params = validate_params(params)
        self.T_int = interaction_time(params)

    # -- time ---------------------------------------------------------------

    def t(self, R1, R2):
        """t(R1, R2) = T_int * V(q1, q2 | R1, R2), in closed form (_t_x_partials)."""
        _check_separated(R1, R2)
        return self._t_x_partials(R1, R2)[0]

    def t_partials(self, R1, R2):
        """Exact (dt/dR1, dt/dR2) of the closed form.

        With C, d and N as in _t_x_partials and S = q1 + q2:

            dt/dR1 = C ((2 R2 - S) d - 3 N) / d^4
            dt/dR2 = C ((2 R1 - S) d + 3 N) / d^4
        """
        _check_separated(R1, R2)
        return self._t_x_partials(R1, R2)[2:]

    # -- position -----------------------------------------------------------

    def x(self, R1, R2):
        """x(R1, R2) from the kernel under t <-> x, R -> 1/R (_t_x_partials)."""
        _check_separated(R1, R2)
        return self._t_x_partials(R1, R2)[1]

    def x_partials(self, R1, R2):
        """(dx/dR1, dx/dR2) via the hodograph relations x_Rk = lambda^(3-k) t_Rk."""
        t_r1, t_r2 = self.t_partials(R1, R2)
        return lambda_k(2, R1, R2) * t_r1, lambda_k(1, R1, R2) * t_r2

    # -- inverse map on an isochrone --------------------------------------------

    def _t_x_partials(self, R1, R2):
        """(t, x, dt/dR1, dt/dR2) in one pass; scalars or arrays, unchecked
        (t, x and t_partials check).

        With u = R1 - q1, v = q2 - R2, d = R1 - R2 and C = (x2 - x1)/(q1 q2),
        t = C N / d^3 with N = (q2 - q1) d - 2 u v, and x = x1 + C R2^2 K / d^3
        with K = -R1 d^2 + u ((2 R1 - R2) d - (3 R1 - R2) v) + v R1 d.  On the
        cone u, v >= 0 > d, so no two terms of N differ in sign, nor of K
        where R2 < 2 R1, as at narrow gaps; there the expanded forms, whose
        terms are of size R^3, lose about eps / gap^3.
        """
        p = self.params
        C, S = (p.x2 - p.x1) / (p.q1 * p.q2), p.q1 + p.q2
        d, u, v = R1 - R2, R1 - p.q1, p.q2 - R2
        d3 = d * d * d
        N = (p.q2 - p.q1) * d - 2.0 * u * v
        K = -R1 * d * d + u * ((2.0 * R1 - R2) * d - (3.0 * R1 - R2) * v) + v * R1 * d
        t_r1 = C * ((2.0 * R2 - S) * d - 3.0 * N) / (d3 * d)
        t_r2 = C * ((2.0 * R1 - S) * d + 3.0 * N) / (d3 * d)
        return C * N / d3, p.x1 + C * (R2 * R2) * K / d3, t_r1, t_r2

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
            P, d, dt, dx = R1 * R2, R1 - R2, t - t_star, xx - x
            dR1 = (P * R1 * dt - dx) / (t_r1 * P * d)
            dR2 = (dx - P * R2 * dt) / (t_r2 * P * d)
            R1 = np.minimum(np.maximum(R1 - dR1, R1l), R1r)
            R2 = np.minimum(np.maximum(R2 - dR2, R2l), R2r)
            if np.all((abs(dR1) <= NEWTON_STOP * R1) & (abs(dR2) <= NEWTON_STOP * R2)):
                return R1, R2
        raise NoRootInInterval(f"isochrone t* = {t_star}: Newton did not converge")
