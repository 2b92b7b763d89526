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
#: buffers of one _t_x_partials workspace.
_T_X_ROWS = 14


def _check_separated(R1, R2):
    """Raise where |R1 - R2| < COINCIDENT_RTOL * max(1, |R1|, |R2|), elementwise."""
    scale = np.maximum(1.0, np.maximum(np.abs(R1), np.abs(R2)))
    if (np.abs(np.asarray(R1) - np.asarray(R2)) < COINCIDENT_RTOL * scale).any():
        raise CoincidentInvariants("R1 and R2 coincide: (R1-R2)^3 denominator")


def _workspace(rows, shape):
    """rows float buffers of the given shape, views of one block; a 0-d
    shape gives 0-d arrays, which a ufunc can write into, not scalars."""
    block = np.empty((rows, *shape))
    return tuple(block[i, ...] for i in range(rows))


def _scalar(a):
    """A 0-d result as a Python float with its bits, any other unchanged:
    a scalar evaluation returns what the same operators on floats would."""
    return a.item() if a.ndim == 0 else a


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
        self.params = p = validate_params(params)
        self.T_int = interaction_time(params)
        # C, S, q1, q2, q2 - q1, x1 and the factors 2 and 3 of _t_x_partials,
        # as 0-d arrays: numpy takes them faster than Python floats, and
        # with the same bits.
        self._constants = tuple(
            np.array(c, dtype=float)
            for c in ((p.x2 - p.x1) / (p.q1 * p.q2), p.q1 + p.q2, p.q1, p.q2,
                      p.q2 - p.q1, p.x1, 2.0, 3.0)
        )

    # -- time ---------------------------------------------------------------

    def t(self, R1, R2):
        """t(R1, R2) = T_int * V(q1, q2 | R1, R2), in closed form (_t_x_partials)."""
        _check_separated(R1, R2)
        return _scalar(self._t_x_partials(R1, R2)[0])

    def t_partials(self, R1, R2):
        """Exact (dt/dR1, dt/dR2) of the closed form.

        With C, d and N as in _t_x_partials and S = q1 + q2:

            dt/dR1 = C ((2 R2 - S) d - 3 N) / d^4
            dt/dR2 = C ((2 R1 - S) d + 3 N) / d^4
        """
        _check_separated(R1, R2)
        return tuple(map(_scalar, self._t_x_partials(R1, R2)[2:]))

    # -- position -----------------------------------------------------------

    def x(self, R1, R2):
        """x(R1, R2) from the kernel under t <-> x, R -> 1/R (_t_x_partials)."""
        _check_separated(R1, R2)
        return _scalar(self._t_x_partials(R1, R2)[1])

    def x_partials(self, R1, R2):
        """(dx/dR1, dx/dR2) via the hodograph relations x_Rk = lambda^(3-k) t_Rk."""
        t_r1, t_r2 = self.t_partials(R1, R2)
        return lambda_k(2, R1, R2) * t_r1, lambda_k(1, R1, R2) * t_r2

    # -- inverse map on an isochrone --------------------------------------------

    def _t_x_partials(self, R1, R2, ws=None):
        """(t, x, dt/dR1, dt/dR2) in one pass; scalars or arrays, unchecked
        (t, x and t_partials check).

        With u = R1 - q1, v = q2 - R2, d = R1 - R2 and C = (x2 - x1)/(q1 q2),
        t = C N / d^3 with N = (q2 - q1) d - 2 u v, and x = x1 + C R2^2 K / d^3
        with K = -R1 d^2 + u ((2 R1 - R2) d - (3 R1 - R2) v) + v R1 d.  On the
        cone u, v >= 0 > d, so no two terms of N differ in sign, nor of K
        where R2 < 2 R1, as at narrow gaps; there the expanded forms, whose
        terms are of size R^3, lose about eps / gap^3.

        Each operation writes into a buffer of ws, _T_X_ROWS arrays of the
        broadcast shape of R1 and R2 (allocated when None), in the order and
        with the operands that the operator form of these expressions would
        take, so the bits are those of plain float arithmetic; only d^3 d,
        3 N and 2 R1 are computed once for both of their uses.  The four
        results are buffers of ws, and ws[0] holds d.  Scalars give 0-d
        arrays (see _scalar).
        """
        if ws is None:
            ws = _workspace(_T_X_ROWS, np.broadcast_shapes(np.shape(R1), np.shape(R2)))
        d, u, v, d3, d4, N, N3, K, a, b, t, x, t_r1, t_r2 = ws
        C, S, q1, q2, D, x1, two, three = self._constants
        add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
        sub(R1, R2, d)
        sub(R1, q1, u)
        sub(q2, R2, v)
        mul(d, d, d3)
        mul(d3, d, d3)
        mul(d3, d, d4)
        # N = (q2 - q1) d - 2 u v
        mul(D, d, N)
        mul(two, u, a)
        mul(a, v, a)
        sub(N, a, N)
        mul(three, N, N3)
        # K = -R1 d d + u ((2 R1 - R2) d - (3 R1 - R2) v) + v R1 d; 2 R1 is
        # kept in t_r2 for its own use there.
        mul(two, R1, t_r2)
        sub(t_r2, R2, a)
        mul(a, d, a)
        mul(three, R1, b)
        sub(b, R2, b)
        mul(b, v, b)
        sub(a, b, a)
        mul(u, a, a)
        np.negative(R1, K)
        mul(K, d, K)
        mul(K, d, K)
        add(K, a, K)
        mul(v, R1, a)
        mul(a, d, a)
        add(K, a, K)
        # dt/dR1 = C ((2 R2 - S) d - 3 N) / (d^3 d)
        mul(two, R2, t_r1)
        sub(t_r1, S, t_r1)
        mul(t_r1, d, t_r1)
        sub(t_r1, N3, t_r1)
        mul(C, t_r1, t_r1)
        div(t_r1, d4, t_r1)
        # dt/dR2 = C ((2 R1 - S) d + 3 N) / (d^3 d)
        sub(t_r2, S, t_r2)
        mul(t_r2, d, t_r2)
        add(t_r2, N3, t_r2)
        mul(C, t_r2, t_r2)
        div(t_r2, d4, t_r2)
        # t = C N / d^3
        mul(C, N, t)
        div(t, d3, t)
        # x = x1 + C (R2 R2) K / d^3
        mul(R2, R2, x)
        mul(C, x, x)
        mul(x, K, x)
        div(x, d3, x)
        add(x1, x, x)
        return t, x, t_r1, t_r2

    def invert(self, t_star, x, left, right):
        """The states (R1, R2) with t(R1, R2) = t* and x(R1, R2) = x, x an array.

        The states of the isochrone points left = (x_l, R1_l, R2_l) and right
        = (x_r, R1_r, R2_r) bound the solution componentwise.  Newton starts
        on the chord between them, in proportion to x, and clips each iterate
        to their box (rtsafe's bracket safeguard).  The Jacobian [[t_R1, t_R2],
        [lambda2 t_R1, lambda1 t_R2]] has determinant (lambda1 - lambda2) t_R1
        t_R2, where lambda1 - lambda2 = R1 R2 (R1 - R2), so with P = R1 R2 and
        d = R1 - R2 the step is

            dR1 = (P R1 (t - t*) - (x(R1, R2) - x)) / ((t_R1 P) d)
            dR2 = ((x(R1, R2) - x) - P R2 (t - t*)) / ((t_R2 P) d),

        and Newton stops once |dRk| <= NEWTON_STOP Rk everywhere.  Every
        iteration runs in one workspace allocated per call: each operation
        writes into a buffer (by keyword for maximum and minimum, which
        deprecate a third positional argument), with the box ends, t* and
        NEWTON_STOP as 0-d arrays, and with the operator form's operands and
        order, so the states are bitwise those of the same Newton written
        with operators.
        """
        (xl, R1l, R2l), (xr, R1r, R2r) = left, right
        if not R2l - R1r >= COINCIDENT_RTOL * max(1.0, abs(R2l)):
            raise CoincidentInvariants(f"state box reaches R1 = R2 ({R1r}, {R2l})")
        lo1, hi1, lo2, hi2, t0, stop = (
            np.array(c, dtype=float) for c in (R1l, R1r, R2l, R2r, t_star, NEWTON_STOP)
        )
        shape = np.shape(x)
        ws = _workspace(_T_X_ROWS + 7, shape)
        formula, (P, dt, dx, num, den, dR1, dR2) = ws[:_T_X_ROWS], ws[_T_X_ROWS:]
        d = formula[0]
        R1, R2 = np.empty((2, *shape))
        done = np.empty(shape, dtype=bool)
        sub, mul, div = np.subtract, np.multiply, np.divide
        absolute, less_equal = np.absolute, np.less_equal
        maximum, minimum = np.maximum, np.minimum
        # The chord: s = (x - x_l) / (x_r - x_l), Rk = Rk_l + s (Rk_r - Rk_l).
        sub(x, xl, P)
        div(P, xr - xl, P)
        mul(P, R1r - R1l, R1)
        np.add(lo1, R1, R1)
        mul(P, R2r - R2l, R2)
        np.add(lo2, R2, R2)
        for _ in range(NEWTON_MAX_ITER):
            t, xx, t_r1, t_r2 = self._t_x_partials(R1, R2, formula)
            mul(R1, R2, P)
            sub(t, t0, dt)
            sub(xx, x, dx)
            mul(P, R1, num)
            mul(num, dt, num)
            sub(num, dx, num)
            mul(t_r1, P, den)
            mul(den, d, den)
            div(num, den, dR1)
            mul(P, R2, num)
            mul(num, dt, num)
            sub(dx, num, num)
            mul(t_r2, P, den)
            mul(den, d, den)
            div(num, den, dR2)
            sub(R1, dR1, R1)
            maximum(R1, lo1, out=R1)
            minimum(R1, hi1, out=R1)
            sub(R2, dR2, R2)
            maximum(R2, lo2, out=R2)
            minimum(R2, hi2, out=R2)
            # all(a & b) as all(a) and all(b): the same decision, and the
            # second test is skipped while R1 still moves.
            if (less_equal(absolute(dR1, num), mul(stop, R1, den), done).all()
                    and less_equal(absolute(dR2, num), mul(stop, R2, den), done).all()):
                return R1, R2
        raise NoRootInInterval(f"isochrone t* = {t_star}: Newton did not converge")
