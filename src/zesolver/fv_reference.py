"""Independent finite-volume oracle for the conservation-law form.

A first-order monotone scheme (characteristic upwinding: both wave speeds
are positive, so every face takes the flux of the cell on its left)
advances

    u^k_t + ( mu1 mu2 mu^k u^k / (1 + u1 + u2) )_x = 0,   k = 1, 2,

on a uniform grid with a copy (outflow) ghost cell on the left.  The
mu1*mu2 factor puts the flux in the same time normalization as the
characteristic speeds lambda^k = R^k R^1 R^2 used everywhere else: by
Vieta R^1 R^2 = mu1 mu2 / (1+s), so this flux's Jacobian has exactly
those eigenvalues (the bare flux mu^k u^k/(1+s) would evolve mu1*mu2
times slower).

The state is one (2, n) array whose rows are u1 and u2, and a step
updates both components with one set of array operations.  The ghost
cell's flux is the first cell's own, so the first face difference is
exactly zero; it is kept as a zero column instead of building the ghost
cell.  The time step obeys the CFL rule dt = cfl dx / max lambda2.

fv_runs advances several grids at once: their states sit side by side in
one (2, sum n) array, so each step pays numpy's per-call cost once for all
of them, while every grid keeps its own time step, time and step count.
Each grid steps only its active window: left of it the cells repeat the
first cell, and right of it the last, bit for bit (the zeros on either
side of the initial column), so a step would leave them as they are; the
window widens by one cell per step.  Each grid runs once, to the last of
the requested times, and an earlier time is reached by a clipped step
into a copy.  Each grid's result at each time is bitwise that of the
grid run alone, over all its cells, to that time (fv_run).  A step
allocates nothing but those copies: its temporaries are allocated once
per stacking, and it calls numpy only through ufuncs with a positional
out.  One reduction guards it, the minimum of lambda1; the checks that
name a bad cell's fault run only when that minimum is not positive.

The scheme shares nothing with the analytic path beyond the flux
definition, which makes it a genuinely independent cross-check: shocks
land in the right cells, smooth regions converge at first order, and weak
discontinuities come out smeared.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    CFLViolation,
    ComplexRoots,
    DomainError,
    DomainMismatch,
    NonPhysicalState,
)
from .invariants import MixtureParams, validate_params


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid with a CFL number controlling the time step."""

    x_min: float
    x_max: float
    n_cells: int
    cfl: float = 0.45

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise CFLViolation(f"CFL number must be in (0, 1), got {self.cfl}")
        if self.n_cells < 4 or self.x_max <= self.x_min:
            raise CFLViolation("grid needs x_min < x_max and at least 4 cells")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class FvResult:
    """Cell centers and cell-averaged concentrations at the final time."""

    t_end: float
    x: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    steps: int


def invariants_field(p: MixtureParams, u1, u2):
    """Per-cell (R1, R2) from the state quadratic, vectorized.

    R1 <= R2 are the roots of a R^2 - b R + c = 0 with a = 1 + (u1 + u2),
    b = mu1 + mu2 + u1 mu2 + u2 mu1 and c = mu1 mu2.  u1 and u2 are left
    unchanged.
    """
    U = np.array(np.broadcast_arrays(u1, u2), dtype=float)
    a, b, disc = np.empty((3, *U.shape[1:]))
    T = np.empty_like(U)
    _quadratic(_constants(p), (U, *U), _mobilities(p, U)[1], (T, *T), a, b, disc)
    # fmin skips NaN, and the empty minimum is +inf: exactly (a <= 0).any().
    if np.fmin.reduce(a, initial=np.inf) <= 0.0:
        raise NonPhysicalState("1 + u1 + u2 <= 0 in a cell")
    if np.fmin.reduce(disc, initial=np.inf) < 0.0:
        raise ComplexRoots("cell state left the hyperbolic region")
    return _roots(a, b, disc, T[0])


def _mobilities(p, U):
    """(mu1; mu2) and (mu2; mu1) as full rows in the shape of the state
    U = (u1; u2)."""
    mu = np.empty_like(U)
    mu[0], mu[1] = p.mu1, p.mu2
    return mu, mu[::-1].copy()


def _constants(p):
    """(1, mu1 + mu2, 4 mu1 mu2, mu1 mu2) as 0-d arrays: numpy takes a 0-d
    array operand faster than a Python float, and with the same bits."""
    c = p.mu1 * p.mu2
    return tuple(np.array(v, dtype=float) for v in (1.0, p.mu1 + p.mu2, 4.0 * c, c))


def _quadratic(constants, state, mu21, scratch, a, b, disc):
    """a, b and disc = b^2 - 4 a c of the state quadratic, into the given
    buffers.  constants is _constants(p).  state is (U, u1, u2), the state
    U = (u1; u2) with its rows, and scratch is (T, t1, t2) likewise in U's
    shape (a row view costs about as much as a numpy call).  With mu21 =
    (mu2; mu1) in U's shape, one multiply makes both of b's products,
    T = (u1 mu2; u2 mu1)."""
    one, mu_sum, c4, _ = constants
    U, u1, u2 = state
    T, t1, t2 = scratch
    np.add(u1, u2, a)
    np.add(a, one, a)
    np.multiply(U, mu21, T)
    np.add(t1, mu_sum, b)
    np.add(b, t2, b)
    np.multiply(b, b, disc)
    # (4 a) c == a (4 c): scaling by 4 is exact, so both round one product.
    np.multiply(a, c4, t1)
    np.subtract(disc, t1, disc)


def _roots(a, b, disc, R1):
    """(R1, R2) = ((b - sqrt disc) / 2a, (b + sqrt disc) / 2a), R1 written
    into R1 and R2 into b; a and disc are overwritten."""
    np.sqrt(disc, disc)
    np.add(a, a, a)
    np.subtract(b, disc, R1)
    np.divide(R1, a, R1)
    np.add(b, disc, b)
    np.divide(b, a, b)
    return R1, b


def initial_averages(p: MixtureParams, grid: Grid1D):
    """Exact cell averages of the two-plateau initial concentrations."""
    from .invariants import concentrations_from_invariants

    u1_in, u2_in = concentrations_from_invariants(p, p.q1, p.q2)
    edges = grid.x_min + np.arange(grid.n_cells + 1) * grid.dx
    overlap = np.clip(np.minimum(edges[1:], p.x2) - np.maximum(edges[:-1], p.x1),
                      0.0, None) / grid.dx
    return float(u1_in) * overlap, float(u2_in) * overlap


#: Cells an active window keeps beyond the last cell that can have changed;
#: the windows are re-stacked every _SLACK - 1 steps.  A wider window steps
#: more cells that cannot change yet, a narrower one re-stacks more often
#: (a re-stacking costs about one step).  On the nine (N, 2N) grid pairs and
#: times of the fv_compare benchmark (N = 200, 250, 300; t = 0.005, 0.0125,
#: 0.02), 32 took the least time in fv_runs: 16 and 64 took about 3% more,
#: 8 took 5% more, 4 took 16% more, and windows that reach the grid's end
#: from the start (no re-stacking) 3% more.
_SLACK = 32


class _Lane:
    """One grid's run in fv_runs: its state, active window [lo, hi), time,
    step count and the output times it has still to reach."""

    __slots__ = ("grid", "index", "n", "cfl_dx", "dx", "state", "lo", "hi", "t",
                 "steps", "pending", "t_next", "stacked_at",
                 "window", "d", "right", "left", "inner")

    def __init__(self, p, grid, index, pending):
        self.grid = grid
        self.index = index
        self.n = n = grid.n_cells
        self.cfl_dx = grid.cfl * grid.dx
        self.dx = grid.dx
        # The full (2, n) state; while stacked, its window columns are stale
        # and the live ones are the lane's columns of the stacked state.
        self.state = state = np.array(initial_averages(p, grid))
        self.t = 0.0
        self.steps = 0
        # (t_k, the list that takes each grid's result at t_k), ascending.
        self.pending = pending
        self.t_next = pending[0][0]
        # lo is the last cell of the leading run of cells bit for bit the
        # first; hi - 1 - _SLACK is the last cell before the trailing run of
        # cells bit for bit the last.  A run's cells must be finite.
        bits = state.view(np.uint64)
        moved = np.flatnonzero((bits != bits[:, :1]).any(axis=0))
        self.lo = int(moved[0]) - 1 if moved.size else n - 1
        if not np.isfinite(state[:, 0]).all():
            self.lo = 0
        moved = np.flatnonzero((bits != bits[:, -1:]).any(axis=0))
        last = int(moved[-1]) if moved.size else n - 1
        if not np.isfinite(state[:, -1]).all():
            last = n - 1
        self.hi = min(n, last + 1 + _SLACK)

    def stack(self, window, d, right, left, inner):
        """Take the lane's columns of the stacked state and of D, and the
        flux columns right and left of its inner faces with their columns
        of D."""
        self.window, self.d, self.right, self.left, self.inner = (
            window, d, right, left, inner)
        self.stacked_at = self.steps

    def unstack(self):
        """Write the window back and widen it by the steps taken, each of
        which moves the last cell that can have changed one cell right."""
        self.state[:, self.lo:self.hi] = self.window
        self.hi = min(self.n, self.hi + self.steps - self.stacked_at)

    def spill(self, ratio):
        """Step the cells outside the window by a NaN or infinite dt/dx, as
        the full-grid step does: their face differences are +0.0, and
        u - (+0.0) (dt/dx) is NaN, not u."""
        for out in (self.state[:, :self.lo], self.state[:, self.hi:]):
            np.subtract(out, 0.0 * ratio, out)

    def side_steps(self, p, dt):
        """The dt of a step that passes t_next.  Each output time it passes
        but the last is reached by a clipped step into a copy, in the step's
        op order, from the unscaled differences in D; the last clips dt."""
        while len(self.pending) > 1 and self.t + dt > self.t_next:
            t_k, row = self.pending.pop(0)
            dt_k = t_k - self.t
            ratio = dt_k / self.dx
            if self.t + dt_k < t_k or not ratio < math.inf:
                # The run to t_k alone steps on from here, or would spill
                # this step beyond the window: run it alone.
                row[self.index] = fv_run(p, self.grid, t_k)
            else:
                side = np.multiply(self.d, ratio)
                np.subtract(self.window, side, side)
                state = self.state.copy()
                state[:, self.lo:self.hi] = side
                row[self.index] = self._result(t_k, state, self.steps + 1)
            self.t_next = self.pending[0][0]
        if self.t + dt > self.t_next:
            dt = self.t_next - self.t
        return dt

    def settle(self):
        """Give each output time the state has reached its result; True
        while times remain."""
        while self.pending and not self.t < self.t_next:
            t_k, row = self.pending.pop(0)
            row[self.index] = self._result(t_k, self.state.copy(), self.steps)
            if self.pending:
                self.t_next = self.pending[0][0]
        return bool(self.pending)

    def _result(self, t_k, state, steps):
        return FvResult(t_k, self.grid.centers(), state[0], state[1], steps)


@np.errstate(invalid="ignore", divide="ignore")
def fv_runs(p: MixtureParams, grids, times) -> list:
    """Advance each grid to each of the given times by characteristic
    upwinding, the grids side by side and each in one pass.

    lambda1 = R1^2 R2 > 0 and lambda2 >= lambda1, so the Riemann fan at
    every face moves right and the upwind flux is that of the left cell;
    a grid's time step uses its own fastest lambda2.  NonPhysicalState is
    raised if some cell has lambda1 <= 0, where upwinding would be wrong.
    DomainError is raised, before any step, for a NaN, infinite or negative
    time; at t = 0 a grid keeps its initial averages.

    Each grid steps only its active window [lo, hi).  Left of lo the cells
    repeat the first cell bit for bit, and right of hi - 1 they repeat the
    last cell.  Such a cell's face difference is x - x = +0.0, and
    u - 0.0 (dt/dx) is u, so a full-grid step leaves it as it is, and cell
    lo acts as its own copy ghost, as the first cell does.  Two zeros of
    opposite sign do not repeat each other: the step turns a -0.0 right of
    a +0.0 into +0.0, so such cells stay in the window.  Information moves
    right by at most one cell per step, so hi is placed _SLACK cells beyond
    the last cell that can have changed, and the windows are re-stacked,
    each widened by the steps it took, at least every _SLACK - 1 steps.
    Each window so keeps a repeated cell of each side, and its max lambda2
    (dt) and min lambda1 (the guard) are those of the full grid.  Repeated
    cells must be finite.  A NaN or infinite cell in the window makes dt
    NaN, and a step whose dt/dx is NaN or infinite turns the +0.0 face
    differences into NaN: such a step is also applied to the cells outside
    the window.

    The windows still running sit side by side in one (2, sum width) array
    U, whose rows u1 and u2 are views, so a step makes one set of
    wave-speed, flux and update calls for all of them.  Each grid keeps its
    own dt, t and step count, takes the differences of its inner faces into
    its own columns of D and scales them by its own dt/dx.  A window's
    first column of D stays the +0.0 it was allocated as.  A grid that
    reaches its last time is copied out and the rest are re-stacked.
    Every cell sees the operations it would see on its full grid run
    alone, so each result is bitwise that of fv_run on its grid and time.

    Each grid runs once, to the last time.  An earlier time t_k that a
    step would pass is reached by a clipped step (dt = t_k - t) into a
    copy, in the step's op order, while the grid steps on with the full dt.
    When t + (t_k - t) rounds below t_k, the run to t_k alone would step
    again, and is made alone.  Returns, for each time in the given order,
    one FvResult per grid.

    A cell with a <= 0 or disc < 0 makes lambda1 NaN or <= 0, so a positive
    minimum of lambda1 passes every check (numpy's invalid and divide
    warnings are off: such a cell makes NaNs before the guard).  Else
    invariants_field raises on a bad a or disc, and the per-grid minima
    decide, as lambda1.min() did for each grid alone.
    """
    validate_params(p)
    times = [float(t) for t in times]
    for t_end in times:
        if not 0.0 <= t_end < math.inf:
            raise DomainError(f"FV end time must be finite and >= 0, got {t_end!r}")
    if not times:
        return []
    results = [[None] * len(grids) for _ in times]
    order = sorted(range(len(times)), key=times.__getitem__)
    lanes = [_Lane(p, g, i, [(times[k], results[k]) for k in order])
             for i, g in enumerate(grids)]
    constants = _constants(p)
    one, _, _, c = constants
    while lanes := [lane for lane in lanes if lane.settle()]:
        U = np.concatenate([lane.state[:, lane.lo:lane.hi] for lane in lanes], axis=1)
        u1, u2 = U
        state = (U, u1, u2)
        bounds = np.cumsum([0] + [lane.hi - lane.lo for lane in lanes])
        starts = bounds[:-1]
        mu, mu21 = _mobilities(p, U)
        a, b, disc, lam1, lam2, E = np.empty((6, U.shape[1]))
        F = np.empty_like(U)
        f1, f2 = F
        scratch = (F, f1, f2)
        D = np.zeros_like(U)
        for lane, lo, hi in zip(lanes, starts.tolist(), bounds[1:].tolist()):
            lane.stack(U[:, lo:hi], D[:, lo:hi], F[:, lo + 1:hi], F[:, lo:hi - 1],
                       D[:, lo + 1:hi])
        running = True
        # A window that ends before its grid does holds for _SLACK - 1 steps.
        steps = _SLACK - 1 if any(lane.hi < lane.n for lane in lanes) else sys.maxsize
        for _ in range(steps):
            # F is _quadratic's scratch until the flux is written into it.
            _quadratic(constants, state, mu21, scratch, a, b, disc)
            R1, R2 = _roots(a, b, disc, lam1)
            # lambda2 = (R1 R2) R2, then lambda1 = (R1 R1) R2 over R1.
            np.multiply(R1, R2, lam2)
            np.multiply(lam2, R2, lam2)
            np.multiply(R1, R1, lam1)
            np.multiply(lam1, R2, lam1)
            if not np.minimum.reduce(lam1) > 0.0:
                invariants_field(p, u1, u2)
                if (np.minimum.reduceat(lam1, starts) <= 0.0).any():
                    raise NonPhysicalState("a characteristic speed is not positive")
            fastest = np.maximum.reduceat(lam2, starts).tolist()

            # f^k = (mu^k u^k) E with E = mu1 mu2 / ((1 + u1) + u2).  mu has
            # full rows and E scales F row by row: same-shape operands skip
            # numpy's broadcasting set-up, which costs more than the work here.
            np.add(u1, one, E)
            np.add(E, u2, E)
            np.divide(c, E, E)
            np.multiply(mu, U, F)
            np.multiply(f1, E, f1)
            np.multiply(f2, E, f2)
            for lane, lam2_max in zip(lanes, fastest):
                dt = lane.cfl_dx / lam2_max
                np.subtract(lane.right, lane.left, lane.inner)
                if lane.t + dt > lane.t_next:
                    dt = lane.side_steps(p, dt)
                ratio = dt / lane.dx
                np.multiply(lane.d, ratio, lane.d)
                if not ratio < math.inf:
                    lane.spill(ratio)
                lane.t += dt
                lane.steps += 1
                running = running and lane.t < lane.t_next
            np.subtract(U, D, U)
            if not running:
                break
        for lane in lanes:
            lane.unstack()
    return results


def fv_run(p: MixtureParams, grid: Grid1D, t_end: float) -> FvResult:
    """One grid advanced to t_end: fv_runs on that grid and time alone."""
    return fv_runs(p, [grid], [t_end])[0][0]


def l1_error(result: FvResult, profile) -> tuple:
    """Per-component L1 distance to an analytic profile at the cell centers.

    Trapezoid-consistent: end cells carry half weight.
    """
    if result.x[0] < profile.x[0] or result.x[-1] > profile.x[-1]:
        raise DomainMismatch("numeric grid extends beyond the analytic profile")
    ua1, ua2 = profile.interp(result.x)
    w = np.full(result.x.size, result.x[1] - result.x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return (
        float(np.sum(np.abs(result.u1 - ua1) * w)),
        float(np.sum(np.abs(result.u2 - ua2) * w)),
    )


def steepest_gradient_x(result: FvResult, component: int, x_lo=None, x_hi=None):
    """Cell-interface position of the steepest jump of one component."""
    u = result.u1 if component == 1 else result.u2
    x = result.x
    mask = np.ones(x.size - 1, dtype=bool)
    if x_lo is not None:
        mask &= 0.5 * (x[:-1] + x[1:]) >= x_lo
    if x_hi is not None:
        mask &= 0.5 * (x[:-1] + x[1:]) <= x_hi
    jumps = np.abs(np.diff(u))
    jumps[~mask] = -1.0
    i = int(np.argmax(jumps))
    return 0.5 * (x[i] + x[i + 1])


def mass(result: FvResult) -> tuple:
    dx = result.x[1] - result.x[0]
    return float(result.u1.sum() * dx), float(result.u2.sum() * dx)
