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
Each grid's result is bitwise that of the grid run alone (fv_run).  A step
allocates nothing: its temporaries are allocated once per stacking, and it
calls numpy only through ufuncs with a positional out.  One reduction
guards it, the minimum of lambda1; the checks that name a bad cell's fault
run only when that minimum is not positive.

The scheme shares nothing with the analytic path beyond the flux
definition, which makes it a genuinely independent cross-check: shocks
land in the right cells, smooth regions converge at first order, and weak
discontinuities come out smeared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, ComplexRoots, DomainMismatch, NonPhysicalState
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
    a, b, disc, R1 = np.empty((4, *np.broadcast(u1, u2).shape))
    _quadratic(p, u1, u2, a, b, disc, R1)
    # fmin skips NaN, and the empty minimum is +inf: exactly (a <= 0).any().
    if np.fmin.reduce(a, initial=np.inf) <= 0.0:
        raise NonPhysicalState("1 + u1 + u2 <= 0 in a cell")
    if np.fmin.reduce(disc, initial=np.inf) < 0.0:
        raise ComplexRoots("cell state left the hyperbolic region")
    return _roots(a, b, disc, R1)


def _quadratic(p, u1, u2, a, b, disc, tmp):
    """a, b and disc = b^2 - 4 a c of the state quadratic, into the given
    buffers; tmp is scratch."""
    np.add(u1, u2, a)
    np.add(a, 1.0, a)
    np.multiply(u1, p.mu2, b)
    np.add(b, p.mu1 + p.mu2, b)
    np.multiply(u2, p.mu1, tmp)
    np.add(b, tmp, b)
    np.multiply(b, b, disc)
    # (4 a) c == a (4 c): scaling by 4 is exact, so both round one product.
    np.multiply(a, 4.0 * (p.mu1 * p.mu2), tmp)
    np.subtract(disc, tmp, disc)


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


@np.errstate(invalid="ignore", divide="ignore")
def fv_runs(p: MixtureParams, grids, t_end: float) -> list:
    """Advance each grid to t_end by characteristic upwinding, side by side.

    lambda1 = R1^2 R2 > 0 and lambda2 >= lambda1, so the Riemann fan at
    every face moves right and the upwind flux is that of the left cell;
    a grid's time step uses its own fastest lambda2.  NonPhysicalState is
    raised if some cell has lambda1 <= 0, where upwinding would be wrong.

    The grids still running sit side by side in one (2, sum n) array U,
    whose rows u1 and u2 are views, so a step makes one set of wave-speed,
    flux and update calls for all of them.  Each grid keeps its own dt, t
    and step count, takes the differences of its inner faces into its own
    columns of D and scales them by its own dt/dx.  A grid's first column
    of D, the copy ghost cell's difference, stays the +0.0 it was allocated
    as, and u - (dt/dx) 0.0 is u.  A grid that reaches t_end is copied out
    and the rest are re-stacked.  Every cell sees the operations it would
    see on its own, so each result is bitwise that of the grid run alone.
    Returns one FvResult per grid, in order.

    A cell with a <= 0 or disc < 0 makes lambda1 NaN or <= 0, so a positive
    minimum of lambda1 passes every check (numpy's invalid and divide
    warnings are off: such a cell makes NaNs before the guard).  Else
    invariants_field raises on a bad a or disc, and the per-grid minima
    decide, as lambda1.min() did for each grid alone.
    """
    validate_params(p)
    c = p.mu1 * p.mu2
    t = [0.0] * len(grids)
    steps = [0] * len(grids)
    results = [None] * len(grids)
    live = [(i, np.array(initial_averages(p, g))) for i, g in enumerate(grids)]
    while live:
        U = np.concatenate([state for _, state in live], axis=1)
        u1, u2 = U
        bounds = np.cumsum([0] + [state.shape[1] for _, state in live])
        starts = bounds[:-1]
        mu = np.empty_like(U)
        mu[0], mu[1] = p.mu1, p.mu2
        a, b, disc, lam1, lam2, E = np.empty((6, U.shape[1]))
        F = np.empty_like(U)
        f1, f2 = F
        D = np.zeros_like(U)
        # One lane per grid: its index, cfl dx, dx, its columns of U and D,
        # and the flux columns right and left of its inner faces with their
        # columns of D.
        lanes = [
            (i, grids[i].cfl * grids[i].dx, grids[i].dx, U[:, lo:hi], D[:, lo:hi],
             F[:, lo + 1:hi], F[:, lo:hi - 1], D[:, lo + 1:hi])
            for (i, _), lo, hi in zip(live, starts.tolist(), bounds[1:].tolist())
        ]
        running = all(t[i] < t_end for i, *_ in lanes)
        while running:
            _quadratic(p, u1, u2, a, b, disc, lam1)
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
            np.add(u1, 1.0, E)
            np.add(E, u2, E)
            np.divide(c, E, E)
            np.multiply(mu, U, F)
            np.multiply(f1, E, f1)
            np.multiply(f2, E, f2)
            for (i, cfl_dx, dx, _, d, right, left, inner), lam2_max in zip(lanes, fastest):
                dt = cfl_dx / lam2_max
                if t[i] + dt > t_end:
                    dt = t_end - t[i]
                np.subtract(right, left, inner)
                np.multiply(d, dt / dx, d)
                t[i] += dt
                steps[i] += 1
                running = running and t[i] < t_end
            np.subtract(U, D, U)
        live = []
        for i, _, _, state, *_ in lanes:
            if t[i] < t_end:
                live.append((i, state))
            else:
                results[i] = FvResult(t_end, grids[i].centers(), state[0].copy(),
                                      state[1].copy(), steps[i])
    return results


def fv_run(p: MixtureParams, grid: Grid1D, t_end: float) -> FvResult:
    """One grid advanced to t_end: fv_runs on that grid alone."""
    return fv_runs(p, [grid], t_end)[0]


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
