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
    b = mu1 + mu2 + u1 mu2 + u2 mu1 and c = mu1 mu2.  Only the function's
    own temporaries are updated in place; u1 and u2 are left unchanged.
    """
    a = u1 + u2
    a += 1.0
    if (a <= 0.0).any():
        raise NonPhysicalState("1 + u1 + u2 <= 0 in a cell")
    b = u1 * p.mu2
    b += p.mu1 + p.mu2
    tmp = u2 * p.mu1
    b += tmp
    disc = b * b
    # (4 a) c == a (4 c): scaling by 4 is exact, so both round one product.
    np.multiply(a, 4.0 * (p.mu1 * p.mu2), out=tmp)
    disc -= tmp
    if (disc < 0.0).any():
        raise ComplexRoots("cell state left the hyperbolic region")
    sq = np.sqrt(disc, out=disc)
    a += a
    R1 = b - sq
    R1 /= a
    b += sq
    b /= a
    return R1, b


def _wave_speeds(p: MixtureParams, u1, u2):
    """(lambda1, lambda2) = ((R1 R1) R2, (R1 R2) R2) per cell."""
    R1, R2 = invariants_field(p, u1, u2)
    lam2 = R1 * R2
    lam2 *= R2
    R1 *= R1
    R1 *= R2
    return R1, lam2


def initial_averages(p: MixtureParams, grid: Grid1D):
    """Exact cell averages of the two-plateau initial concentrations."""
    from .invariants import concentrations_from_invariants

    u1_in, u2_in = concentrations_from_invariants(p, p.q1, p.q2)
    edges = grid.x_min + np.arange(grid.n_cells + 1) * grid.dx
    overlap = np.clip(np.minimum(edges[1:], p.x2) - np.maximum(edges[:-1], p.x1),
                      0.0, None) / grid.dx
    return float(u1_in) * overlap, float(u2_in) * overlap


def fv_run(p: MixtureParams, grid: Grid1D, t_end: float) -> FvResult:
    """Advance the conservation laws to t_end by characteristic upwinding.

    lambda1 = R1^2 R2 > 0 and lambda2 >= lambda1, so the Riemann fan at
    every face moves right and the upwind flux is that of the left cell;
    the time step uses the fastest lambda2.  NonPhysicalState is raised if
    some cell has lambda1 <= 0, where upwinding would be wrong.

    U is one (2, n) array whose rows u1 and u2 are views; the fluxes F and
    face differences D are preallocated.  D[:, 0] stays exactly zero: the
    copy ghost cell's flux is the first cell's own, and u - (dt/dx) 0.0 is u.
    """
    validate_params(p)
    U = np.array(initial_averages(p, grid))
    u1, u2 = U
    mu = np.empty_like(U)
    mu[0], mu[1] = p.mu1, p.mu2
    c = p.mu1 * p.mu2
    E = np.empty(grid.n_cells)
    F = np.empty_like(U)
    f1, f2 = F
    D = np.zeros_like(U)
    dx = grid.dx
    t = 0.0
    steps = 0
    while t < t_end:
        lam1, lam2 = _wave_speeds(p, u1, u2)
        if lam1.min() <= 0.0:
            raise NonPhysicalState("a characteristic speed is not positive")
        dt = grid.cfl * dx / float(lam2.max())
        if t + dt > t_end:
            dt = t_end - t

        # f^k = (mu^k u^k) E with E = mu1 mu2 / ((1 + u1) + u2).  mu has
        # full rows and E scales F row by row: same-shape operands skip
        # numpy's broadcasting set-up, which costs more than the work here.
        np.add(u1, 1.0, out=E)
        E += u2
        np.divide(c, E, out=E)
        np.multiply(mu, U, out=F)
        f1 *= E
        f2 *= E
        np.subtract(F[:, 1:], F[:, :-1], out=D[:, 1:])
        D *= dt / dx
        U -= D
        t += dt
        steps += 1
    return FvResult(t_end, grid.centers(), u1, u2, steps)


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
