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
    """Per-cell (R1, R2) from the state quadratic, vectorized."""
    s = u1 + u2
    a = 1.0 + s
    if np.any(a <= 0.0):
        raise NonPhysicalState("1 + u1 + u2 <= 0 in a cell")
    b = p.mu1 + p.mu2 + u1 * p.mu2 + u2 * p.mu1
    c = p.mu1 * p.mu2
    disc = b * b - 4.0 * a * c
    if np.any(disc < 0.0):
        raise ComplexRoots("cell state left the hyperbolic region")
    sq = np.sqrt(disc)
    return (b - sq) / (2.0 * a), (b + sq) / (2.0 * a)


def _wave_speeds(p: MixtureParams, u1, u2):
    """(lambda1, lambda2) per cell."""
    R1, R2 = invariants_field(p, u1, u2)
    return R1 * R1 * R2, R1 * R2 * R2


def _flux(p: MixtureParams, u1, u2):
    E = p.mu1 * p.mu2 / (1.0 + u1 + u2)
    return p.mu1 * u1 * E, p.mu2 * u2 * E


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
    """
    validate_params(p)
    u1, u2 = initial_averages(p, grid)
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

        f1, f2 = _flux(
            p, np.concatenate(([u1[0]], u1)), np.concatenate(([u2[0]], u2))
        )
        u1 = u1 - dt / dx * (f1[1:] - f1[:-1])
        u2 = u2 - dt / dx * (f2[1:] - f2[:-1])
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
