import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zesolver import fv_reference
from zesolver.errors import (
    CFLViolation,
    ComplexRoots,
    DomainError,
    DomainMismatch,
    NonPhysicalState,
)
from zesolver.fv_reference import (
    FvResult,
    Grid1D,
    fv_run,
    fv_runs,
    initial_averages,
    invariants_field,
    l1_error,
    mass,
    steepest_gradient_x,
)
from zesolver.invariants import MixtureParams, lambda_k


def test_grid_validation():
    with pytest.raises(CFLViolation):
        Grid1D(-1, 1, 100, cfl=1.5)
    with pytest.raises(CFLViolation):
        Grid1D(1, -1, 100, cfl=0.5)


def test_initial_averages_are_exact(params):
    grid = Grid1D(-3.0, 7.0, 400, 0.45)
    u1, u2 = initial_averages(params, grid)
    dx = grid.dx
    assert u1.sum() * dx == pytest.approx(2.0 * 2.0, rel=1e-13)
    assert u2.sum() * dx == pytest.approx(-1.0 * 2.0, rel=1e-13)
    inside = np.abs(grid.centers()) < 0.9
    assert np.allclose(u1[inside], 2.0)
    assert np.allclose(u2[inside], -1.0)


def test_constant_state_is_exact(params):
    # A grid fully inside the inner plateau sees constant data; a constant
    # state must be preserved to round-off.
    grid = Grid1D(-0.5, 0.5, 64, 0.45)
    res = fv_run(params, grid, 1e-3)
    assert np.allclose(res.u1, 2.0, atol=1e-13)
    assert np.allclose(res.u2, -1.0, atol=1e-13)


def test_invariants_field_guards(params):
    with pytest.raises(NonPhysicalState):
        invariants_field(params, np.array([-2.0]), np.array([0.0]))
    # a = 0.1 > 0 but b^2 - 4ac = 0.25 - 16 < 0.
    with pytest.raises(ComplexRoots):
        invariants_field(params, np.array([0.0, -3.0]), np.array([0.0, 2.1]))
    # Exactly where (a <= 0).any() and (disc < 0).any() raise: a NaN cell
    # hides no bad cell beside it, and NaN or no cells raise nothing.
    for u1, u2, error in (
        ([np.nan, -2.0], [0.0, 0.0], NonPhysicalState),
        ([-2.0, np.nan], [0.0, 0.0], NonPhysicalState),
        ([np.nan, -3.0], [0.0, 2.1], ComplexRoots),
        ([-3.0, 0.0], [2.1, np.nan], ComplexRoots),
    ):
        with pytest.raises(error):
            invariants_field(params, np.array(u1), np.array(u2))
    for u1 in ([np.nan, np.nan], []):
        R1, R2 = invariants_field(params, np.array(u1), np.zeros(len(u1)))
        assert R1.size == R2.size == len(u1)


def test_real_state_with_negative_speed(params):
    # a = 0.5 > 0 and b^2 - 4ac = 300.25 > 0, yet both roots are negative,
    # so lambda1 = R1^2 R2 < 0: the state fv_run's lambda1 guard rejects.
    lam1 = lambda_k(1, *invariants_field(params, np.array([-10.0]), np.array([9.5])))
    assert lam1[0] < 0.0


def test_invariants_field_leaves_its_inputs_unchanged(params):
    u1 = np.array([2.0, 0.5, 0.0, 1e-3])
    u2 = np.array([-1.0, -0.2, 0.0, 2e-3])
    before = u1.tobytes(), u2.tobytes()
    invariants_field(params, u1, u2)
    assert (u1.tobytes(), u2.tobytes()) == before


def _reference_fv_run(p, grid, t_end, start=None):
    """The per-component upwind loop over the full grid, with its ghost cell
    built each step, from start = (u1, u2) or the initial averages."""

    def roots(u1, u2):
        s = u1 + u2
        a = 1.0 + s
        b = p.mu1 + p.mu2 + u1 * p.mu2 + u2 * p.mu1
        c = p.mu1 * p.mu2
        sq = np.sqrt(b * b - 4.0 * a * c)
        return (b - sq) / (2.0 * a), (b + sq) / (2.0 * a)

    def flux(u1, u2):
        E = p.mu1 * p.mu2 / (1.0 + u1 + u2)
        return p.mu1 * u1 * E, p.mu2 * u2 * E

    u1, u2 = initial_averages(p, grid) if start is None else start
    dx = grid.dx
    t = 0.0
    steps = 0
    while t < t_end:
        R1, R2 = roots(u1, u2)
        lam2 = R1 * R2 * R2
        dt = grid.cfl * dx / float(lam2.max())
        if t + dt > t_end:
            dt = t_end - t
        f1, f2 = flux(np.concatenate(([u1[0]], u1)), np.concatenate(([u2[0]], u2)))
        u1 = u1 - dt / dx * (f1[1:] - f1[:-1])
        u2 = u2 - dt / dx * (f2[1:] - f2[:-1])
        t += dt
        steps += 1
    return u1, u2, steps, roots(u1, u2)


@pytest.mark.parametrize("t_end", [0.005, 0.0125, 0.02])
@pytest.mark.parametrize("n_cells", [100, 250, 400])
def test_fv_run_is_bitwise_the_per_component_loop(params, n_cells, t_end):
    grid = Grid1D(-3.0, 7.0, n_cells, 0.45)
    u1, u2, steps, (R1, R2) = _reference_fv_run(params, grid, t_end)
    res = fv_run(params, grid, t_end)
    assert res.steps == steps
    assert res.u1.tobytes() == u1.tobytes()
    assert res.u2.tobytes() == u2.tobytes()
    got = invariants_field(params, res.u1, res.u2)
    assert (got[0].tobytes(), got[1].tobytes()) == (R1.tobytes(), R2.tobytes())


@pytest.mark.parametrize("t_end", [0.005, 0.0125, 0.02])
@pytest.mark.parametrize(
    "cells", [[250], [300, 100, 400], [250, 250], [200, 400], [250, 500], [300, 600]]
)
def test_fv_runs_is_bitwise_each_grid_alone(params, cells, t_end):
    # Grids finishing at different steps are re-stacked; equal grids finish
    # together.  Neither changes a bit of any grid's result.  The (N, 2N)
    # pairs are the shapes the fv_compare benchmark runs.
    grids = [Grid1D(-3.0, 7.0, n, 0.45) for n in cells]
    (results,) = fv_runs(params, grids, [t_end])
    assert len(results) == len(grids)
    for grid, res in zip(grids, results):
        u1, u2, steps, _ = _reference_fv_run(params, grid, t_end)
        assert (res.t_end, res.steps) == (t_end, steps)
        assert res.x.tobytes() == grid.centers().tobytes()
        assert (res.u1.tobytes(), res.u2.tobytes()) == (u1.tobytes(), u2.tobytes())


def _assert_each_is_the_full_grid_run(p, grids, results, t_end, starts=None):
    """Each result is bitwise _reference_fv_run's on its grid, from the
    grid's starts[n_cells] when given."""
    for grid, res in zip(grids, results):
        start = None if starts is None else starts[grid.n_cells]
        u1, u2, steps, _ = _reference_fv_run(p, grid, t_end, start)
        assert (res.t_end, res.steps) == (t_end, steps)
        assert (res.u1.tobytes(), res.u2.tobytes()) == (u1.tobytes(), u2.tobytes())


def test_window_skips_a_long_zero_prefix_bitwise(params):
    # 9 of 17 units of grid lie left of x1 = -1 and never change.
    grids = [Grid1D(-10.0, 7.0, n, 0.45) for n in (170, 340)]
    for t_end, results in zip((0.005, 0.02), fv_runs(params, grids, [0.005, 0.02])):
        _assert_each_is_the_full_grid_run(params, grids, results, t_end)


@pytest.mark.parametrize("t_end", [1e-4, 1e-3, 3e-3])
def test_window_is_bitwise_while_the_front_is_inside_the_grid(params, t_end):
    grids = [Grid1D(-3.0, 7.0, n, 0.45) for n in (250, 500)]
    (results,) = fv_runs(params, grids, [t_end])
    _assert_each_is_the_full_grid_run(params, grids, results, t_end)
    # The front has not reached the right end: the last cells are the
    # initial zeros, +0.0 in u1 and -0.0 in u2 (u1_in > 0 > u2_in).
    for res in results:
        assert (res.u1[-1].tobytes(), res.u2[-1].tobytes()) == (
            np.float64(0.0).tobytes(), np.float64(-0.0).tobytes())


def _patch_initial_averages(monkeypatch, edit):
    """Make initial_averages return its averages after edit(u1, u2), and
    return {n_cells: (u1, u2)} of the states it gave."""
    averages = initial_averages
    starts = {}

    def patched(p, grid):
        u1, u2 = averages(p, grid)
        edit(u1, u2)
        starts[grid.n_cells] = u1.copy(), u2.copy()
        return u1, u2

    monkeypatch.setattr("zesolver.fv_reference.initial_averages", patched)
    return starts


def test_window_keeps_mixed_sign_zeros_bitwise(params, monkeypatch):
    # A -0.0 right of a +0.0 turns into +0.0 under the full-grid step, so
    # such zeros are no run; the zeros of u2 are -0.0 and those of u1 +0.0.
    def edit(u1, u2):
        u1[[5, 6, 30]] = -0.0
        u2[12] = 0.0
        u1[-40] = -0.0
        u2[-3] = 0.0

    starts = _patch_initial_averages(monkeypatch, edit)
    grids = [Grid1D(-3.0, 7.0, n, 0.45) for n in (250, 500)]
    times = [1e-4, 2e-3, 0.0125]
    for t_end, results in zip(times, fv_runs(params, grids, times)):
        _assert_each_is_the_full_grid_run(params, grids, results, t_end, starts)


@pytest.mark.parametrize("cell", [10, 80, 200, -1])
def test_nan_cell_beside_a_zero_run_is_bitwise(params, monkeypatch, cell):
    # The NaN makes the step's dt NaN, and the full-grid step then makes
    # every cell NaN, the zeros outside the window too.
    def edit(u1, u2):
        u1[cell] = np.nan

    starts = _patch_initial_averages(monkeypatch, edit)
    grids = [Grid1D(-3.0, 7.0, n, 0.45) for n in (250, 500)]
    (results,) = fv_runs(params, grids, [0.005])
    _assert_each_is_the_full_grid_run(params, grids, results, 0.005, starts)
    assert all(res.steps == 1 and np.isnan(res.u1).all() for res in results)


def test_infinite_dt_over_dx_is_bitwise():
    # Mobilities near 1e-104 make lambda2 subnormal: the first dt overflows
    # and is clipped to t_end, whose dt/dx overflows too.  The step turns
    # every +0.0 face difference into NaN, outside the window too; the first
    # time is a side step that would do so, and is run alone.
    p = MixtureParams(mu1=1e-104, mu2=2e-104, q1=0.5e-104, q2=4e-104, x1=-1.0, x2=1.0)
    grids = [Grid1D(-3.0, 7.0, n, 0.45) for n in (100, 200)]
    times = [5e307, 1e308]
    all_results = fv_runs(p, grids, times)
    for t_end, results in zip(times, all_results):
        with np.errstate(invalid="ignore"):
            _assert_each_is_the_full_grid_run(p, grids, results, t_end)
        assert all(res.steps == 1 and np.isnan(res.u1[0]) for res in results)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(mu1=st.floats(1.0, 6.0), dmu=st.floats(0.5, 5.0), s1=st.floats(0.1, 0.9),
       s2=st.floats(1.1, 3.0), x1=st.floats(-2.0, 0.0), width=st.floats(0.5, 3.0),
       n=st.integers(20, 60), reach=st.floats(0.05, 1.5))
def test_window_is_bitwise_on_the_cone(mu1, dmu, s1, s2, x1, width, n, reach):
    # Acceptance 9's parameter law.  On the cone u1_in > 0 > u2_in, so the
    # zero runs hold +0.0 in u1 and -0.0 in u2.  t_end is reach times the
    # time lambda2 of the zero state takes to cross the 3 units right of
    # x2, so the front may stop inside the grid or leave it.
    mu2 = mu1 + dmu
    p = MixtureParams(mu1=mu1, mu2=mu2, q1=s1 * mu1, q2=s2 * mu2, x1=x1, x2=x1 + width)
    x_min, x_max = x1 - 1.0, x1 + width + 3.0
    t_end = reach * 3.0 / (mu1 * mu2 * mu2)
    grids = [Grid1D(x_min, x_max, k, 0.45) for k in (n, 2 * n)]
    (results,) = fv_runs(p, grids, [t_end])
    _assert_each_is_the_full_grid_run(p, grids, results, t_end)


def test_each_time_of_one_pass_is_its_own_run(params):
    # Unsorted, with a repeat and t = 0: each time's results are bitwise the
    # run to that time alone, step counts included.
    grids = [Grid1D(-3.0, 7.0, n, 0.45) for n in (250, 500)]
    times = [0.02, 0.005, 0.0, 0.0125, 0.005]
    for t_end, results in zip(times, fv_runs(params, grids, times)):
        for grid, res, alone in zip(grids, results, fv_runs(params, grids, [t_end])[0]):
            assert (res.t_end, res.steps) == (alone.t_end, alone.steps)
            assert res.x.tobytes() == grid.centers().tobytes()
            assert (res.u1.tobytes(), res.u2.tobytes()) == (
                alone.u1.tobytes(), alone.u2.tobytes())


def test_side_step_that_falls_short_is_run_alone(params, monkeypatch):
    # A cell with 1 + u1 + u2 = 0.01 makes the first step short and the
    # second about 1.6 times as long.  A time t_k that the second step
    # passes lies beyond 2 t, where t + (t_k - t) may round below t_k: the
    # run to t_k alone then steps on from there, and fv_runs runs it alone.
    def edit(u1, u2):
        u1[-1] = -0.99

    _patch_initial_averages(monkeypatch, edit)
    grid = Grid1D(-3.0, 7.0, 64, 0.45)
    # The first two steps end just below h1 and h2, the first times of the
    # scan whose runs take two and three steps.
    grid_t = np.linspace(1e-9, 2e-7, 400)
    steps = np.array([fv_run(params, grid, float(t)).steps for t in grid_t])
    h1, h2 = grid_t[np.argmax(steps >= 2)], grid_t[np.argmax(steps >= 3)]
    times = [float(t) for t in np.linspace(2.02 * h1, 0.999 * h2, 300)] + [3 * h2]
    alone = []
    run_alone = fv_reference.fv_run
    monkeypatch.setattr("zesolver.fv_reference.fv_run",
                        lambda *args: alone.append(args[2]) or run_alone(*args))
    results = fv_runs(params, [grid], times)
    monkeypatch.setattr("zesolver.fv_reference.fv_run", run_alone)
    assert alone
    for t_end, (res,) in zip(times, results):
        single = fv_run(params, grid, t_end)
        assert (res.t_end, res.steps) == (t_end, single.steps)
        assert (res.u1.tobytes(), res.u2.tobytes()) == (
            single.u1.tobytes(), single.u2.tobytes())


@pytest.mark.parametrize("t_end", [np.nan, np.inf, -1.0, -np.inf])
def test_bad_end_time_raises_before_stepping(params, t_end):
    grid = Grid1D(-3.0, 7.0, 50, 0.45)
    with pytest.raises(DomainError, match="FV end time must be finite and >= 0"):
        fv_run(params, grid, t_end)
    with pytest.raises(DomainError, match="FV end time must be finite and >= 0"):
        fv_runs(params, [grid, grid], [0.01, t_end])


def test_zero_end_time_keeps_the_initial_averages(params):
    grid = Grid1D(-3.0, 7.0, 50, 0.45)
    res = fv_run(params, grid, 0.0)
    u1, u2 = initial_averages(params, grid)
    assert (res.t_end, res.steps) == (0.0, 0)
    assert (res.u1.tobytes(), res.u2.tobytes()) == (u1.tobytes(), u2.tobytes())


def test_discrete_conservation(params):
    grid = Grid1D(-3.0, 7.0, 800, 0.45)
    res = fv_run(params, grid, 0.01)
    m1, m2 = mass(res)
    assert m1 == pytest.approx(4.0, rel=1e-12)
    assert m2 == pytest.approx(-2.0, rel=1e-12)


def test_convergence_and_shock_location(params, solver):
    t_end = 0.01
    prof = solver.profile_at(t_end, n=8192, window=(-4, 8))
    xs1 = solver.timeline.curves["xs1"].x(t_end)
    xs2 = solver.timeline.curves["xs2"].x(t_end)
    errors = []
    grids = [Grid1D(-3.0, 7.0, n, 0.45) for n in (500, 1000)]
    for grid, res in zip(grids, fv_runs(params, grids, [t_end])[0]):
        errors.append(l1_error(res, prof))
        assert abs(steepest_gradient_x(res, 1, x_hi=0.6) - xs1) <= 3 * grid.dx
        assert abs(steepest_gradient_x(res, 2, x_lo=2.0) - xs2) <= 3 * grid.dx
    assert errors[0][0] / errors[1][0] >= 1.5
    assert errors[0][1] / errors[1][1] >= 1.5


def _runs_with_states(params, monkeypatch, cells, states):
    """fv_runs to 1e-3 on grids of the given cell counts, where the grid of
    n cells starts with the (u1, u2) of states[n] = {cell: (u1, u2)}."""
    averages = initial_averages

    def patched(p, grid):
        u1, u2 = averages(p, grid)
        for k, (v1, v2) in states.get(grid.n_cells, {}).items():
            u1[k], u2[k] = v1, v2
        return u1, u2

    monkeypatch.setattr("zesolver.fv_reference.initial_averages", patched)
    return fv_runs(params, [Grid1D(-3.0, 7.0, n, 0.45) for n in cells], [1e-3])[0]


NEGATIVE_SPEED = (-10.0, 9.5)  # a = 0.5, disc > 0, lambda1 < 0


def test_non_positive_speed_stops_upwinding(params, monkeypatch):
    # Upwinding is only right while every wave moves to the right; the
    # guard sees the first grid's cell alone and beside a second grid.
    for cells in ((100,), (100, 50)):
        with pytest.raises(NonPhysicalState, match="a characteristic speed is not positive"):
            _runs_with_states(params, monkeypatch, cells, {100: {3: NEGATIVE_SPEED}})


def test_nan_speed_hides_no_other_grids_zero(params, monkeypatch):
    # A NaN cell makes its grid's minimum speed NaN, which does not trip the
    # guard, as lambda1.min() did for a grid alone; beside another grid it
    # must not hide that grid's negative speed.
    nan = (np.nan, np.nan)
    (res,) = _runs_with_states(
        params, monkeypatch, (100,), {100: {3: NEGATIVE_SPEED, 99: nan}}
    )
    assert res.steps == 1
    with pytest.raises(NonPhysicalState, match="a characteristic speed is not positive"):
        _runs_with_states(
            params, monkeypatch, (100, 50), {100: {3: NEGATIVE_SPEED}, 50: {49: nan}}
        )


@pytest.mark.parametrize("lane", [0, 1])
@pytest.mark.parametrize(
    "state, error, message",
    [
        ((-2.0, 0.0), NonPhysicalState, "1 + u1 + u2 <= 0 in a cell"),
        ((-1.0, 0.0), NonPhysicalState, "1 + u1 + u2 <= 0 in a cell"),
        ((-3.0, 2.1), ComplexRoots, "cell state left the hyperbolic region"),
    ],
)
def test_bad_state_in_a_lane_raises_invariants_fields_error(
    params, monkeypatch, lane, state, error, message
):
    # a <= 0 (a < 0 and a = 0) or disc < 0 in one grid of two, beside a NaN
    # cell in the other: the step raises what invariants_field raises, and
    # no RuntimeWarning from the NaNs such a cell makes escapes.
    cells = (100, 50)
    states = {cells[lane]: {3: state}, cells[1 - lane]: {-1: (np.nan, np.nan)}}
    with pytest.raises(error, match=re.escape(message)):
        invariants_field(params, np.array([state[0]]), np.array([state[1]]))
    with pytest.raises(error, match=re.escape(message)):
        _runs_with_states(params, monkeypatch, cells, states)


def test_l1_error_identical_fields_is_zero(params, solver):
    prof = solver.profile_at(0.01, n=4096, window=(-4, 8))
    x = np.linspace(-2.9, 6.9, 500)
    u1, u2 = prof.interp(x)
    res = FvResult(0.01, x, u1, u2, 0)
    assert l1_error(res, prof) == (0.0, 0.0)


def test_l1_error_single_cell_shift_bound():
    # Two step profiles offset by one cell differ by height * dx.
    x = np.linspace(0, 1, 101)
    dx = x[1] - x[0]
    u_a = np.where(x < 0.5, 1.0, 0.0)
    u_b = np.where(x < 0.5 + dx, 1.0, 0.0)

    class Stub:
        def interp(self, xq):
            return np.interp(xq, x, u_b), np.zeros_like(xq)

        @property
        def x(self):
            return np.array([-1.0, 2.0])

    e1, _ = l1_error(FvResult(0.0, x, u_a, np.zeros_like(x), 0), Stub())
    assert e1 == pytest.approx(1.0 * dx, rel=0.51)


def test_l1_error_domain_guard(params, solver):
    prof = solver.profile_at(0.01, n=512)
    x = np.linspace(-100, 100, 64)
    res = FvResult(0.01, x, np.zeros_like(x), np.zeros_like(x), 0)
    with pytest.raises(DomainMismatch):
        l1_error(res, prof)


def test_weak_front_is_smeared(params, solver):
    # At the inner 2-fan front the numeric gradient stays strictly below
    # the analytic one-sided fan slope: monotone schemes smooth corners.
    t_end = 0.01
    grid = Grid1D(-3.0, 7.0, 2000, 0.45)
    res = fv_run(params, grid, t_end)
    x_front = solver.timeline.curves["xr2"].x(t_end)  # fan side carries u2 slope 1
    h = 1e-6
    prof = solver.profile_at(t_end, n=8192, window=(-4, 8))
    inside = prof.interp(np.array([x_front - h, x_front - 3 * h]))
    analytic_slope = abs(inside[1][0] - inside[1][1]) / (2 * h)
    window = np.abs(res.x - x_front) < 0.06
    grad = np.abs(np.diff(res.u2[window])) / grid.dx
    assert grad.max() < analytic_slope
