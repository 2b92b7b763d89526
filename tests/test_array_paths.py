"""Whole-array hodograph evaluation against the per-point reference.

The profile and timeline code evaluates the closed form once per array.
These tests keep the per-point evaluation as the reference and require the
two to agree to a few units in the last place, on instances drawn from the
same law as acceptance criterion 9.
"""

import numpy as np
import pytest

from zesolver import MixtureParams
from zesolver.errors import CoincidentInvariants, NoRootInInterval, UnexpectedOrdering
from zesolver.hodograph import COINCIDENT_RTOL
from zesolver.isochrone import Profile, ScenarioSolver

#: Array vs per-point agreement, relative to the largest value compared.
RTOL = 1e-13


def _cone_instances(count, seed=20261017):
    """Instances of acceptance 9's law whose timeline builds."""
    rng = np.random.default_rng(seed)
    solvers = []
    while len(solvers) < count:
        mu1 = rng.uniform(1.0, 6.0)
        mu2 = mu1 + rng.uniform(0.5, 5.0)
        q1 = rng.uniform(0.5, mu1)
        q2 = rng.uniform(mu2, 3 * mu2)
        x1 = rng.uniform(-2.0, 0.0)
        x2 = x1 + rng.uniform(0.5, 3.0)
        p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=x1, x2=x2)
        try:
            solvers.append(ScenarioSolver(p))
        except UnexpectedOrdering:
            continue
    return solvers


CONE = _cone_instances(20)


def _assert_matches(array_result, per_point):
    ref = np.asarray(per_point, dtype=float)
    got = np.asarray(array_result, dtype=float)
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= RTOL * scale


@pytest.mark.parametrize("solver", CONE, ids=lambda s: f"mu1={s.params.mu1:.3f}")
def test_hodograph_array_matches_per_point(solver):
    p = solver.params
    hodo = solver.hodograph
    rng = np.random.default_rng(7)
    R1 = rng.uniform(p.q1, p.mu1, 64)
    R2 = rng.uniform(p.mu2, p.q2, 64)
    pairs = list(zip(R1.tolist(), R2.tolist()))
    _assert_matches(hodo.t(R1, R2), [hodo.t(a, b) for a, b in pairs])
    _assert_matches(hodo.x(R1, R2), [hodo.x(a, b) for a, b in pairs])
    d1, d2 = hodo.t_partials(R1, R2)
    per_point = [hodo.t_partials(a, b) for a, b in pairs]
    _assert_matches(d1, [d[0] for d in per_point])
    _assert_matches(d2, [d[1] for d in per_point])


@pytest.mark.parametrize("solver", CONE, ids=lambda s: f"mu1={s.params.mu1:.3f}")
def test_transport_and_boundary_tables_match_per_point(solver):
    p = solver.params
    T = solver.timeline.times
    t_star = 1.5 * T["T_fin"]
    for side, lo, hi in ((1, p.q1, p.mu1), (2, p.mu2, p.q2)):
        rho = np.linspace(lo, hi, 97)
        _assert_matches(
            solver.transport_x(side, rho, t_star),
            [solver.transport_x(side, r, t_star) for r in rho.tolist()],
        )
    hodo = solver.hodograph
    phi = solver.timeline.curves["phi"]
    theta = solver.timeline.curves["theta"]
    phi_rho = phi.param_grid.tolist()
    theta_rho = theta.param_grid.tolist()
    _assert_matches(phi.t_grid, [hodo.t(r, p.mu2) for r in phi_rho])
    _assert_matches(phi.x_grid, [hodo.x(r, p.mu2) for r in phi_rho])
    _assert_matches(theta.t_grid, [hodo.t(p.mu1, r) for r in theta_rho])
    _assert_matches(theta.x_grid, [hodo.x(p.mu1, r) for r in theta_rho])


# -- coincidence guard -----------------------------------------------------------

R = 4.0
TOL = COINCIDENT_RTOL * R


@pytest.mark.parametrize(
    "make",
    [float, np.float64, np.array],
    ids=["float", "float64", "0-d array"],
)
@pytest.mark.parametrize("method", ["t", "x", "t_partials"])
def test_coincident_scalar_inputs_raise(hodo, make, method):
    with pytest.raises(CoincidentInvariants):
        getattr(hodo, method)(make(R), make(R + 1e-12))
    with pytest.raises(CoincidentInvariants):
        getattr(hodo, method)(make(R), make(R))


@pytest.mark.parametrize("method", ["t", "x", "t_partials"])
def test_one_coincident_element_in_array_raises(hodo, method):
    R1 = np.array([2.0, 3.0, R, 4.5])
    R2 = np.array([8.0, 9.0, R + 1e-12, 9.5])
    with pytest.raises(CoincidentInvariants):
        getattr(hodo, method)(R1, R2)


@pytest.mark.parametrize(
    "make",
    [float, np.float64, np.array],
    ids=["float", "float64", "0-d array"],
)
def test_near_coincident_above_tolerance_passes(hodo, make):
    for R1, R2 in ((R, R + 2.0 * TOL), (R + 2.0 * TOL, R), (0.5, 0.5 + 2e-9)):
        assert np.isfinite(hodo.t(make(R1), make(R2)))
        assert np.isfinite(hodo.x(make(R1), make(R2)))
        assert np.all(np.isfinite(hodo.t_partials(make(R1), make(R2))))


def test_scalar_and_array_guards_agree_at_the_threshold(hodo):
    def raises(R1, R2):
        try:
            hodo.t(R1, R2)
        except CoincidentInvariants:
            return True
        return False

    for base in (0.25, 1.0, R, 37.0):
        tol = COINCIDENT_RTOL * max(1.0, base)
        for factor in (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0):
            other = base + factor * tol
            expected = factor < 1.0
            assert raises(base, other) is expected
            assert raises(np.array([base, 2.0]), np.array([other, 8.0])) is expected


# -- zone runs ----------------------------------------------------------------------


def _zone_runs_loop(zone):
    """Per-sample reference for Profile.zone_runs."""
    runs = []
    start = 0
    for i in range(1, len(zone) + 1):
        if i == len(zone) or zone[i] != zone[start]:
            runs.append((zone[start], slice(start, i)))
            start = i
    return runs


def _profile_with_zones(zone):
    n = len(zone)
    x = np.arange(n, dtype=float)
    ones = np.ones(n)
    return Profile(0.1, x, ones, ones, ones, ones, list(zone))


@pytest.mark.parametrize(
    "zone",
    [
        [],
        ["Z1"],
        ["Z1", "Z1", "Z1"],
        ["Z1", "Z2", "Z1", "Z2"],
        ["Z1", "Z1", "Z9", "Z10", "Z10", "Z8"],
    ],
)
def test_zone_runs_match_loop(zone):
    assert _profile_with_zones(zone).zone_runs() == _zone_runs_loop(zone)


def test_zone_runs_match_loop_on_profiles(solver):
    for t in (0.005, 0.02, 0.05, 0.2):
        prof = solver.profile_at(t, n=1024)
        assert prof.zone_runs() == _zone_runs_loop(prof.zone)


# -- parametric boundary roots -----------------------------------------------------


def test_param_fields_default_to_none(solver):
    for cid in ("xs1", "xs2", "xw1", "phi_early", "xf1"):
        curve = solver.timeline.curves[cid]
        assert curve.rho_of_t is None and curve.param_point is None


@pytest.mark.parametrize("cid", ["phi", "theta"])
def test_rho_of_t_on_nodes_ends_and_outside(solver, cid):
    curve = solver.timeline.curves[cid]
    for k in (0, 1, 100, 255, 510, 511):
        t = float(curve.t_grid[k])
        rho = curve.rho_of_t(t)
        assert curve.param_point(rho)[1] == pytest.approx(t, rel=1e-14)
        assert rho == pytest.approx(curve.param_grid[k], rel=1e-12)
    for t in (curve.t_start, curve.t_end, curve.t_end * (1 + 1e-12)):
        assert curve.param_point(curve.rho_of_t(t))[1] == pytest.approx(t, rel=1e-14)
    span = curve.t_end - curve.t_start
    for t in (curve.t_start - span, curve.t_end + span):
        with pytest.raises(NoRootInInterval):
            curve.rho_of_t(t)


def test_rho_of_t_on_nodes_that_differ_from_scalar_evaluation():
    # About one table node in a thousand differs in the last bit from the
    # per-point value; a time equal to such a node can miss its grid cell.
    checked = 0
    for solver in CONE:
        for cid in ("phi", "theta"):
            curve = solver.timeline.curves[cid]
            for rho, t in zip(curve.param_grid.tolist(), curve.t_grid.tolist()):
                if curve.param_point(rho)[1] != t:
                    assert curve.param_point(curve.rho_of_t(t))[1] == pytest.approx(
                        t, rel=1e-14
                    )
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "mu1, mu2, q1, q2",
    [
        (10.0, 10.1, 1.0, 11.0),  # phi's margin would push mu1 past mu2
        (6.0, 6.1, 1.0, 8.0),  # phi's margin would land on mu2 (R1 = R2)
        (4.0, 4.2, 3.0, 18.0),  # theta's margin would push mu2 past mu1
    ],
)
def test_rho_of_t_in_end_cells_when_mu1_and_mu2_are_close(mu1, mu2, q1, q2):
    # mu2 - mu1 is below the bracket margin; the extended end node must stay
    # on the curve's side of the pole of t(rho) at the fixed invariant.
    p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=-1.0, x2=1.0)
    solver = ScenarioSolver(p)
    for cid in ("phi", "theta"):
        curve = solver.timeline.curves[cid]
        ts = curve.t_grid
        for t in (0.5 * (ts[0] + ts[1]), 0.5 * (ts[-2] + ts[-1])):
            t = float(t)
            t_back = curve.param_point(curve.rho_of_t(t))[1]
            assert t_back == pytest.approx(t, rel=1e-12)
            solver.profile_at(t, n=256)


def test_z5_edges_take_x_and_state_from_one_root(solver):
    # On a parametric boundary the Z5 end's position and state rest on the
    # same root rho_of_t(t*), so the hodograph maps the state onto x exactly.
    for s in (solver, *CONE):
        T = s.timeline.times
        h = s.hodograph
        for t in np.linspace(T["T_3"], T["T_fin"], 22)[1:-1].tolist():
            seg = s.z5_profile(t, n=2)
            assert seg.x[0] == h.x(seg.R1[0], seg.R2[0])
        for t in np.linspace(T["T_6"], T["T_fin"], 22)[1:-1].tolist():
            seg = s.z5_profile(t, n=2)
            assert seg.x[-1] == h.x(seg.R1[-1], seg.R2[-1])
