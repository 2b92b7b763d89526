"""Whole-array hodograph evaluation against the per-point reference.

The profile and timeline code evaluates the closed form once per array.
These tests keep the per-point evaluation as the reference and require the
two to agree to a few units in the last place, on instances drawn from the
same law as acceptance criterion 9.
"""

import itertools

import numpy as np
import pytest

from zesolver import MixtureParams
from zesolver.errors import (
    CoincidentInvariants,
    DomainError,
    NoRootInInterval,
    PhaseGap,
    UnexpectedOrdering,
)
from zesolver.hodograph import COINCIDENT_RTOL, NEWTON_MAX_ITER, NEWTON_STOP
from zesolver.invariants import concentrations_from_invariants, lambda_k
from zesolver.isochrone import (
    ASSEMBLY_GAP,
    DEGENERATE_WIDTH,
    Profile,
    ScenarioSolver,
    Segment,
)

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


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
    # The one-pass evaluation of the Z5 inverse against the separate ones
    # (products for powers: a few ulp of the largest value).
    fused = hodo._t_x_partials(R1, R2)
    for got, ref in zip(fused, (hodo.t(R1, R2), hodo.x(R1, R2), d1, d2)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # The one-pass t/x evaluator is t and x bit for bit, also on an array
    # against a scalar fixed invariant (as Side.pair gives it).
    for args in ((R1, R2), (R1, p.mu2), (p.mu1, R2)):
        t, x = hodo.t_x(*args)
        assert _same_bits(t, hodo.t(*args)) and _same_bits(x, hodo.x(*args))


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
    def raises(method, R1, R2):
        try:
            method(R1, R2)
        except CoincidentInvariants:
            return True
        return False

    # The one-pass t_x raises on exactly the inputs that t does, also on an
    # array against a scalar fixed invariant.
    for base in (0.25, 1.0, R, 37.0):
        tol = COINCIDENT_RTOL * max(1.0, base)
        for factor in (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0):
            other = base + factor * tol
            expected = factor < 1.0
            for method in (hodo.t, hodo.t_x):
                assert raises(method, base, other) is expected
                assert raises(method, np.array([base, 2.0]), np.array([other, 8.0])) is expected
                assert raises(method, np.array([base, 2.0]), other) is expected


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


def _layout_times(s):
    """Each event time, its float neighbours, the midpoints between events
    and a time past the last one."""
    T = sorted(s.timeline.times.values())
    ts = {float(np.nextafter(t, d)) for t in T for d in (0.0, np.inf)}
    ts.update(T)
    ts.update(0.5 * (a + b) for a, b in zip(T, T[1:]))
    ts.add(2.0 * T[-1])
    return sorted(ts)


def test_samplers_read_their_edges_from_the_layout(solver):
    # Each sampled zone's ends are its interval's curves at t: Z5's end
    # samples take the interval's x and the curve's state on Z5's side
    # (evaluated afresh, so a parametric end re-solves its root), and a
    # transport zone's end invariants are the curve's root or constant.
    # Called directly, a sampler (and phi, theta) raises DomainError
    # exactly where the layout has no such zone.
    for s in (solver, *CONE):
        curves = s.timeline.curves
        samplers = {"Z5": s.z5_profile, "Z9": s.z9_profile, "Z10": s.z10_profile}
        for t in _layout_times(s):
            layout = {iv.zone: iv for iv in s.timeline.zones_at(t)}
            prof = s.profile_at(t, n=64)
            runs = dict(prof.zone_runs())
            for name, sampler in samplers.items():
                if name not in layout:
                    with pytest.raises(DomainError):
                        sampler(t)
                    assert name not in runs
                    continue
                sampler(t)
                iv, sl = layout[name], runs[name]
                left = curves[iv.left_curve].right_state(t)
                right = curves[iv.right_curve].left_state(t)
                k_left, k_right = {"Z5": (0, 1), "Z9": (0, 0), "Z10": (1, 1)}[name]
                for state, k, rho in ((left, k_left, iv.left_rho),
                                      (right, k_right, iv.right_rho)):
                    assert rho is None or state[k] == rho, (t, name)
                if name == "Z5":
                    ends = [(sl.start, iv.x_left, left)]
                    if sl.stop - sl.start > 1:  # else a point zone at its left end
                        ends.append((sl.stop - 1, iv.x_right, right))
                    for i, x, state in ends:
                        # The assembly's order clamp may raise x to the
                        # sample before it.
                        x = max(x, prof.x[i - 1]) if i else x
                        assert (prof.x[i], prof.R1[i], prof.R2[i]) == (x, *state), (t, i)
                else:
                    # rho runs up from the lower end value; a point zone is
                    # that one value.
                    rho = (prof.R1, prof.R2)[k_left][sl]
                    lo, hi = sorted((left[k_left], right[k_left]))
                    assert (rho[0], rho[-1]) == (lo, hi if rho.size > 1 else lo), (t, name)
            if "Z5" in layout:
                assert (s.phi(t), s.theta(t)) == (layout["Z5"].x_left, layout["Z5"].x_right)
            else:
                for edge in (s.phi, s.theta):
                    with pytest.raises(DomainError):
                        edge(t)


# -- the profile's bytes against the per-zone assembly ----------------------------


def _invert_reference(hodo, t_star, x, left, right):
    """ImplicitSolution.invert as a per-term Newton with np.clip."""
    (xl, R1l, R2l), (xr, R1r, R2r) = left, right
    if not R2l - R1r >= COINCIDENT_RTOL * max(1.0, abs(R2l)):
        raise CoincidentInvariants(f"state box reaches R1 = R2 ({R1r}, {R2l})")
    s = (x - xl) / (xr - xl)
    R1, R2 = R1l + s * (R1r - R1l), R2l + s * (R2r - R2l)
    for _ in range(NEWTON_MAX_ITER):
        t, xx, t_r1, t_r2 = hodo._t_x_partials(R1, R2)
        P = R1 * R2
        dR1 = (P * R1 * (t - t_star) - (xx - x)) / (t_r1 * P * (R1 - R2))
        dR2 = ((xx - x) - P * R2 * (t - t_star)) / (t_r2 * P * (R1 - R2))
        R1 = np.clip(R1 - dR1, R1l, R1r)
        R2 = np.clip(R2 - dR2, R2l, R2r)
        if np.all((abs(dR1) <= NEWTON_STOP * R1) & (abs(dR2) <= NEWTON_STOP * R2)):
            return R1, R2
    raise NoRootInInterval(f"isochrone t* = {t_star}: Newton did not converge")


def _transport_x_reference(solver, side, rho, t_star):
    """ScenarioSolver.transport_x with separate hodograph t and x calls."""
    s = solver.timeline.side(side)
    R = s.pair(rho)
    tau = solver.hodograph.t(*R)
    x0 = solver.hodograph.x(*R)
    return x0 + lambda_k(s.k, *R) * (t_star - tau)


def _zone_segment_reference(solver, iv, xl, xr, t_star, n_k):
    """One zone as its own Segment: a sampler, or np.linspace and the
    plateau or fan state."""
    zone = iv.zone
    s1, s2 = solver.timeline.sides.values()
    if zone == "Z5":
        return solver.z5_profile(t_star, n_k, iv)
    if zone == s1.zone:
        return solver.z9_profile(t_star, n_k, iv)
    if zone == s2.zone:
        return solver.z10_profile(t_star, n_k, iv)
    R1, R2 = solver.timeline.plateaus[zone]
    degenerate = (xr - xl) < DEGENERATE_WIDTH * max(1.0, abs(xl))
    xs = np.array([xl]) if degenerate else np.linspace(xl, xr, n_k)
    R1 = s2.fan(xs, t_star) if R1 is None else np.full_like(xs, R1)
    R2 = s1.fan(xs, t_star) if R2 is None else np.full_like(xs, R2)
    return Segment(zone, xs, R1, R2)


def _merge_segments_reference(solver, t_star, segments):
    """The segments concatenated, with the gap check, the order clamp and
    the per-run order check of the Profile."""
    for a, b in zip(segments, segments[1:]):
        if abs(a.x[-1] - b.x[0]) > ASSEMBLY_GAP * max(1.0, abs(a.x[-1])):
            raise PhaseGap(
                f"assembly gap between {a.zone} ({a.x[-1]}) and {b.zone} ({b.x[0]})"
            )
    x = np.maximum.accumulate(np.concatenate([s.x for s in segments]))
    R1 = np.concatenate([s.R1 for s in segments])
    R2 = np.concatenate([s.R2 for s in segments])
    zone = sum(([s.zone] * len(s.x) for s in segments), [])
    if np.any(np.diff(x) < 0):
        raise PhaseGap("profile samples are not ordered by x")
    start = 0
    for _, run in itertools.groupby(zone):
        stop = start + len(list(run))
        if stop - start > 1 and np.any(np.diff(x[start:stop]) <= 0):
            raise PhaseGap("x not strictly increasing inside a zone run")
        start = stop
    u1, u2 = concentrations_from_invariants(solver.params, R1, R2)
    return x, R1, R2, np.asarray(u1), np.asarray(u2), zone


def _profile_reference(solver, t_star, n, window, monkeypatch):
    """profile_at assembled zone by zone, each zone its own Segment."""
    with monkeypatch.context() as m:
        hodo = solver.hodograph
        m.setattr(hodo, "invert", lambda *a: _invert_reference(hodo, *a))
        m.setattr(solver, "transport_x",
                  lambda *a: _transport_x_reference(solver, *a))
        intervals = solver.timeline.zones_at(t_star)
        x_lo, x_hi = intervals[0].x_right, intervals[-1].x_left
        span = max(x_hi - x_lo, 1.0)
        if window is None:
            window = (x_lo - 0.1 * span, x_hi + 0.1 * span)
        ends = [(window[0] if iv.x_left is None else iv.x_left,
                 window[1] if iv.x_right is None else iv.x_right) for iv in intervals]
        widths = [max(xr - xl, 0.0) for xl, xr in ends]
        total = sum(widths) or 1.0
        segments = [
            _zone_segment_reference(solver, iv, xl, xr, t_star,
                                    max(2, int(round(n * w / total))))
            for iv, (xl, xr), w in zip(intervals, ends, widths)
        ]
        return _merge_segments_reference(solver, t_star, segments)


def _assert_profile_bytes(solver, t, n, window, monkeypatch):
    prof = solver.profile_at(t, n=n, window=window)
    x, R1, R2, u1, u2, zone = _profile_reference(solver, t, n, window, monkeypatch)
    for got, ref in zip((prof.x, prof.R1, prof.R2, prof.u1, prof.u2), (x, R1, R2, u1, u2)):
        assert _same_bits(got, ref), (t, n, window)
    assert prof.zone == zone, (t, n, window)


@pytest.mark.parametrize("n", [2, 7, 1024, 4096])
def test_profile_bytes_match_per_zone_assembly_readme(solver, n, monkeypatch):
    # compare's window is its FV domain [-3, 7] widened by 1 on each side.
    times = _layout_times(solver) + [10.0 * solver.timeline.times["T_fin"]]
    for t in times:
        for window in (None, (-4.0, 8.0)):
            _assert_profile_bytes(solver, t, n, window, monkeypatch)


@pytest.mark.parametrize("solver", CONE, ids=lambda s: f"mu1={s.params.mu1:.3f}")
def test_profile_bytes_match_per_zone_assembly_cone(solver, monkeypatch):
    # Each time takes the next sample count and window in turn.
    times = _layout_times(solver) + [10.0 * solver.timeline.times["T_fin"]]
    cases = itertools.cycle(itertools.product((2, 7, 1024, 4096), (None, (-4.0, 8.0))))
    for t, (n, window) in zip(times, cases):
        _assert_profile_bytes(solver, t, n, window, monkeypatch)
