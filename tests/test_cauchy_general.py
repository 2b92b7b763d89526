import math
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from zesolver import MixtureParams
from zesolver import cauchy_general
from zesolver.cauchy_general import (
    AbPlaneState,
    PiecewiseInitialData,
    _anchor,
    _dependence,
    _parts,
    _position,
    _secant_root,
    _t_feet,
    find_seed,
    general_profile,
    march_isochrone,
    seed_point,
    t_ab,
)
from zesolver.errors import (
    CoincidentInvariants,
    DomainError,
    LevelDrift,
    NoRootInInterval,
)
from zesolver.invariants import lambda_k
from zesolver.wavefield import bracketed_newton


@pytest.fixture(scope="module")
def data(params):
    return PiecewiseInitialData.from_scenario(params)


def test_data_validation():
    with pytest.raises(DomainError):
        PiecewiseInitialData((1.0, -1.0), (2, 3, 4), (5, 6, 7), (-10, 10))
    with pytest.raises(DomainError):
        PiecewiseInitialData((0.0,), (2, 0.0), (5, 6), (-10, 10))
    with pytest.raises(DomainError):
        PiecewiseInitialData((0.0,), (6, 2), (5, 6), (-10, 10))
    with pytest.raises(DomainError):
        PiecewiseInitialData((), (2,), (5,), (10, -10))


def test_t_ab_zero_width(data):
    assert t_ab(data, 0.3, 0.3) == 0.0


def test_t_ab_needs_ordered_feet(data):
    with pytest.raises(DomainError):
        t_ab(data, 0.5, 0.25)
    with pytest.raises(DomainError):
        t_ab(data, 1.0, -1.0)
    assert t_ab(data, 0.25, 0.5) > 0.0


def test_t_ab_scenario_corner(data):
    # Feet exactly on the two jumps: the fan-interaction time.
    assert t_ab(data, -1.0, 1.0) == pytest.approx(0.0125, rel=1e-14)


def test_t_ab_plateau_is_characteristic_crossing_time(data, params):
    # Inside the inner plateau the implicit time is the crossing time of
    # the 2-characteristic from a and the 1-characteristic from b.
    for a, b in ((-0.5, 0.25), (-0.9, 0.9), (0.0, 0.4)):
        expected = (b - a) / (params.q1 * params.q2 * (params.q2 - params.q1))
        assert t_ab(data, a, b) == pytest.approx(expected, rel=1e-13)


def test_frozen_integral_form_matches_hodograph_surface(data, hodo, params):
    # With both feet pinned on the jump verticals, F and G freeze at their
    # plateau totals and the general formula must reduce to the closed
    # Goursat solution of the two-point scenario.
    F, G = data._integrals(params.x1, params.x2)[2:]
    width = params.x2 - params.x1
    for r1 in np.linspace(2.05, 4.95, 9):
        for r2 in np.linspace(8.05, 9.95, 9):
            t = (2 * width - (r1 + r2) * F + 2 * r1 * r2 * G) / (r1 - r2) ** 3
            assert t == pytest.approx(hodo.t(r1, r2), rel=1e-10)


def test_seed_point_zero_length(data):
    st = seed_point(data, 0.25, 0.25)
    assert st.X == pytest.approx(0.25, abs=1e-14)


def test_seed_point_integrals_match_closed_form(data):
    st = seed_point(data, -3.0, 0.5)
    assert st.t_star == pytest.approx(t_ab(data, -3.0, 0.5), rel=1e-11)


def test_seed_point_position_inside_plateau(data, params):
    # For feet inside the inner plateau the characteristics carry (q1, q2);
    # the returned X must be the straight-line crossing of the
    # 1-characteristic from b.
    a, b = -0.999, 0.985
    st = seed_point(data, a, b)
    expected = b + params.q1 * params.q1 * params.q2 * st.t_star
    assert st.X == pytest.approx(expected, abs=1e-10)


def test_seed_point_near_corner_matches_interaction_point(data):
    eps = 1e-9
    st = seed_point(data, -1.0 + eps, 1.0 - eps)
    assert st.t_star == pytest.approx(0.0125, abs=1e-8)
    assert st.X == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize("t_star", [0.005, 0.01, 0.05])
def test_seed_on_a_breakpoint_takes_the_right_limit(data, params, t_star):
    # a* = x2 exactly: t_ab and find_seed read r2 = R2_0(a*+) = mu2, and
    # so must seed_point, or its t* disagrees with the seed's level.  The
    # seed is the crossing of t* on the ray a = x2, where b's one piece
    # makes t affine in b: the root of the chord through the ray's ends.
    lo, hi = data.domain
    ends = np.array([1.0 + cauchy_general._EDGE * (hi - lo), hi])
    t0, t1 = _t_feet(data, 1.0, ends)
    b = ends[0] + (t_star - t0) / (t1 - t0) * (ends[1] - ends[0])
    st = seed_point(data, 1.0, b)
    assert st.a == 1.0
    assert st.r2 == params.mu2
    assert st.t_star == pytest.approx(t_ab(data, 1.0, b), rel=1e-14)
    assert st.t_star == pytest.approx(t_star, rel=1e-9)
    if t_star == 0.05:
        # This seed's isochrone branch lies wholly right of the window, on
        # [17, 31]: no sample to return.
        with pytest.raises(DomainError):
            march_isochrone(data, st, (-4.0, 9.0))
        return
    res = march_isochrone(data, st, (-4.0, 9.0))
    assert res.max_drift <= 1e-8 * st.t_star


def test_seed_outside_the_window_marches_into_it(data):
    # The seed of t* = 0.018 lies at x = -0.381, left of the window; the
    # march enters the window and stops where it leaves it.
    lo, hi = 1.6, 3.6
    res = general_profile(data, 0.018, (lo, hi))
    assert res.x.min() == pytest.approx(-0.424, abs=1e-9)  # the fold, left of the seed
    assert res.x.max() == pytest.approx(hi, abs=1e-9)
    assert np.sum((res.x > lo) & (res.x < hi)) > 100
    assert res.status == {1: "fold", -1: "window"}


def test_general_profile_builds_the_graphs_once(params, monkeypatch):
    # The seed and the march share the data's one pair of graphs.
    built = []
    graph = cauchy_general._Graph
    monkeypatch.setattr(cauchy_general, "_Graph", lambda *args: built.append(args) or graph(*args))
    general_profile(PiecewiseInitialData.from_scenario(params), 0.018, (-2.0, 6.0))
    assert len(built) == 2


def test_find_seed_prefers_cross_piece_brackets(data):
    a, b = find_seed(data, 0.018)
    assert t_ab(data, a, b) == pytest.approx(0.018, rel=1e-12)
    assert data.piece_of(a, side="right") != data.piece_of(b, side="left")


def _level_map(data, rect, resolution):
    """t(a, b) over a rectangle, one _t_feet call per row of a; NaN where b <= a."""
    a = np.linspace(rect[0], rect[1], resolution)
    b = np.linspace(rect[2], rect[3], resolution)
    T = np.full((a.size, b.size), np.nan)
    for i, av in enumerate(a):
        right = b > av
        if right.any():
            T[i, right] = _t_feet(data, av, b[right])
    return a, b, T


def test_level_map_translation_invariance():
    flat = PiecewiseInitialData((), (3.0,), (7.0,), (-5.0, 5.0))
    a, b, T = _level_map(flat, (-4, 0, -4, 4), resolution=21)
    for i in range(0, 21, 5):
        for j in range(0, 21, 5):
            if b[j] <= a[i]:
                continue
            assert T[i, j] == pytest.approx((b[j] - a[i]) / (3 * 7 * 4), rel=1e-12)


def test_level_map_monotone_along_b(data):
    col = _t_feet(data, -0.9, np.linspace(-0.5, 0.9, 33))
    vals = col[~np.isnan(col)]
    assert vals.size == 33
    assert np.all(np.diff(vals) > 0)


def test_march_constant_data_keeps_state():
    flat = PiecewiseInitialData((), (3.0,), (7.0,), (-50.0, 50.0))
    seed = seed_point(flat, *find_seed(flat, 0.05))
    res = march_isochrone(flat, seed, (-5.0, 5.0))
    assert np.allclose(res.R1, 3.0)
    assert np.allclose(res.R2, 7.0)
    assert res.max_drift < 1e-8 * 0.05


def test_march_scenario_matches_phase_solution(data, solver):
    for t_star in (0.018, 0.028):
        res = general_profile(data, t_star, (-4.0, 9.0), mobilities=(5.0, 8.0))
        assert res.max_drift <= 1e-8 * t_star
        prof = solver.profile_at(t_star, n=8192, window=(-4.5, 9.5))
        xs1 = solver.timeline.curves["xs1"].x(t_star)
        xs2 = solver.timeline.curves["xs2"].x(t_star)
        delta = 2e-3
        xq = np.linspace(xs1 + delta, xs2 - delta, 2500)
        keep = np.ones_like(xq, dtype=bool)
        for k in res.knots:
            keep &= np.abs(xq - k) > delta
        xq = xq[keep]
        gu1 = np.interp(xq, res.x, res.u1)
        gu2 = np.interp(xq, res.x, res.u2)
        au1, au2 = prof.interp(xq)
        assert np.max(np.abs(gu1 - au1)) <= 1e-5
        assert np.max(np.abs(gu2 - au2)) <= 1e-5


def test_march_knots_match_weak_discontinuities(data, solver):
    t_star = 0.018
    res = general_profile(data, t_star, (-4.0, 9.0))
    tl = solver.timeline
    expected = [
        tl.curves["xl2"].x(t_star),
        solver.phi(t_star),
        solver.theta(t_star),
        tl.curves["xr1"].x(t_star),
    ]
    for target in expected:
        nearest = min(res.knots, key=lambda k: abs(k - target))
        assert nearest == pytest.approx(target, abs=1e-13)


def test_march_reports_fold_on_ghost_fan(data, solver, params):
    # Marching left from the physical branch folds where the compressive
    # ghost fan of the left jump begins: x = x1 + lambda1(q1, mu2) t*.
    t_star = 0.018
    res = general_profile(data, t_star, (-50.0, 9.0))
    assert "fold" in res.status.values()
    lam1 = params.q1 * params.q1 * params.mu2
    assert res.x.min() == pytest.approx(params.x1 + lam1 * t_star, abs=1e-6)


@pytest.mark.parametrize("t_star", [0.005, 0.018, 0.05])
def test_march_samples_stay_on_the_level(data, t_star):
    # The march's own drift, checked independently of its post-pass: the
    # closed form at every sample's feet and invariants gives back t*.
    seed = seed_point(data, *find_seed(data, t_star))
    res = march_isochrone(data, seed, (-4.0, 9.0))
    for k in range(res.x.size):
        a, b, r1, r2 = res.a[k], res.b[k], res.R1[k], res.R2[k]
        F, G = data._integrals(a, b)[2:]
        t = (2 * (b - a) - (r1 + r2) * F + 2 * r1 * r2 * G) / (r1 - r2) ** 3
        assert abs(t - t_star) <= 1e-13 * t_star
    # Off the jumps the invariants are the data's: t_ab itself must agree.
    off = ~np.isin(res.a, data.breakpoints) & ~np.isin(res.b, data.breakpoints)
    assert off.sum() > 100
    for a, b in zip(res.a[off], res.b[off]):
        assert abs(t_ab(data, a, b) - t_star) <= 1e-13 * t_star


def test_knots_only_where_the_march_goes_on():
    # The march's left direction ends on the domain's left edge, a graph end
    # and no data breakpoint: no knot there.  Cone instance of the
    # general_march benchmark workload.
    p = (1.0200456235012836, 1.7045396643753996, 0.6798107733783443,
         1.8276517597718802, -0.4657435572863169, 0.4564778905889093)
    mu1, mu2, q1, q2, x1, x2 = p
    data = PiecewiseInitialData((x1, x2), (mu1, q1, mu1), (mu2, q2, mu2),
                                (-2.3101864530367693, 9.67869236934117))
    res = general_profile(data, 0.6978717921392725,
                          (0.24338540240253054, 2.7898924964818335))
    assert res.status == {1: "domain", -1: "window"}
    assert res.x.min() == pytest.approx(0.0916, abs=1e-4)
    assert len(res.knots) == 4
    assert min(res.knots) > res.x.min() + 0.5


def test_march_three_plateau_data():
    data = PiecewiseInitialData(
        breakpoints=(-1.0, 0.0, 1.0),
        r1_values=(5.0, 2.0, 3.0, 5.0),
        r2_values=(8.0, 10.0, 9.0, 8.0),
        domain=(-21.0, 21.0),
    )
    res = general_profile(data, 0.01, (-3.0, 5.0))
    assert res.max_drift <= 1e-8 * 0.01
    assert res.x.size > 100


def test_ab_plane_state_fields(data):
    st = seed_point(data, -3.0, 0.5)
    assert isinstance(st, AbPlaneState)
    assert st.r1 == 2.0 and st.r2 == 8.0


# -- row evaluator against the scalar t_ab ----------------------------------


def _law_data(count, seed=20261018):
    """Two-plateau data of acceptance 9's parameter law, with its time T_int."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        mu1 = rng.uniform(1.0, 6.0)
        mu2 = mu1 + rng.uniform(0.5, 5.0)
        q1 = rng.uniform(0.5, mu1)
        q2 = rng.uniform(mu2, 3 * mu2)
        x1 = rng.uniform(-2.0, 0.0)
        x2 = x1 + rng.uniform(0.5, 3.0)
        p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=x1, x2=x2)
        t_int = (x2 - x1) / (q1 * q2 * (q2 - q1))
        out.append((PiecewiseInitialData.from_scenario(p, pad=(2.0, 10.0)[i % 2]), t_int))
    return out


LAW = _law_data(20)

#: r1 of the right piece equals r2 of the left one: t(a < 0, b > 0) is undefined.
COINCIDENT = PiecewiseInitialData((0.0,), (2.0, 6.0), (6.0, 9.0), (-5.0, 5.0))


def _scalar_t(data, a, b):
    try:
        return t_ab(data, a, b)
    except CoincidentInvariants:
        return np.nan


def _assert_bitwise(got, ref):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    keep = ~np.isnan(ref)
    assert got[keep].tobytes() == ref[keep].tobytes()


def _feet(data):
    """Fixed feet: domain ends, breakpoints exactly, and points inside pieces."""
    edges = data._edges()
    inner = 0.5 * (edges[:-1] + edges[1:])
    return np.concatenate([edges, inner, edges[:-1] + 0.123 * np.diff(edges)])


RAY_DATA = [d for d, _ in LAW] + [COINCIDENT]


@pytest.mark.parametrize("data", RAY_DATA)
def test_t_ray_a_fixed_is_bitwise_t_ab(data):
    edges = data._edges()
    lo, hi = data.domain
    for a in _feet(data):
        if a >= hi:
            continue
        ray = partial(_t_feet, data, a)
        # The scan's rows: one per piece, each ending exactly on its right
        # edge, where t_ab takes r1 from the piece on the left.
        for e0, e1 in zip(edges, edges[1:]):
            if e1 <= a:
                continue
            bb = np.linspace(max(e0, a) + 1e-12 * (hi - lo), e1, 33)
            assert bb[-1] == e1
            _assert_bitwise(ray(bb), [_scalar_t(data, a, b) for b in bb])
        # A row crossing every edge to its right, and scalar calls.
        bb = np.linspace(a + 1e-3, hi + 1.0, 97)
        _assert_bitwise(ray(bb), [_scalar_t(data, a, b) for b in bb])
        for b in bb[::16]:
            _assert_bitwise(ray(b), _scalar_t(data, a, b))


@pytest.mark.parametrize("data", RAY_DATA)
def test_t_ray_b_fixed_is_bitwise_t_ab(data):
    # The ray with b fixed, t(v, b), evaluated by the table formula itself.
    edges = data._edges()
    lo, hi = data.domain
    for b in _feet(data):
        if b <= lo:
            continue
        ray = partial(_t_feet, data, b=b)
        for e0, e1 in zip(edges, edges[1:]):
            if e0 >= b:
                continue
            aa = np.linspace(e0, min(e1, b) - 1e-12 * (hi - lo), 33)
            assert aa[0] == e0
            _assert_bitwise(ray(aa), [_scalar_t(data, a, b) for a in aa])
        aa = np.linspace(lo - 1.0, b - 1e-3, 97)
        _assert_bitwise(ray(aa), [_scalar_t(data, a, b) for a in aa])
        for a in aa[::16]:
            _assert_bitwise(ray(a), _scalar_t(data, a, b))


def test_t_ray_coincident_row_is_nan():
    with pytest.raises(CoincidentInvariants):
        t_ab(COINCIDENT, -1.0, 1.0)
    bb = np.linspace(1e-9, 5.0, 50)
    assert np.all(np.isnan(_t_feet(COINCIDENT, -1.0, bb)))
    assert np.all(np.isnan(_t_feet(COINCIDENT, -bb, 1.0)))
    # The same ray is finite where the feet share a piece.
    inside = np.linspace(-0.99, -0.01, 20)
    assert np.all(np.isfinite(_t_feet(COINCIDENT, -1.0, inside)))


def _t_mp(data, a, b):
    """t(a, b) at 50 digits from the data's pieces, with its conditioning scale.

    The scale (2|b-a| + |r1+r2||F| + 2|r1 r2||G|) / |r1-r2|^3 is what the
    rounding of the formula's three terms can cost.
    """
    bp = data.breakpoints
    ia = sum(e <= a for e in bp)  # a's piece on its right
    ib = sum(e < b for e in bp)  # b's piece on its left
    with mpmath.workdps(50):
        edges = [mpmath.mpf(e) for e in data._edges()]
        a_mp, b_mp = mpmath.mpf(a), mpmath.mpf(b)
        F = G = mpmath.mpf(0)
        for k in range(ia, ib + 1):
            width = min(b_mp, edges[k + 1]) - max(a_mp, edges[k])
            R1, R2 = mpmath.mpf(data.r1_values[k]), mpmath.mpf(data.r2_values[k])
            F += (R1 + R2) / (R1 * R2) * width
            G += width / (R1 * R2)
        r1, r2 = mpmath.mpf(data.r1_values[ib]), mpmath.mpf(data.r2_values[ia])
        d3 = (r1 - r2) ** 3
        t = (2 * (b_mp - a_mp) - (r1 + r2) * F + 2 * r1 * r2 * G) / d3
        scale = (2 * abs(b_mp - a_mp) + abs(r1 + r2) * abs(F) + 2 * abs(r1 * r2) * abs(G)) / abs(d3)
        return t, scale


#: Six pieces: F and G sum up to four whole pieces between the feet.
MANY = PiecewiseInitialData(
    (-2.0, -0.5, 0.3, 1.1, 2.5), (5.0, 2.0, 3.0, 1.5, 4.0, 5.0),
    (8.0, 10.0, 9.0, 12.0, 7.0, 8.0), (-6.0, 9.0),
)


@pytest.mark.parametrize("data", [d for d, _ in LAW] + [MANY])
def test_t_ab_matches_extended_precision(data):
    bp = np.asarray(data.breakpoints)
    feet = np.unique(np.concatenate(
        [_feet(data), np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)]
    ))
    eps = np.finfo(float).eps
    for i, a in enumerate(feet):
        for b in feet[i:]:
            t_mp, scale = _t_mp(data, a, b)
            err = abs(mpmath.mpf(t_ab(data, a, b)) - t_mp)
            assert err <= 8 * eps * scale, (a, b)


# -- X(a, b) against the ODEs it replaced and a 50-digit reference -----------

#: Tolerances of the seed and march ODEs that integrated X before it had a
#: closed form.
_ODE = {"method": "RK45", "rtol": 1e-11, "atol": 1e-13}

THREE = PiecewiseInitialData((-1.0, 0.0, 1.0), (5.0, 2.0, 3.0, 5.0), (8.0, 10.0, 9.0, 8.0),
                             (-21.0, 21.0))


def _seed_x_ode(data, a_star, b_star):
    """X(a*, b*) by the seed ODE dY/ds_b = lambda2(r1, r2) t_sb along a = a*
    from Y = a*, restarted on each graph segment of b."""
    ga, gb = data.graphs
    s_a = ga.s_of_x(a_star, side="right")
    seg_a = ga.segments[ga.locate(s_a)]
    s_b, s_b_end = gb.s_of_x(a_star), gb.s_of_x(b_star)
    y = np.array([a_star])
    while s_b < s_b_end - 1e-14:
        seg_b = gb.segments[gb.locate(s_b, direction=1)]
        seg_end = min(seg_b.s1, s_b_end)
        anchor = _anchor(data, seg_a, seg_b, s_a, s_b)

        def rhs(s, yv):
            _, _, t_sb, r1, r2 = _parts(seg_a, seg_b, s_a, s, anchor)
            return (lambda_k(2, r1, r2) * t_sb,)

        sol = solve_ivp(rhs, (s_b, seg_end), y, **_ODE)
        assert sol.success
        y, s_b = sol.y[:, -1], seg_end
    return float(y[0])


@pytest.mark.parametrize("data", [LAW[0][0], LAW[1][0], MANY, THREE])
def test_seed_x_matches_the_seed_ode(data):
    rng = np.random.default_rng(11)
    lo, hi = data.domain
    for a, b in np.sort(rng.uniform(lo + 0.1 * (hi - lo), hi, (12, 2)), axis=1):
        x = seed_point(data, a, b).X
        assert abs(x - _seed_x_ode(data, a, b)) <= 1e-9 * max(1.0, abs(x)), (a, b)
    for a in data.breakpoints:  # feet on jumps, both sides
        b = a + 0.37 * (hi - a)
        for a_, b_ in ((a, b), (lo + 0.5 * (a - lo), a)):
            x = seed_point(data, a_, b_).X
            assert abs(x - _seed_x_ode(data, a_, b_)) <= 1e-9 * max(1.0, abs(x)), (a_, b_)


def _recorder(run_fn, log):
    """run_fn, appending (seg_a, seg_b, y0, direction, its output) to log."""

    def run(seg_a, seg_b, y0, direction, *args):
        out = run_fn(seg_a, seg_b, y0, direction, *args)
        log.append((seg_a, seg_b, y0, direction, out))
        return out

    return run


def _level_rhs(seg_a, seg_b, anchor, direction, with_x=False):
    """The paper's level-line system ds_a/dmu = -t_sb, ds_b/dmu = t_sa in
    arclength mu, and dX/dmu = (lambda2 - lambda1) t_sa t_sb with_x."""

    def rhs(mu, y):
        _, t_sa, t_sb, r1, r2 = _parts(seg_a, seg_b, y[0], y[1], anchor)
        k = direction / math.hypot(t_sa, t_sb)
        if not with_x:
            return (-t_sb * k, t_sa * k)
        lam = lambda_k(2, r1, r2) - lambda_k(1, r1, r2)
        return (-t_sb * k, t_sa * k, lam * t_sa * t_sb * k)

    return rhs


def _ode_run(seg_a, seg_b, y0, direction, t_star, x_window, arc_budget, start, *, data,
             log=None):
    """A march run by RK45 on the level-line system, as the march ran
    before its runs had a closed form: samples uniform in arclength,
    terminal events at the segments' ends, on leaving x_window and where
    t_sa t_sb changes sign, and a run end snapped onto its joint.  Appends
    (dense solution, its end) to log.  It takes _march_run's arguments and
    ignores start: the run's anchor is rebuilt from data."""
    anchor = _anchor(data, seg_a, seg_b, y0[0], y0[1])
    rhs = _level_rhs(seg_a, seg_b, anchor, direction)
    d0 = rhs(0.0, y0)

    def x_at(y):
        t, _, _, r1, r2 = _parts(seg_a, seg_b, y[0], y[1], anchor)
        return _position(seg_a, seg_a.eval(y[0])[0], r1, r2, t, anchor)

    events = [
        lambda mu, y: y[0] - (seg_a.s1 if d0[0] >= 0 else seg_a.s0),
        lambda mu, y: y[1] - (seg_b.s1 if d0[1] >= 0 else seg_b.s0),
        lambda mu, y: x_at(y) - x_window[0],
        lambda mu, y: x_at(y) - x_window[1],
        lambda mu, y: np.prod(_parts(seg_a, seg_b, y[0], y[1], anchor)[1:3]),
    ]
    for ev, sense in zip(events, (0, 0, -1, 1, 0)):
        ev.terminal, ev.direction = True, sense
    sol = solve_ivp(rhs, (0.0, arc_budget), y0, dense_output=True, events=events, **_ODE)
    assert sol.status in (0, 1)
    mu_end, first = min([(te[0], i) for i, te in enumerate(sol.t_events) if te.size],
                        default=(sol.t[-1], 5))
    stop = ("segment", "segment", "window", "window", "fold", "arc-budget")[first]
    if mu_end <= 1e-13:
        return None, stop, y0, 0.0
    ys = sol.sol(np.linspace(0.0, mu_end, max(9, int(mu_end * cauchy_general._DENSITY))))
    y_next = ys[:, -1].copy()
    if stop == "segment":
        for idx, seg in ((0, seg_a), (1, seg_b)):
            for edge in (seg.s0, seg.s1):
                if abs(y_next[idx] - edge) < 1e-10:
                    y_next[idx] = edge
    if log is not None:
        log.append((sol, mu_end))
    return cauchy_general._sample_run(seg_a, seg_b, ys, t_star, anchor), stop, y_next, mu_end


def _sample_rows(seg_a, seg_b, run):
    """The (s_a, s_b) rows of a run's samples, from their feet and invariants."""

    def s(seg, x, r):
        if seg.kind == "h":
            return x + (seg.s0 - seg.x0)
        return seg.s0 + (r - seg.r0) / (seg.r1 - seg.r0) * (seg.s1 - seg.s0)

    return np.array([s(seg_a, run["a"], run["R2"]), s(seg_b, run["b"], run["R1"])])


def _dense_at(sol, k, targets):
    """The dense solution where its coordinate k, monotone along it, takes
    the values targets: mu from a table, then Newton on the interpolant."""
    mu = np.linspace(sol.t[0], sol.t[-1], 16 * targets.size + 2)
    sk = sol.sol(mu)[k]
    order = np.argsort(sk)
    mu = np.interp(targets, sk[order], mu[order])
    h = 1e-6 * (sol.t[-1] - sol.t[0])
    for _ in range(3):
        slope = (sol.sol(mu + h)[k] - sol.sol(mu - h)[k]) / (2.0 * h)
        mu = mu - (sol.sol(mu)[k] - targets) / slope
    return sol.sol(mu)


_MARCHES = [("readme", 0.005, (-4.0, 9.0), {"hh", "vh", "hv"}),
            ("readme", 0.018, (-4.0, 9.0), {"hh", "vh", "vv", "hv"}),
            ("readme", 0.05, (-2.0, 6.0), {"hh", "hv:window"}),
            (THREE, 0.01, (-3.0, 5.0), {"hh", "vh", "vv", "hv"})]


@pytest.mark.parametrize("case, t_star, window, kinds", _MARCHES)
def test_march_matches_the_level_line_ode(case, t_star, window, kinds, request, monkeypatch):
    # The paper's method: RK45 on da/dmu = -t_b, db/dmu = t_a along each run.
    # Both marches pass the same runs (graph segments and stops); each
    # closed-form sample lies on the ODE's level line, read off its dense
    # output where the foot that moves most in the run is the sample's.
    data = request.getfixturevalue("data") if case == "readme" else case
    seed = seed_point(data, *find_seed(_dependence(data, t_star, window), t_star))
    marches = {}
    for name, run_fn in (("closed", cauchy_general._march_run), ("ode", _ode_run)):
        runs, sols = [], []
        fn = run_fn if name == "closed" else partial(run_fn, data=data, log=sols)
        monkeypatch.setattr(cauchy_general, "_march_run", _recorder(fn, runs))
        marches[name] = (march_isochrone(data, seed, window), runs, sols)
    (res, runs, _), (ref, ref_runs, sols) = marches["closed"], marches["ode"]
    assert res.status == ref.status
    assert np.allclose(res.knots, ref.knots, rtol=1e-9, atol=1e-9)
    assert [(a.kind + b.kind, out[1]) for a, b, *_, out in runs] == [
        (a.kind + b.kind, out[1]) for a, b, *_, out in ref_runs]
    seen = {a.kind + b.kind for a, b, *_ in runs}
    seen |= {a.kind + b.kind + ":" + out[1] for a, b, *_, out in runs}
    assert kinds <= seen
    sols = iter(sols)
    for (seg_a, seg_b, y0, _, (run, _, y_next, _)), ref_run in zip(runs, ref_runs):
        assert np.allclose(y0, ref_run[2], rtol=0.0, atol=1e-9)
        if run is None:
            continue
        sol, _ = next(sols)
        assert np.allclose(y_next, ref_run[4][2], rtol=0.0, atol=1e-9)
        ys = _sample_rows(seg_a, seg_b, run)
        k = int(np.argmax(np.abs(y_next - y0)))
        at = _dense_at(sol, k, ys[k])
        assert np.max(np.abs(at - ys)) <= 1e-9
        anchor = _anchor(data, seg_a, seg_b, y0[0], y0[1])
        t, _, _, r1, r2 = _parts(seg_a, seg_b, at[0], at[1], anchor)
        x = _position(seg_a, seg_a.eval(at[0])[0], r1, r2, t, anchor)
        assert np.max(np.abs(run["x"] - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))


@pytest.mark.parametrize("case, t_star, window", [
    ("readme", 0.018, (-4.0, 9.0)), ("readme", 0.05, (-2.0, 6.0)), (THREE, 0.01, (-3.0, 5.0)),
])
def test_march_x_matches_the_three_state_march(case, t_star, window, request, monkeypatch):
    # The march before X had a closed form carried X as a third state,
    # dX/dmu = (lambda2 - lambda1) t_sa t_sb / |grad t|, from the seed's X
    # through every run of a direction.  Each run's ODE stops where the foot
    # that moves most in the run ends it; each sample is read off the dense
    # output where that foot is the sample's.
    data = request.getfixturevalue("data") if case == "readme" else case
    runs = []
    monkeypatch.setattr(cauchy_general, "_march_run", _recorder(cauchy_general._march_run, runs))
    seed = seed_point(data, *find_seed(data, t_star))
    march_isochrone(data, seed, window)
    x_ref, last_direction, checked = seed.X, None, 0
    for seg_a, seg_b, y0, direction, (run, _, y_next, _) in runs:
        if direction != last_direction:
            x_ref, last_direction = seed.X, direction
        if run is None:
            continue
        k = int(np.argmax(np.abs(y_next - y0)))

        def end(mu, y):
            return y[k] - y_next[k]

        end.terminal = True
        rhs = _level_rhs(seg_a, seg_b, _anchor(data, seg_a, seg_b, y0[0], y0[1]), direction,
                         with_x=True)
        span = 10.0 * (1.0 + np.sum(np.abs(y_next - y0)))
        sol = solve_ivp(rhs, (0.0, span), [y0[0], y0[1], x_ref], dense_output=True,
                        events=end, **_ODE)
        assert sol.status == 1
        ref = _dense_at(sol, k, _sample_rows(seg_a, seg_b, run)[k])[2]
        assert np.max(np.abs(run["x"] - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
        x_ref, checked = sol.y[2, -1], checked + run["x"].size
    assert checked > 500


def test_march_drift_ignores_the_arclength_origin():
    # A foot's arclength s differs from its position x by the jumps on its
    # left, whatever the domain's left edge, so moving that edge far out
    # leaves the rounding of the feet, and so the drift, unchanged.
    drifts = [
        general_profile(
            PiecewiseInitialData((-1.0, 1.0), (5.0, 2.0, 5.0), (8.0, 10.0, 8.0), (left, 21.0)),
            0.03, (-2.0, 6.0),
        ).max_drift
        for left in (-21.0, -1001.0)
    ]
    assert drifts[1] <= 2.0 * drifts[0]


@pytest.mark.parametrize("factor", [3, 10, 30, 100, 1000])
def test_event_refinement_does_not_creep_on_a_steep_bracket_slope(factor):
    # _march_run refines an event root from its bracket's chord slope.
    # Held fixed, a slope that overstates F' creeps: on exp(3 v) - 2 over
    # [0, 1], 3 times the root's slope takes 81 steps, and 10 times or more
    # raises NoRootInInterval after 100.  The secant slope takes 9.
    F = lambda v: math.exp(3.0 * v) - 2.0
    slope = factor * 6.0
    fixed, secant = [], []
    try:
        bracketed_newton(lambda v: (fixed.append(v) or F(v), slope), 0.0, 1.0, F(0.0), F(1.0))
    except NoRootInInterval:
        pass
    r = _secant_root(lambda v: secant.append(v) or F(v), 0.0, 1.0, F(0.0), F(1.0), slope)
    assert r == pytest.approx(math.log(2.0) / 3.0, rel=0.0, abs=1e-15)
    assert len(secant) <= 10 < 80 <= len(fixed)


def test_dependence_cut_keeps_t_inside_it():
    # The seed scan's data: the window's domain of dependence, with the
    # breakpoints inside it and t(a, b) bitwise unchanged for feet in it.
    data = PiecewiseInitialData((-1.0, 1.0, 30.0), (5.0, 2.0, 5.0, 4.0),
                                (8.0, 10.0, 8.0, 9.0), (-10001.0, 41.0))
    cut = _dependence(data, 0.03, (-2.0, 6.0))
    assert data.domain[0] < cut.domain[0] < -2.0 and 6.0 < cut.domain[1] < 30.0
    assert cut.breakpoints == (-1.0, 1.0) and cut.r1_values == (5.0, 2.0, 5.0)
    a = np.linspace(cut.domain[0], 0.5, 7)
    _assert_bitwise(_t_feet(cut, a, cut.domain[1]), _t_feet(data, a, cut.domain[1]))
    with pytest.raises(DomainError):
        _dependence(data, 0.03, (100.0, 200.0))


def test_far_domain_edge_seeds_in_the_window():
    # The seed scan spans the window's domain of dependence only: a domain
    # reaching 10^4 left of the data gives the march of domain (-21, 21).
    near, far = (
        general_profile(
            PiecewiseInitialData((-1.0, 1.0), (5.0, 2.0, 5.0), (8.0, 10.0, 8.0), (left, 21.0)),
            0.03, (-2.0, 6.0),
        )
        for left in (-21.0, -10001.0)
    )
    assert far.status == near.status
    assert len(far.knots) == len(near.knots)
    assert np.max(np.abs(np.subtract(far.knots, near.knots))) <= 1e-12


def _x_mp(data, a, b):
    """X(a, b) at 50 digits with its conditioning scale.

    Sums dX = r1 r2^2 dt along the 2-characteristic from a: r1 (t(a, e1) -
    t(a, e0)) over each piece [e0, e1] of b' in [a, b], and on each jump
    int r1 dt = [3 alpha/(2e^2) + 2 beta/e + r2 (alpha/e^3 + beta/e^2)] in
    e = r1 - r2.  The scale sums the magnitudes of the terms of the formula
    under test, X = a + r2^2 (r1 t + sum [alpha/(2e^2) + beta/e]), which is
    what their rounding can cost.
    """
    bp = data.breakpoints
    ia = sum(e <= a for e in bp)
    with mpmath.workdps(50):
        mp = mpmath.mpf
        edges = [mp(e) for e in data._edges()]
        a_mp, b_mp, r2 = mp(a), mp(b), mp(data.r2_values[ia])
        F = G = mp(0)
        X, scale, k, start = a_mp, abs(a_mp), ia, a_mp
        while True:
            end = min(b_mp, edges[k + 1])
            r1, R2 = mp(data.r1_values[k]), mp(data.r2_values[k])
            width = end - start
            t0 = (2 * (start - a_mp) - (r1 + r2) * F + 2 * r1 * r2 * G) / (r1 - r2) ** 3
            F += (r1 + R2) / (r1 * R2) * width
            G += width / (r1 * R2)
            t1 = (2 * (end - a_mp) - (r1 + r2) * F + 2 * r1 * r2 * G) / (r1 - r2) ** 3
            X += r2 * r2 * r1 * (t1 - t0)
            if end == b_mp:
                break
            alpha = 2 * ((end - a_mp) - r2 * F + r2 * r2 * G)
            beta = 2 * r2 * G - F
            a_s = 2 * (abs(end - a_mp) + abs(r2 * F) + r2 * r2 * abs(G))
            b_s = 2 * abs(r2 * G) + abs(F)
            for sign, r in ((1, mp(data.r1_values[k + 1])), (-1, r1)):
                e = r - r2
                X += sign * r2 * r2 * (3 * alpha / (2 * e * e) + 2 * beta / e
                                       + r2 * (alpha / e ** 3 + beta / e ** 2))
                scale += r2 * r2 * (a_s / (2 * e * e) + b_s / abs(e))
            k, start = k + 1, end
        t_scale = _t_mp(data, a, b)[1]
        r1 = mp(data.r1_values[sum(e < b for e in bp)])
        scale += r2 * r2 * abs(r1) * t_scale + abs(X)
        return X, scale


@pytest.mark.parametrize("data", [d for d, _ in LAW] + [MANY])
def test_x_ab_matches_extended_precision(data):
    bp = np.asarray(data.breakpoints)
    feet = np.unique(np.concatenate(
        [_feet(data), np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)]
    ))
    eps = np.finfo(float).eps
    for i, a in enumerate(feet):
        for b in feet[i:]:
            x_mp, scale = _x_mp(data, a, b)
            err = abs(mpmath.mpf(seed_point(data, a, b).X) - x_mp)
            assert err <= 8 * eps * scale, (a, b)


def _reference_find_seed(data, t_star, resolution=128):
    """find_seed as a scalar scan: one t_ab call per sample."""
    lo, hi = data.domain
    edges = [lo, *data.breakpoints, hi]

    def brackets_along_b(av):
        hits = []
        for e0, e1 in zip(edges, edges[1:]):
            if e1 <= av:
                continue
            bb = np.linspace(max(e0, av) + 1e-12 * (hi - lo), e1, resolution)
            vals = np.array([_scalar_t(data, av, bv) - t_star for bv in bb])
            for k in range(len(bb) - 1):
                if np.isnan(vals[k]) or np.isnan(vals[k + 1]):
                    continue
                if vals[k] == 0.0:
                    hits.append((av, bb[k]))
                elif vals[k] * vals[k + 1] < 0:
                    slope = (vals[k + 1] - vals[k]) / (bb[k + 1] - bb[k])
                    hits.append((av, bracketed_newton(
                        lambda bv: (t_ab(data, av, bv) - t_star, slope),
                        bb[k], bb[k + 1], vals[k], vals[k + 1])))
        return hits

    fallback = None
    for av in np.linspace(lo, hi, resolution):
        for hit in brackets_along_b(av):
            if data.piece_of(av, side="right") != data.piece_of(hit[1], side="left"):
                return hit
            fallback = fallback or hit
    if fallback is None:
        raise NoRootInInterval("scan")
    return fallback


def _seed_or_error(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except NoRootInInterval:
        return "NoRootInInterval"


def _benchmark_shaped(mu1, mu2, q1, q2, x1, x2):
    """Two-plateau data whose domain reaches 2 plateau widths left of x1 and
    10 right of x2, as in the general_march benchmark, with its time T_int."""
    w = x2 - x1
    data = PiecewiseInitialData((x1, x2), (mu1, q1, mu1), (mu2, q2, mu2),
                                (x1 - 2.0 * w, x2 + 10.0 * w))
    return data, w / (q1 * q2 * (q2 - q1))


SEED_CASES = LAW + [(COINCIDENT, 0.01)] + [
    _benchmark_shaped(5.0, 8.0, 2.0, 10.0, -1.0, 1.0),
    _benchmark_shaped(2.37, 4.91, 1.12, 9.8, -1.3, 0.45),
    _benchmark_shaped(4.2, 4.6, 3.9, 13.1, 0.2, 2.9),
    # Relative gaps about 1e-3 between q1 < mu1 < mu2 < q2: t's numerator
    # cancels to a few digits, the rounding the scan's prefilter must allow.
    _benchmark_shaped(2.0, 2.002, 1.998, 2.004, -1.0, 1.0),
]


def _row_root_mp(data, t_star, a, b):
    """The 50-digit root of t(a, .) = t* on b's piece, with its scale.

    With a fixed and b in one piece t d^3 is affine in b with slope
    c = 2 - (r1 + r2) f + 2 r1 r2 g, so the root is b + (t* - t(a, b)) d^3 / c.
    The scale (2|b-a| + |(r1+r2) F| + 2|r1 r2 G| + |t* d^3|) / |c| is what
    the rounding of the closed-form root's terms can cost.
    """
    t_mp, t_scale = _t_mp(data, a, b)
    k, ia = data.piece_of(b, side="left"), data.piece_of(a)
    with mpmath.workdps(50):
        r1, r2, r2_k = (mpmath.mpf(v) for v in
                        (data.r1_values[k], data.r2_values[ia], data.r2_values[k]))
        c = 2 - (r1 + r2) * (r1 + r2_k) / (r1 * r2_k) + 2 * r1 * r2 / (r1 * r2_k)
        d3 = (r1 - r2) ** 3
        root = mpmath.mpf(b) + (mpmath.mpf(t_star) - t_mp) * d3 / c
        return root, abs(d3) * (t_scale + abs(mpmath.mpf(t_star))) / abs(c)


def _assert_seed_as_reference(data, t_star, resolution):
    """find_seed against the scalar scan: the same raise or no-raise, the same
    a and piece of b, and b within 4 eps of the 50-digit root, in its scale."""
    got = _seed_or_error(find_seed, data, t_star)
    ref = _seed_or_error(_reference_find_seed, data, t_star, resolution=resolution)
    assert isinstance(got, str) == isinstance(ref, str), (got, ref)
    if isinstance(ref, str):
        return
    a, b = got
    assert a == ref[0]
    assert data.piece_of(b, side="left") == data.piece_of(ref[1], side="left")
    root, scale = _row_root_mp(data, t_star, a, b)
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(b) - root) <= 4 * np.finfo(float).eps * scale, (a, b)


@pytest.mark.parametrize("data, t_int", SEED_CASES)
def test_find_seed_matches_scalar_reference(data, t_int, monkeypatch):
    monkeypatch.setattr(cauchy_general, "_SCAN_RESOLUTION", 32)
    for t_star in (1.4 * t_int, 100.0 * t_int):
        _assert_seed_as_reference(data, t_star, 32)
    # t* equal to a sample of the reference's first row of a, on the piece
    # right of the first breakpoint: the scan hits that sample exactly and
    # it is the first cross-piece root.
    edges = data._edges()
    lo, hi = data.domain
    b_hit = np.linspace(edges[1] + cauchy_general._EDGE * (hi - lo), edges[2], 32)[9]
    t_hit = _scalar_t(data, lo, b_hit)
    if not np.isnan(t_hit):  # COINCIDENT has no such row
        assert _reference_find_seed(data, t_hit, resolution=32) == (lo, b_hit)
        _assert_seed_as_reference(data, t_hit, 32)


def test_find_seed_matches_scalar_reference_at_full_resolution(data):
    _assert_seed_as_reference(data, 0.018, 128)


#: Narrow gaps where the scan's bracket refinement ran out of steps.
NARROW = PiecewiseInitialData((-1.4762,), (2.58732, 1.25465), (2.58800, 1.25575),
                              (-10.954, 2.444))


def test_find_seed_solves_no_root_iteratively(monkeypatch):
    # Each row's root is closed-form, so no bracket refinement can fail:
    # on NARROW bracketed_newton raised NoRootInInterval after 100 steps.
    def refuse(*args):
        raise AssertionError("find_seed called bracketed_newton")

    monkeypatch.setattr(cauchy_general, "bracketed_newton", refuse)
    for data, t_int in SEED_CASES:
        for t_star in (1.4 * t_int, 100.0 * t_int):
            _seed_or_error(find_seed, data, t_star)
    a, b = find_seed(NARROW, 42.055)
    assert a == -10.954
    assert b == pytest.approx(-10.7625122624, abs=1e-10)
    root, scale = _row_root_mp(NARROW, 42.055, a, b)
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(b) - root) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("data", [LAW[0][0], LAW[1][0], COINCIDENT])
def test_level_map_matches_scalar_loop(data):
    lo, hi = data.domain
    rect = (lo - 0.5, hi, lo, hi + 0.5)
    a, b, T = _level_map(data, rect, resolution=41)
    ref = np.full((41, 41), np.nan)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            if bv > av:
                ref[i, j] = _scalar_t(data, av, bv)
    assert np.isnan(ref).any() and np.isfinite(ref).any()
    _assert_bitwise(T, ref)


# -- march post-pass against the per-sample loop ----------------------------


def test_march_post_pass_matches_per_sample_loop(data, monkeypatch):
    calls = []
    sample_run = cauchy_general._sample_run

    def spy(seg_a, seg_b, ys, t_star, anchor):
        run = sample_run(seg_a, seg_b, ys, t_star, anchor)
        calls.append((seg_a, seg_b, ys, t_star, anchor, run))
        return run

    monkeypatch.setattr(cauchy_general, "_sample_run", spy)
    res = general_profile(data, 0.018, (-4.0, 9.0))
    kinds = set()
    max_drift = 0.0
    for seg_a, seg_b, ys, t_star, anchor, run in calls:
        kinds.add(seg_a.kind + seg_b.kind)
        drift = 0.0
        ref = {"x": [], "R1": [], "R2": [], "a": [], "b": []}
        for i in range(ys.shape[1]):
            t, _, _, r1, r2 = _parts(seg_a, seg_b, ys[0, i], ys[1, i], anchor)
            drift = max(drift, abs(t - t_star))
            ref["x"].append(_position(seg_a, seg_a.eval(ys[0, i])[0], r1, r2, t, anchor))
            ref["R1"].append(r1)
            ref["R2"].append(r2)
            ref["a"].append(seg_a.eval(ys[0, i])[0])
            ref["b"].append(seg_b.eval(ys[1, i])[0])
        for name, values in ref.items():
            assert run[name].tobytes() == np.array(values, dtype=float).tobytes()
        assert run["drift"] == drift
        max_drift = max(max_drift, drift)
    assert {"hh", "hv", "vh", "vv"} <= kinds
    assert res.max_drift == max_drift


def test_march_post_pass_keeps_its_checks(data):
    ga, gb = data.graphs
    seg_a, seg_b = ga.segments[0], gb.segments[2]  # r2 = 8 left of x1, r1 = 2 inside
    s_a = np.linspace(seg_a.s0 + 1.0, seg_a.s0 + 2.0, 9)
    s_b = np.linspace(seg_b.s0 + 0.2, seg_b.s0 + 0.4, 9)
    feet = list(zip(seg_a.x0 + s_a - seg_a.s0, seg_b.x0 + s_b - seg_b.s0))
    anchor = (*feet[0], *map(float, data._integrals(*feet[0])[2:]))
    ys = np.vstack([s_a, s_b, np.zeros(9)])
    # The feet move off the level line of their first point.
    with pytest.raises(LevelDrift):
        cauchy_general._sample_run(seg_a, seg_b, ys, t_ab(data, *feet[0]), anchor)
    fa, fb = COINCIDENT.graphs
    with pytest.raises(CoincidentInvariants):
        cauchy_general._sample_run(fa.segments[0], fb.segments[-1], ys, 0.01, anchor)
