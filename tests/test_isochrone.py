import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from zesolver import MixtureParams, rh_residual, wavefield
from zesolver.errors import (
    DomainError,
    DomainMismatch,
    NoRootInInterval,
    UnexpectedOrdering,
)
from zesolver.invariants import InvariantPair, lambda_k
from zesolver.isochrone import ScenarioSolver, csv_rows, profile_at


def test_z5_degenerate_at_interaction_time(solver):
    seg = solver.z5_profile(solver.timeline.times["T_int"])
    assert seg.x.size == 1
    assert seg.x[0] == pytest.approx(1.5, abs=1e-12)
    assert seg.R1[0] == pytest.approx(2.0, abs=1e-12)
    assert seg.R2[0] == pytest.approx(10.0, abs=1e-9)


def test_z5_collapses_at_separation_point(solver):
    # The zone shrinks to the separation point, cross-checking the position
    # surface at (mu1, mu2) against the boundary-curve route.
    seg = solver.z5_profile(solver.timeline.times["T_fin"])
    assert seg.x.size == 1
    assert seg.x[0] == pytest.approx(31.0, rel=1e-10)


#: Largest level residual |t - t*| / t* and x residual |x(R) - x| / max(1, |x|)
#: of a Z5 sample: the inverse is exact up to the rounding of t and x.
Z5_RESIDUAL = 1e-13
#: The rounding of t and x themselves: their (R1 - R2)^3 denominators divide
#: numerators that cancel from size R^3, so even the float state nearest the
#: solution leaves residuals of about eps / g^3, g = (R2 - R1) / R2.  Near
#: the cone's narrow gaps 19 of the 503 Z5 segments below exceed Z5_RESIDUAL
#: (up to 5e-12, 0.63 of this bound); further Newton steps do not lower them.
Z5_ROUNDING = 128 * np.finfo(float).eps


def _z5_residuals(solver, seg, t_star):
    """Per-sample (level, x) residuals of a Z5 segment, relative as above."""
    h = solver.hodograph
    t_res = np.abs(h.t(seg.R1, seg.R2) - t_star) / t_star
    x_res = np.abs(h.x(seg.R1, seg.R2) - seg.x) / np.maximum(1.0, np.abs(seg.x))
    return t_res, x_res


def test_z5_profile_satisfies_implicit_solution(solver):
    for t_star in (0.014, 0.018, 0.022):
        seg = solver.z5_profile(t_star, n=80)
        t_res, x_res = _z5_residuals(solver, seg, t_star)
        assert t_res.max() <= Z5_RESIDUAL
        assert x_res.max() <= Z5_RESIDUAL
        # Boundary values: (q1, .) at phi and (., q2) at theta.
        assert seg.R1[0] == solver.params.q1
        assert seg.R2[-1] == solver.params.q2
        # Monotone invariants along the isochrone.
        assert np.all(np.diff(seg.R1) > 0)
        assert np.all(np.diff(seg.R2) > 0)


def test_z5_profile_after_both_fan_deaths(solver):
    # Between T_6 and T_fin both Z5 ends ride the parametric boundaries.
    t_star = 0.05
    seg = solver.z5_profile(t_star, n=50)
    assert seg.R2[0] == solver.params.mu2
    assert seg.R1[-1] == solver.params.mu1
    assert max(r.max() for r in _z5_residuals(solver, seg, t_star)) <= Z5_RESIDUAL


#: The README instance (T_3 < T_6) and three drawn from acceptance 9's law,
#: T_6 < T_3 in the first two and T_3 < T_6 in the third.
LEVEL_LINE_INSTANCES = [
    MixtureParams(mu1=5.0, mu2=8.0, q1=2.0, q2=10.0, x1=-1.0, x2=1.0),
    MixtureParams(mu1=2.818, mu2=5.055, q1=1.129, q2=10.151, x1=-1.443, x2=0.466),
    MixtureParams(mu1=5.326, mu2=9.024, q1=0.791, q2=18.231, x1=-0.123, x2=0.712),
    MixtureParams(mu1=3.784, mu2=5.978, q1=0.789, q2=7.984, x1=-1.978, x2=0.766),
]


@pytest.mark.parametrize("p", LEVEL_LINE_INSTANCES, ids=["readme", "cone_a", "cone_b", "cone_c"])
def test_z5_profile_matches_the_level_line_ode(p):
    # The paper's method: on t(R1, R2) = t* the inverse map satisfies
    #     dR1/dx = -t_R2 / Delta,  dR2/dx = t_R1 / Delta,
    #     Delta = (lambda1 - lambda2) t_R1 t_R2,
    # integrated here from phi(t*) with the left edge state to theta(t*).
    solver = ScenarioSolver(p)
    h = solver.hodograph
    T = solver.timeline.times
    first, last = sorted((T["T_3"], T["T_6"]))

    def rhs(x, y):
        t_r1, t_r2 = h.t_partials(*y)
        delta = (lambda_k(1, *y) - lambda_k(2, *y)) * t_r1 * t_r2
        return (-t_r2 / delta, t_r1 / delta)

    for t_star in (0.5 * (T["T_int"] + first), 0.5 * (first + last),
                   0.5 * (last + T["T_fin"])):
        seg = solver.z5_profile(t_star, n=200)
        ode = solve_ivp(rhs, (seg.x[0], seg.x[-1]), [seg.R1[0], seg.R2[0]],
                        method="RK45", rtol=1e-10, atol=1e-12, dense_output=True)
        assert ode.success
        R1, R2 = ode.sol(seg.x)
        # The ODE's own error at rtol 1e-10 is a few 1e-10.
        assert np.max(np.abs(R1 - seg.R1) / seg.R1) <= 1e-8
        assert np.max(np.abs(R2 - seg.R2) / seg.R2) <= 1e-8


def test_rho_star_examples(solver):
    assert solver.rho_star(1 / 45) == pytest.approx(2.0, abs=1e-12)
    assert solver.rho_star(2 / 15) == pytest.approx(5.0, abs=1e-12)
    mid = 0.06
    rho = solver.rho_star(mid)
    assert abs(solver.hodograph.t(rho, 8.0) - mid) < 1e-12
    with pytest.raises(NoRootInInterval):
        solver.rho_star(1.0)


def test_sigma_star_examples(solver):
    assert solver.sigma_star(0.032) == pytest.approx(10.0, abs=1e-12)
    assert solver.sigma_star(2 / 15) == pytest.approx(8.0, abs=1e-12)


#: Relative gap between consecutive values of q1 < mu1 < mu2 < q2.  Near
#: its R1 = R2 pole the closed form t carries a relative rounding error of
#: about eps / gap^2 (+-2e-12 between neighbouring floats at gap 1e-2), so
#: below gaps of a few 1e-2 no float root, exact or not, meets the bound.
_GAP = st.floats(0.05, 5.0)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(q1=st.floats(0.05, 10.0), a=_GAP, b=_GAP, c=_GAP,
       x1=st.floats(-3.0, 0.0), width=st.floats(1e-2, 10.0), u=st.floats(0.0, 1.0))
def test_boundary_roots_solve_the_level_on_the_cone(q1, a, b, c, x1, width, u):
    mu1 = q1 * (1 + a)
    mu2 = mu1 * (1 + b)
    q2 = mu2 * (1 + c)
    p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=x1, x2=x1 + width)
    try:
        solver = ScenarioSolver(p)
    except UnexpectedOrdering:
        assume(False)
    T = solver.timeline.times
    roots = (solver.rho_star, solver.sigma_star)
    z5_times = [T["T_int"] + u * (min(T["T_3"], T["T_6"]) - T["T_int"])]
    for side, root in zip(solver.timeline.sides.values(), roots):
        t0 = T[side.death]
        # t0 + (T_fin - t0) can round past T_fin, where Z5 no longer exists.
        z5_times.append(min(t0 + u * (T["T_fin"] - t0), T["T_fin"]))
        for t in (t0, t0 + u * (T["T_fin"] - t0), T["T_fin"]):
            rho = root(t)
            residual = abs(solver.hodograph.t(*side.pair(rho)) - t)
            assert residual <= 1e-12 * max(1.0, t), (p, side.k, t)
    # Z5 read from the implicit solution: monotone, on the level line, and
    # pinned to the edge states.
    for t in z5_times:
        seg = solver.z5_profile(t, n=64)
        if seg.x.size == 1:
            continue
        assert np.all(np.diff(seg.R1) >= 0) and np.all(np.diff(seg.R2) >= 0), (p, t)
        g = (seg.R2 - seg.R1) / seg.R2
        bound = np.maximum(Z5_RESIDUAL, Z5_ROUNDING / g**3)
        for res in _z5_residuals(solver, seg, t):
            assert np.all(res <= bound), (p, t)
        # Each end is bitwise its curve in the zone layout, evaluated afresh:
        # its position and its state on Z5's side.
        z5 = next(iv for iv in solver.timeline.zones_at(t) if iv.zone == "Z5")
        left, right = (solver.timeline.curves[cid] for cid in (z5.left_curve, z5.right_curve))
        assert (seg.x[0], seg.R1[0], seg.R2[0]) == (left.x(t), *left.right_state(t))
        assert (seg.x[-1], seg.R1[-1], seg.R2[-1]) == (right.x(t), *right.left_state(t))


def test_z9_profile_boundaries(solver):
    t_star = 0.028
    seg = solver.z9_profile(t_star, n=40)
    tl = solver.timeline
    assert seg.x[0] == pytest.approx(tl.curves["xw1"].x(t_star), rel=1e-12)
    assert seg.x[-1] == pytest.approx(solver.phi(t_star), rel=1e-10)
    assert seg.R1[0] == pytest.approx(solver.params.q1)
    assert np.all(seg.R2 == solver.params.mu2)
    assert np.all(np.diff(seg.x) > 0)


def test_z9_transport_residual(solver):
    # Each sample (x, rho) satisfies x = x(rho, mu2) + lambda1 (t* - t(rho, mu2)).
    h = solver.hodograph
    for t_star in (0.028, 0.05, 0.1, 0.25):
        seg = solver.z9_profile(t_star, n=30)
        for xx, rho in zip(seg.x, seg.R1):
            tau = h.t(rho, 8.0)
            back = h.x(rho, 8.0) + rho * rho * 8.0 * (t_star - tau)
            assert back == pytest.approx(xx, abs=1e-6)


def test_z10_profile_boundaries(solver):
    t_star = 0.05
    seg = solver.z10_profile(t_star, n=40)
    tl = solver.timeline
    assert seg.x[0] == pytest.approx(solver.theta(t_star), rel=1e-10)
    assert seg.x[-1] == pytest.approx(tl.curves["xw2"].x(t_star), rel=1e-12)
    assert np.all(seg.R1 == solver.params.mu1)
    assert seg.R2[-1] == pytest.approx(solver.params.q2)


def test_shock_boundary_initial_speed(solver):
    st = solver.shock_boundary(1, 0.06)
    T9 = solver.timeline.times["T_9"]
    h = 1e-7
    slope = (st.x(T9 + h) - st.x(T9)) / h
    assert slope == pytest.approx(80.0, rel=1e-5)
    assert st.rho_of_t(T9) == pytest.approx(2.0, abs=1e-12)


def test_shock_boundary_rankine_hugoniot(solver):
    p = solver.params
    st = solver.shock_boundary(1, 0.3)
    for t in np.linspace(st.t_start * 1.0001, 0.3, 60):
        rho = st.rho_of_t(t)
        D = p.mu1 * p.mu2 * rho
        res = rh_residual(p, D, InvariantPair(p.mu1, p.mu2), InvariantPair(rho, p.mu2))
        assert max(abs(res[0]), abs(res[1])) < 1e-12
        # Lax admissibility of the 1-shock.
        assert lambda_k(1, p.mu1, p.mu2) > D > lambda_k(1, rho, p.mu2)


def test_shock_boundary_mirror_side(solver):
    p = solver.params
    st = solver.shock_boundary(2, 0.3)
    T10 = solver.timeline.times["T_10"]
    assert st.rho_of_t(T10) == pytest.approx(p.q2, abs=1e-12)
    assert st.x(T10) == pytest.approx(33.0, rel=1e-12)
    for t in np.linspace(T10 * 1.0001, 0.3, 40):
        rho = st.rho_of_t(t)
        D = p.mu1 * p.mu2 * rho
        res = rh_residual(p, D, InvariantPair(p.mu1, rho), InvariantPair(p.mu1, p.mu2))
        assert max(abs(res[0]), abs(res[1])) < 1e-12
        assert lambda_k(2, p.mu1, rho) > D > lambda_k(2, p.mu1, p.mu2)


@pytest.mark.parametrize("side", [0, 3])
def test_invalid_side_raises(solver, side):
    with pytest.raises(ValueError):
        solver.transport_x(side, 4.0, 0.05)
    with pytest.raises(ValueError):
        solver.shock_boundary(side, 0.1)


def test_shock_boundary_constraint_drift(solver):
    # The closed-form position (the transport constraint) against the shock
    # path integrated from its event at the Rankine-Hugoniot speed.
    p = solver.params
    for side in solver.timeline.sides.values():
        st = solver.shock_boundary(side.k, 0.3)
        X0 = solver.timeline.event_by_label[side.shock_event].X
        speed = lambda t: p.mu1 * p.mu2 * st.rho_of_t(t)
        for t in np.linspace(st.t_start * 1.001, 0.3, 30):
            moved, _ = quad(speed, st.t_start, t, epsabs=0.0, epsrel=1e-13, limit=200)
            assert abs(st.x(t) - (X0 + moved)) < 1e-12 * max(1.0, abs(st.x(t)))


def test_shock_invariant_approaches_pure_state(solver):
    # Far past separation the shock-side value crawls to mu1 (never exits).
    rho = solver.shock_boundary(1, 5000.0).rho_of_t(5000.0)
    assert rho > solver.params.mu1 - 0.01
    assert rho <= solver.params.mu1


def test_profile_staircase_before_interaction(solver):
    prof = solver.profile_at(0.01, n=512)
    values = {}
    for zone, sl in prof.zone_runs():
        values[zone] = (prof.u1[sl], prof.u2[sl])
    for zone, (v1, v2) in {
        "Z1": (0.0, 0.0),
        "Z2": (1.5, 0.0),
        "Z4": (2.0, -1.0),
        "Z7": (0.0, -0.2),
        "Z8": (0.0, 0.0),
    }.items():
        assert values[zone][0] == pytest.approx(v1, abs=1e-12), zone
        assert values[zone][1] == pytest.approx(v2, abs=1e-12), zone
    # Fans connect the plateaus continuously.
    x = prof.x
    assert np.all(np.diff(x) >= 0)


def test_profile_after_separation(solver):
    prof = solver.profile_at(0.25, n=1024)
    zones = [z for z, _ in prof.zone_runs()]
    assert zones == ["Z1", "Z9", "Z11", "Z10", "Z8"]
    for zone, sl in prof.zone_runs():
        if zone == "Z11":
            assert np.allclose(prof.u1[sl], 0.0, atol=1e-12)
            assert np.allclose(prof.u2[sl], 0.0, atol=1e-12)
        if zone == "Z9":
            assert np.all(prof.u2[sl] == 0.0)
            assert prof.u1[sl].max() > 0.3
        if zone == "Z10":
            assert np.all(prof.u1[sl] == 0.0)
            assert prof.u2[sl].min() < -0.1


def test_mass_conservation(solver):
    for t_star in (0.005, 0.018, 0.05, 0.25):
        m1, m2 = solver.profile_at(t_star, n=4096).mass()
        assert m1 == pytest.approx(4.0, abs=1e-4)
        assert m2 == pytest.approx(-2.0, abs=1e-4)


def test_profile_time_validation(solver):
    with pytest.raises(DomainError):
        solver.profile_at(0.0)


def test_profile_interp_domain_guard(solver):
    prof = solver.profile_at(0.01, n=128)
    with pytest.raises(DomainMismatch):
        prof.interp(prof.x[-1] + 10.0)


def test_profile_at_accepts_params(params):
    prof = profile_at(params, 0.01, n=128)
    assert prof.t_star == 0.01
    assert len(prof.x) > 100


def test_profile_csv_rows(solver):
    rows = list(solver.profile_at(0.01, n=64).csv_rows())
    assert rows[0] == "x,R1,R2,u1,u2,zone"
    fields = rows[1].split(",")
    assert len(fields) == 6
    float(fields[0])


_NAN_PAYLOAD = np.array(0x7FF8000000000001).view(float)  # NaN, other bits than np.nan


def test_csv_rows_match_per_row_reference():
    for cols in (
        (np.array([0.1, -0.0, 1e-300, np.nan]), np.array([np.inf, 2.0, 1 / 3, -5e20])),
        # runs of equal values, 0.0 beside -0.0, NaNs with different bits, infs
        (np.array([2.5, 2.5, 0.0, -0.0, -0.0, 0.0, np.nan, np.nan]),
         np.array([np.nan, _NAN_PAYLOAD, _NAN_PAYLOAD, np.inf, np.inf, -np.inf, 7.0, 7.0])),
        (np.array([]), np.array([])),
    ):
        labels = ["Z1", "Z1", "Z5", "fv", "Z9", "Z9", "Z10", "Z10"][:len(cols[0])]
        numbers = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in cols))]
        assert list(csv_rows("a,b", cols)) == ["a,b", *numbers]
        assert list(csv_rows("a,b,zone", cols, labels)) == [
            "a,b,zone", *(f"{row},{z}" for row, z in zip(numbers, labels))
        ]


def test_profile_solves_each_boundary_root_once(solver, monkeypatch):
    # The zone layout solves the root of each parametric or shock boundary
    # alive at t* (phi after T_3, theta after T_6, both until T_fin; Phi
    # after T_9, Theta after T_10) and the samplers reuse it.
    calls = []
    solve = wavefield.bracketed_newton
    monkeypatch.setattr(
        wavefield, "bracketed_newton", lambda *args: calls.append(args) or solve(*args)
    )
    for t, roots in ((0.03, 1), (0.05, 3), (0.1, 4), (0.3, 2)):
        calls.clear()
        solver.profile_at(t, n=1024)
        assert len(calls) == roots, t
