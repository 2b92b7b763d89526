import json
import math

import numpy as np
import pytest

from zesolver import MixtureParams, build_timeline, rh_residual, wavefield
from zesolver.errors import DomainError, UnexpectedOrdering
from zesolver.hodograph import ImplicitSolution
from zesolver.invariants import InvariantPair, lambda_k
from zesolver.wavefield import ROOT_MAX_ITER, ROOT_RTOL, TILING_ATOL, bracketed_newton


@pytest.fixture(scope="module")
def timeline(params):
    return build_timeline(params)


def test_initial_breakup_lines(timeline):
    curves = timeline.curves
    t = 0.01
    assert curves["xl1"].x(t) == pytest.approx(1 + 40 * t)
    assert curves["xr1"].x(t) == pytest.approx(1 + 250 * t)
    assert curves["xl2"].x(t) == pytest.approx(-1 + 128 * t)
    assert curves["xr2"].x(t) == pytest.approx(-1 + 200 * t)
    assert curves["xs1"].x(t) == pytest.approx(-1 + 80 * t)
    assert curves["xs2"].x(t) == pytest.approx(1 + 400 * t)


def test_interaction_point(timeline):
    ev = timeline.event_by_label["T_int"]
    assert ev.T == pytest.approx(0.0125, abs=1e-15)
    assert ev.X == pytest.approx(1.5, abs=1e-14)
    wide = MixtureParams(mu1=5, mu2=8, q1=2, q2=10, x1=-2, x2=2)
    assert build_timeline(wide).event_by_label["T_int"].T == pytest.approx(2 * ev.T, rel=1e-14)


def test_weak_curves_anchor_at_interaction_point(timeline):
    ev = timeline.event_by_label["T_int"]
    assert timeline.curves["phi_early"].x(ev.T) == pytest.approx(ev.X, abs=1e-12)
    assert timeline.curves["theta_early"].x(ev.T) == pytest.approx(ev.X, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_weak_curve_hits_fan_death_point(timeline, k):
    side = timeline.side(k)
    death = timeline.event_by_label[side.death]
    assert timeline.curves[side.early].x(death.T) == pytest.approx(death.X, rel=1e-12)


def test_weak_curve_initial_slope(params, timeline):
    phi = timeline.curves["phi_early"]
    ev = timeline.event_by_label["T_int"]
    h = 1e-8
    slope = (phi.x(ev.T + h) - phi.x(ev.T)) / h
    assert slope == pytest.approx(lambda_k(1, params.q1, params.q2), rel=1e-3)


@pytest.mark.parametrize("k", [1, 2])
def test_weak_curves_undefined_before_interaction(timeline, k):
    early = timeline.curves[timeline.side(k).early]
    with pytest.raises(DomainError):
        early.x(0.5 * timeline.event_by_label["T_int"].T)


def test_zone_death_events(timeline):
    e3, e6 = timeline.event_by_label["T_3"], timeline.event_by_label["T_6"]
    assert e3.T == pytest.approx(1 / 45, rel=1e-14)
    assert e3.X == pytest.approx(-1 + 128 / 45, rel=1e-14)
    assert e6.T == pytest.approx(0.032, rel=1e-14)
    assert e6.X == pytest.approx(9.0, rel=1e-14)


def test_zone_death_degenerate_plateau_limit():
    # q -> mu collapses the fans; the death times approach T_int.
    T = build_timeline(MixtureParams(mu1=5, mu2=8, q1=5 - 1e-7, q2=8 + 1e-7, x1=-1, x2=1)).times
    assert T["T_3"] == pytest.approx(T["T_int"], rel=1e-6)
    assert T["T_6"] == pytest.approx(T["T_int"], rel=1e-6)


@pytest.mark.parametrize(
    "k, t, speed", [(1, 0.03, 32.0), (2, 0.05, 500.0)], ids=["1", "2"]
)
def test_post_interaction_curves(timeline, k, t, speed):
    # x_w1 moves at lambda1(q1, mu2) = 32, x_w2 at lambda2(mu1, q2) = 500;
    # phi runs from the Z3 death point to the separation point, theta from
    # the Z6 death point.
    side = timeline.side(k)
    death = timeline.event_by_label[side.death]
    curve = timeline.curves[side.curve]
    assert timeline.curves[f"xw{k}"].x(t) == pytest.approx(
        death.X + speed * (t - death.T), rel=1e-13
    )
    x, tt = curve.param_point(side.start)
    assert (x, tt) == (pytest.approx(death.X, rel=1e-13), pytest.approx(death.T, rel=1e-13))
    x, tt = curve.param_point(side.far)
    assert x == pytest.approx(31.0, rel=1e-12)
    assert tt == pytest.approx(2 / 15, rel=1e-12)


def test_shock_weak_events(timeline):
    e9, e10 = timeline.event_by_label["T_9"], timeline.event_by_label["T_10"]
    assert e9.T == pytest.approx(2 / 45, rel=1e-14)
    assert e10.T == pytest.approx(0.08, rel=1e-14)
    curves = timeline.curves
    assert curves["xs1"].x(e9.T) == pytest.approx(curves["xw1"].x(e9.T), abs=1e-10)
    assert curves["xs2"].x(e10.T) == pytest.approx(curves["xw2"].x(e10.T), abs=1e-10)


def test_final_event(params, timeline):
    ev = timeline.event_by_label["T_fin"]
    xf1, xf2 = timeline.curves["xf1"], timeline.curves["xf2"]
    assert ev.T == pytest.approx(2 / 15, rel=1e-14)
    assert ev.T == pytest.approx(
        timeline.event_by_label["T_int"].T
        * ((5 + 8) * (2 + 10) - 2 * (40 + 20)) * (2 - 10) / (5 - 8) ** 3,
        rel=1e-14,
    )
    # The separated zone carries the pure state (mu1, mu2): zero concentrations.
    from zesolver.invariants import concentrations_from_invariants

    u1, u2 = concentrations_from_invariants(params, params.mu1, params.mu2)
    assert u1 == 0.0 and u2 == 0.0
    dt = 0.01
    assert xf1.x(ev.T + dt) == pytest.approx(ev.X + 200 * dt, rel=1e-13)
    assert xf2.x(ev.T + dt) == pytest.approx(ev.X + 320 * dt, rel=1e-13)


def test_timeline_event_order(params):
    tl = build_timeline(params)
    labels = [e.label for e in tl.events]
    assert labels == ["T_int", "T_3", "T_6", "T_9", "T_10", "T_fin"]
    times = [e.T for e in tl.events]
    assert times == sorted(times)


def test_timeline_symmetric_parameters():
    p = MixtureParams(mu1=5, mu2=7, q1=3, q2=9, x1=-1, x2=1)
    tl = build_timeline(p)
    T = tl.times
    assert T["T_3"] == pytest.approx(T["T_6"], rel=1e-13)
    assert T["T_9"] == pytest.approx(T["T_10"], rel=1e-13)


def test_timeline_perturbed_parameters_same_topology(params):
    p = MixtureParams(mu1=5, mu2=8, q1=2.1, q2=10, x1=-1, x2=1)
    tl = build_timeline(p)
    assert [e.label for e in tl.events] == ["T_int", "T_3", "T_6", "T_9", "T_10", "T_fin"]


def test_zone_layout_tiles_before_shock_merge(solver):
    tl = solver.timeline
    for t in (0.004, 0.011, 0.02, 0.03, 0.04):
        chain = tl.zones_at(t)
        assert chain[0].zone == "Z1" and chain[-1].zone == "Z8"
        xs = [z.x_right for z in chain[:-1]]
        assert all(b >= a for a, b in zip(xs, xs[1:]))


def test_zone_layout_requires_shock_positions_late(solver):
    # Past T_9 / T_10 the layout reads the curved shocks from the timeline.
    tl = solver.timeline
    for t, outer in ((0.05, ("Phi", "xs2")), (0.3, ("Phi", "Theta"))):
        chain = tl.zones_at(t)
        assert (chain[0].right_curve, chain[-1].left_curve) == outer
        assert chain[0].x_right == tl.curves[outer[0]].x(t)
        assert chain[-1].x_left == tl.curves[outer[1]].x(t)


def test_zone_layout_moves_a_rounded_edge_onto_its_neighbour(solver, monkeypatch):
    # At T_6 the fan Z6 dies: xr1 rounds left of theta_early and takes its
    # x, so Z6 is a point zone.  The tolerance scales with |x| (x6 is 9),
    # on either side; an edge further left is out of order, and one
    # further right keeps its own x.
    tl = solver.timeline
    t, xr1 = tl.times["T_6"], tl.curves["xr1"]
    x6 = tl.curves["theta_early"].x(t)
    assert xr1.x(t) < x6
    z6 = lambda: next(iv for iv in tl.zones_at(t) if iv.zone == "Z6")
    for shift in (None, -0.5, 0.5):
        if shift is not None:
            monkeypatch.setattr(xr1, "x", lambda t: x6 + shift * TILING_ATOL * x6)
        assert z6().x_left == z6().x_right == x6, shift
    monkeypatch.setattr(xr1, "x", lambda t: x6 + 2.0 * TILING_ATOL * x6)
    assert (z6().x_left, z6().x_right) == (x6, x6 + 2.0 * TILING_ATOL * x6)
    monkeypatch.setattr(xr1, "x", lambda t: x6 - 2.0 * TILING_ATOL * x6)
    with pytest.raises(UnexpectedOrdering, match="out of order at xr1"):
        tl.zones_at(t)


def test_rh_and_lax_along_straight_shocks(params, timeline):
    curves = timeline.curves
    for cid, D, k in (("xs1", 80.0, 1), ("xs2", 400.0, 2)):
        c = curves[cid]
        for t in np.linspace(1e-4, c.t_end * 0.999, 100):
            left = InvariantPair(*c.left_state(t))
            right = InvariantPair(*c.right_state(t))
            res = rh_residual(params, D, left, right)
            assert abs(res[0]) < 1e-10 and abs(res[1]) < 1e-10
            lam_l = lambda_k(k, left.R1, left.R2)
            lam_r = lambda_k(k, right.R1, right.R2)
            assert lam_l > D > lam_r


def test_weak_curves_are_characteristics(timeline):
    phi, theta = timeline.curves["phi_early"], timeline.curves["theta_early"]
    h = 1e-6
    for curve in (phi, theta):
        for t in np.linspace(curve.t_start * 1.01, curve.t_end * 0.99, 25):
            slope = (curve.x(t + h) - curve.x(t - h)) / (2 * h)
            state = curve.left_state(t)
            lam = lambda_k(int(curve.kind.removeprefix("weak-")), *state)
            assert slope == pytest.approx(lam, rel=1e-8)
    for side in timeline.sides.values():
        c = timeline.curves[side.curve]
        dr = 1e-5 * (side.hi - side.lo)
        for rho in np.linspace(side.lo + 2 * dr, side.hi - 2 * dr, 25):
            x_p, t_p = c.param_point(rho + dr)
            x_m, t_m = c.param_point(rho - dr)
            slope = (x_p - x_m) / (t_p - t_m)
            x0, t0 = c.param_point(rho)
            lam = lambda_k(int(c.kind.removeprefix("weak-")), *c.left_state(t0))
            assert slope == pytest.approx(lam, rel=1e-8)


def test_continuity_across_weak_boundaries(solver):
    # Invariants agree on both sides of every weak curve; shocks jump by
    # the catalogued states.
    tl = solver.timeline
    for t in (0.005, 0.018, 0.028, 0.04):
        for iv in tl.zones_at(t)[:-1]:
            curve = tl.curves[iv.right_curve]
            ls = curve.left_state(t)
            rs = curve.right_state(t)
            if curve.kind.startswith("weak"):
                assert ls == pytest.approx(rs, abs=1e-8)
            else:
                assert ls != rs


def test_timeline_export_roundtrip(params):
    tl = build_timeline(params)
    lines = tl.report_lines()
    assert sum(1 for ln in lines if ln.startswith("EVENT")) == 6
    assert sum(1 for ln in lines if ln.startswith("ZONE")) == 11
    blob = json.dumps(tl.to_dict())
    back = json.loads(blob)
    assert [e["label"] for e in back["events"]] == [e.label for e in tl.events]
    assert back["events"][0]["T"] == tl.events[0].T


def test_zone_descriptors(params, timeline):
    # Plateaus have both invariants; a fan leaves its self-similar one unset.
    assert None not in timeline.plateaus["Z2"]
    assert timeline.plateaus["Z2"][0] == params.q1
    assert timeline.plateaus["Z3"] == (params.q1, None)
    assert timeline.plateaus["Z6"] == (None, params.q2)
    # Z5 and the transport zones are sampled from the hodograph, not the table.
    assert "Z5" not in timeline.plateaus
    assert timeline.side(1).zone == "Z9" and timeline.side(1).fixed == params.mu2


@pytest.mark.parametrize("noise", [1e-12, 1e-9, 1e-6])
def test_bracketed_newton_ends_inside_its_bracket_under_rounding_noise(noise):
    # Noise far above ROOT_RTOL keeps Newton's steps large near the root, as
    # rounding does near the R1 = R2 pole; the shrinking bracket ends the solve.
    rng = np.random.default_rng(3)
    root = 0.3
    calls = []

    def fn(r):
        calls.append(r)
        return r - root + noise * rng.standard_normal(), 1.0

    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        calls.clear()
        r = bracketed_newton(fn, a, b, a - root, b - root)
        assert 0.0 <= r <= 1.0
        assert abs(r - root) <= 10 * noise
        assert len(calls) < ROOT_MAX_ITER


def test_bracketed_newton_bisects_on_a_zero_derivative():
    root = 1 / 3
    r = bracketed_newton(lambda r: (math.tanh(r - root), 0.0), 0.0, 1.0,
                         math.tanh(-root), math.tanh(1.0 - root))
    assert abs(r - root) <= ROOT_RTOL
    # A zero at a bracket end is the root.
    assert bracketed_newton(lambda r: (r - 2.0, 1.0), 2.0, 3.0, 0.0, 1.0) == 2.0


def test_z5_boundary_roots_need_no_hodograph_and_no_newton(timeline, monkeypatch):
    # phi's and theta's roots are the closed-form root of a cubic: neither
    # the implicit solution nor bracketed_newton is called.
    def refuse(*args, **kwargs):
        raise AssertionError("a Z5 boundary root called a solver")

    monkeypatch.setattr(wavefield, "bracketed_newton", refuse)
    for name in ("t", "x", "t_partials", "invert"):
        monkeypatch.setattr(ImplicitSolution, name, refuse)
    T = timeline.times
    for cid in ("phi", "theta"):
        for t in (T["T_6"], 0.05, 0.1, T["T_fin"]):
            timeline.curves[cid].rho_of_t(t)
