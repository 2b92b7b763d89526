"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from zesolver import (
    MixtureParams,
    build_timeline,
    concentrations_to_invariants,
    invariants_to_concentrations,
    rh_residual,
    riemann_green,
)
from zesolver.cauchy_general import PiecewiseInitialData, general_profile
from zesolver.errors import UnexpectedOrdering
from zesolver.fv_reference import Grid1D, fv_run, l1_error, steepest_gradient_x
from zesolver.invariants import InvariantPair, lambda_k


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


EXPECTED_TIMES = {
    "T_int": 0.0125,
    "T_3": 1 / 45,
    "T_6": 0.032,
    "T_9": 2 / 45,
    "T_10": 0.08,
    "T_fin": 2 / 15,
}


def test_criterion_1_event_times(solver):
    tl = solver.timeline
    worst_closed = max(
        abs(tl.times[k] - v) for k, v in EXPECTED_TIMES.items()
    )

    c = tl.curves
    T = tl.times
    brackets = {
        "T_int": (lambda t: c["xr2"].x(t) - c["xl1"].x(t), 1e-6, 0.05),
        "T_3": (lambda t: c["phi_early"].x(t) - c["xl2"].x(t),
                T["T_int"] * (1 + 1e-9), 0.1),
        "T_6": (lambda t: c["theta_early"].x(t) - c["xr1"].x(t),
                T["T_int"] * (1 + 1e-9), 0.1),
        "T_9": (lambda t: c["xw1"].x(t) - c["xs1"].x(t),
                T["T_3"] * (1 + 1e-9), 0.1),
        "T_10": (lambda t: c["xw2"].x(t) - c["xs2"].x(t),
                 T["T_6"] * (1 + 1e-9), 0.2),
        "T_fin": (lambda t: c["phi"].x(t) - c["theta"].x(t),
                  T["T_6"] * (1 + 1e-6), 0.138),
    }
    worst_num = 0.0
    for label, (fn, lo, hi) in brackets.items():
        root = brentq(fn, lo, hi, xtol=1e-12, rtol=8.9e-16)
        worst_num = max(worst_num, abs(root - EXPECTED_TIMES[label]))

    report(
        1,
        worst_closed <= 1e-10 and worst_num <= 1e-8,
        f"event times: closed-form dev {worst_closed:.2e} (tol 1e-10), "
        f"intersection dev {worst_num:.2e} (tol 1e-8)",
    )


def test_criterion_2_separation_identity(solver, params):
    via_kernel = solver.hodograph.T_int * riemann_green(
        params.q1, params.q2, params.mu1, params.mu2
    )
    via_surface = solver.hodograph.t(params.mu1, params.mu2)
    via_curve = solver.timeline.curves["phi"].param_point(params.mu1)[1]
    dev = max(abs(via_kernel - via_surface), abs(via_kernel - via_curve))
    report(2, dev <= 1e-12, f"separation-time identity deviation {dev:.2e} (tol 1e-12)")


def test_criterion_3_implicit_solution_residuals(solver, params):
    hodo = solver.hodograph
    R1, R2 = np.meshgrid(
        np.linspace(params.q1, params.mu1, 50),
        np.linspace(params.mu2, params.q2, 50),
    )
    h = 1e-4
    t_r1 = (hodo.t(R1 + h, R2) - hodo.t(R1 - h, R2)) / (2 * h)
    t_r2 = (hodo.t(R1, R2 + h) - hodo.t(R1, R2 - h)) / (2 * h)
    t_cross = (
        hodo.t(R1 + h, R2 + h)
        - hodo.t(R1 + h, R2 - h)
        - hodo.t(R1 - h, R2 + h)
        + hodo.t(R1 - h, R2 - h)
    ) / (4 * h * h)
    other = 2.0 * (t_r1 - t_r2) / (R2 - R1)
    pde = np.max(np.abs(t_cross + other) / np.maximum(np.abs(t_cross), np.abs(other)))

    x_r1 = (hodo.x(R1 + h, R2) - hodo.x(R1 - h, R2)) / (2 * h)
    x_r2 = (hodo.x(R1, R2 + h) - hodo.x(R1, R2 - h)) / (2 * h)
    c1 = np.max(
        np.abs(x_r1 - lambda_k(2, R1, R2) * t_r1) / np.abs(x_r1)
    )
    c2 = np.max(
        np.abs(x_r2 - lambda_k(1, R1, R2) * t_r2) / np.abs(x_r2)
    )
    report(
        3,
        pde < 1e-6 and c1 < 1e-6 and c2 < 1e-6,
        f"hodograph PDE residual {pde:.2e}, consistency ({c1:.2e}, {c2:.2e}) "
        "(tol 1e-6, 50x50 grid)",
    )


def test_criterion_4_isochrone_fidelity(solver, params):
    hodo = solver.hodograph
    failures = []
    worst_t = worst_x = worst_end = worst_trans = 0.0

    for t_star in (0.014, 0.018, 0.022):
        seg = solver.z5_profile(t_star, n=120)
        t_res = np.max(np.abs(hodo.t(seg.R1, seg.R2) - t_star))
        x_res = np.max(
            np.abs(hodo.x(seg.R1, seg.R2) - seg.x)
            / np.maximum(1.0, np.abs(seg.x))
        )
        # The right end is pinned to the state of Z5's right curve in the
        # zone layout, evaluated afresh from the curve.
        z5 = next(iv for iv in solver.timeline.zones_at(t_star) if iv.zone == "Z5")
        edge = solver.timeline.curves[z5.right_curve].left_state(t_star)
        end = max(abs(seg.R1[-1] - edge[0]), abs(seg.R2[-1] - edge[1]))
        worst_t = max(worst_t, t_res / t_star)
        worst_x = max(worst_x, x_res)
        worst_end = max(worst_end, end)
        if t_res > 1e-13 * t_star or x_res > 1e-13 or end != 0.0:
            failures.append(f"Z5@{t_star}")

    # Transport zones: each sample satisfies its defining transported
    # relation x = x(R) + lambda_k(R) (t* - t(R)); the samples on the Z5
    # boundary additionally satisfy the plain residual.
    for zone, times in (("Z9", (0.028, 0.05, 0.25)), ("Z10", (0.05, 0.1, 0.25))):
        for t_star in times:
            seg = (
                solver.z9_profile(t_star, n=60)
                if zone == "Z9"
                else solver.z10_profile(t_star, n=60)
            )
            fam = 1 if zone == "Z9" else 2
            tau = hodo.t(seg.R1, seg.R2)
            x0 = hodo.x(seg.R1, seg.R2)
            lam = lambda_k(fam, seg.R1, seg.R2)
            res = np.max(
                np.abs(x0 + lam * (t_star - tau) - seg.x)
                / np.maximum(1.0, np.abs(seg.x))
            )
            worst_trans = max(worst_trans, res)
            if res > 1e-6:
                failures.append(f"{zone}@{t_star}")
            if t_star <= solver.timeline.times["T_fin"]:
                edge = 0 if zone == "Z10" else -1
                edge_dev = abs(tau[edge] - t_star)
                if edge_dev > 1e-8 * t_star:
                    failures.append(f"{zone}-edge@{t_star}")

    report(
        4,
        not failures,
        f"isochrone fidelity: Z5 t-res {worst_t:.2e} (tol 1e-13), x-res "
        f"{worst_x:.2e} (tol 1e-13), endpoint {worst_end:.2e} (tol 0), "
        f"transport residual {worst_trans:.2e} (tol 1e-6); failures: {failures or 'none'}",
    )


def test_criterion_5_jump_and_characteristic_conditions(solver, params):
    tl = solver.timeline
    T = tl.times
    failures = []
    worst_rh = 0.0

    def check_shock(times, D_of_t, left_of_t, right_of_t, fam):
        nonlocal worst_rh
        for t in times:
            D = D_of_t(t)
            left = InvariantPair(*left_of_t(t))
            right = InvariantPair(*right_of_t(t))
            res = rh_residual(params, D, left, right)
            worst_rh = max(worst_rh, abs(res[0]), abs(res[1]))
            if max(abs(res[0]), abs(res[1])) > 1e-8:
                failures.append(f"RH fam{fam} t={t:.4f}")
            if not (
                lambda_k(fam, left.R1, left.R2) > D > lambda_k(fam, right.R1, right.R2)
            ):
                failures.append(f"Lax fam{fam} t={t:.4f}")

    c = tl.curves
    check_shock(
        np.linspace(1e-4, T["T_9"] * 0.999, 100),
        lambda t: params.q1 * params.mu1 * params.mu2,
        c["xs1"].left_state, c["xs1"].right_state, 1,
    )
    check_shock(
        np.linspace(1e-4, T["T_10"] * 0.999, 100),
        lambda t: params.mu1 * params.mu2 * params.q2,
        c["xs2"].left_state, c["xs2"].right_state, 2,
    )
    s1 = solver.shock_boundary(1, 0.3)
    check_shock(
        np.linspace(T["T_9"] * 1.0001, 0.3, 100),
        lambda t: params.mu1 * params.mu2 * s1.rho_of_t(t),
        lambda t: (params.mu1, params.mu2),
        lambda t: (s1.rho_of_t(t), params.mu2), 1,
    )
    s2 = solver.shock_boundary(2, 0.3)
    check_shock(
        np.linspace(T["T_10"] * 1.0001, 0.3, 100),
        lambda t: params.mu1 * params.mu2 * s2.rho_of_t(t),
        lambda t: (params.mu1, s2.rho_of_t(t)),
        lambda t: (params.mu1, params.mu2), 2,
    )

    # Weak boundaries are characteristics of their family.
    worst_char = 0.0
    h = 1e-6
    for cid in ("xl1", "xr1", "xl2", "xr2", "xw1", "xw2", "xf1", "xf2",
                "phi_early", "theta_early"):
        curve = c[cid]
        hi = curve.t_end if math.isfinite(curve.t_end) else 0.3
        lo = max(curve.t_start, 1e-4)
        for t in np.linspace(lo + 1e-6, hi * 0.999, 40):
            slope = (curve.x(t + h) - curve.x(t - h)) / (2 * h)
            lam = lambda_k(curve.family, *curve.left_state(t))
            rel = abs(slope - lam) / max(1.0, abs(lam))
            worst_char = max(worst_char, rel)
            if rel > 1e-8:
                failures.append(f"char {cid} t={t:.4f}")
    for cid in ("phi", "theta"):
        curve = c[cid]
        grid = curve.param_grid
        dr = 1e-5 * (grid[-1] - grid[0])
        for rho in np.linspace(grid[0] + 2 * dr, grid[-1] - 2 * dr, 40):
            xp, tp = curve.param_point(rho + dr)
            xm, tm = curve.param_point(rho - dr)
            x0, t0 = curve.param_point(rho)
            lam = lambda_k(curve.family, *curve.left_state(t0))
            rel = abs((xp - xm) / (tp - tm) - lam) / max(1.0, abs(lam))
            worst_char = max(worst_char, rel)
            if rel > 1e-8:
                failures.append(f"char {cid} rho={rho:.3f}")

    report(
        5,
        not failures,
        f"jump/characteristic conditions: worst RH {worst_rh:.2e} (tol 1e-8), "
        f"worst weak-curve slope dev {worst_char:.2e} (tol 1e-8); "
        f"failures: {failures or 'none'}",
    )


def test_criterion_6_mass_conservation(solver):
    worst = 0.0
    for t_star in (0.005, 0.018, 0.05, 0.25):
        m1, m2 = solver.profile_at(t_star, n=4096).mass()
        worst = max(worst, abs(m1 - 4.0), abs(m2 + 2.0))
    report(
        6,
        worst <= 1e-4,
        f"mass conservation over four epochs: worst deviation {worst:.2e} "
        "(tol 1e-4, 4096 samples, reference masses 4 and -2)",
    )


def test_criterion_7_general_method_equivalence(solver, params):
    data = PiecewiseInitialData.from_scenario(params)
    worst_inf = worst_drift_rel = worst_kink = 0.0
    for t_star in (0.018, 0.028):
        res = general_profile(data, t_star, (-4.0, 9.0), mobilities=(5.0, 8.0))
        worst_drift_rel = max(worst_drift_rel, res.max_drift / t_star)
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
        worst_inf = max(
            worst_inf, np.max(np.abs(gu1 - au1)), np.max(np.abs(gu2 - au2))
        )
        T = solver.timeline.times
        left_weak = (
            solver.timeline.curves["xl2"].x(t_star)
            if t_star <= T["T_3"]
            else solver.timeline.curves["xw1"].x(t_star)
        )
        for target in (left_weak, solver.phi(t_star), solver.theta(t_star),
                       solver.timeline.curves["xr1"].x(t_star)):
            nearest = min(res.knots, key=lambda k: abs(k - target))
            worst_kink = max(worst_kink, abs(nearest - target))
    report(
        7,
        worst_inf <= 1e-5 and worst_drift_rel <= 1e-8 and worst_kink <= 1e-5,
        f"general-method equivalence: Linf {worst_inf:.2e} (tol 1e-5), "
        f"level drift {worst_drift_rel:.2e} (tol 1e-8), kink match "
        f"{worst_kink:.2e} (tol 1e-5)",
    )


def test_criterion_8_finite_volume_oracle(solver, params):
    t_end = 0.01
    start = time.monotonic()
    prof = solver.profile_at(t_end, n=16384, window=(-4, 8))
    xs1 = solver.timeline.curves["xs1"].x(t_end)
    xs2 = solver.timeline.curves["xs2"].x(t_end)
    errors = []
    shock_ok = True
    for n in (1000, 2000, 4000):
        grid = Grid1D(-3.0, 7.0, n, 0.45)
        res = fv_run(params, grid, t_end)
        errors.append(l1_error(res, prof))
        d1 = abs(steepest_gradient_x(res, 1, x_hi=0.6) - xs1)
        d2 = abs(steepest_gradient_x(res, 2, x_lo=2.0) - xs2)
        shock_ok = shock_ok and d1 <= 3 * grid.dx and d2 <= 3 * grid.dx
    final = errors[-1]
    monotone = all(
        b[0] < a[0] and b[1] < a[1] for a, b in zip(errors, errors[1:])
    )

    # Weak fronts come out smeared: numeric gradient below the one-sided
    # analytic fan slope at the inner 2-fan front.  grid and res are the
    # loop's last, the 4000-cell run.
    x_front = solver.timeline.curves["xr2"].x(t_end)
    h = 1e-6
    inside = prof.interp(np.array([x_front - h, x_front - 3 * h]))
    analytic_slope = abs(inside[1][0] - inside[1][1]) / (2 * h)
    window = np.abs(res.x - x_front) < 0.06
    numeric_slope = np.max(np.abs(np.diff(res.u2[window]))) / grid.dx
    elapsed = time.monotonic() - start

    report(
        8,
        final[0] < 0.05 and final[1] < 0.05 and monotone and shock_ok
        and numeric_slope < analytic_slope and elapsed < 120.0,
        f"fv oracle: L1 at 4000 cells ({final[0]:.4f}, {final[1]:.4f}) "
        f"(tol 0.05), errors monotone over refinements: {monotone}, shocks "
        f"within 3 cells: {shock_ok}, weak-front numeric slope "
        f"{numeric_slope:.3f} < analytic {analytic_slope:.3f}, "
        f"runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_9_roundtrip_and_parameter_sweep(params):
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(10_000):
        R1 = rng.uniform(params.q1, params.mu1)
        R2 = rng.uniform(params.mu2, params.q2)
        u = invariants_to_concentrations(params, InvariantPair(R1, R2))
        back = concentrations_to_invariants(params, u)
        worst = max(
            worst, abs(back.R1 - R1) / abs(R1), abs(back.R2 - R2) / abs(R2)
        )
    roundtrip_ok = worst <= 1e-12

    built = 0
    reported = 0
    for _ in range(100):
        mu1 = rng.uniform(1.0, 6.0)
        mu2 = mu1 + rng.uniform(0.5, 5.0)
        q1 = rng.uniform(0.5, mu1)
        q2 = rng.uniform(mu2, 3 * mu2)
        x1 = rng.uniform(-2.0, 0.0)
        x2 = x1 + rng.uniform(0.5, 3.0)
        p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=x1, x2=x2)
        try:
            tl = build_timeline(p)
            built += 1
            assert [e.label for e in tl.events] == sorted(
                tl.times, key=tl.times.get
            )
        except UnexpectedOrdering as exc:
            assert "T_" in str(exc) or "monotone" in str(exc)
            reported += 1
    report(
        9,
        roundtrip_ok and built + reported == 100,
        f"round-trip worst rel dev {worst:.2e} (tol 1e-12, 10^4 points); "
        f"parameter sweep: {built} timelines built, {reported} regimes "
        "explicitly reported as outside the supported order",
    )
