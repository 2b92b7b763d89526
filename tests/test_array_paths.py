"""Whole-array hodograph evaluation against the per-point reference.

The profile and timeline code evaluates the closed form once per array.
These tests keep the per-point evaluation as the reference and require the
two to agree bit for bit (the one-pass Newton evaluator to a few units in
the last place), on instances drawn from the same law as acceptance
criterion 9.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zesolver import MixtureParams
from zesolver.errors import (
    CoincidentInvariants,
    DomainError,
    NoRootInInterval,
    PhaseGap,
)
from zesolver.hodograph import (
    COINCIDENT_RTOL,
    NEWTON_MAX_ITER,
    NEWTON_STOP,
    ImplicitSolution,
)
from zesolver.invariants import concentrations_from_invariants
from zesolver.isochrone import Profile, ScenarioSolver, Segment
from zesolver.wavefield import _parametric_curve, mirrored_sides


def _cone_instances(count, seed=20261017):
    """Instances of acceptance 9's law."""
    rng = np.random.default_rng(seed)
    solvers = []
    for _ in range(count):
        mu1 = rng.uniform(1.0, 6.0)
        mu2 = mu1 + rng.uniform(0.5, 5.0)
        q1 = rng.uniform(0.5, mu1)
        q2 = rng.uniform(mu2, 3 * mu2)
        x1 = rng.uniform(-2.0, 0.0)
        x2 = x1 + rng.uniform(0.5, 3.0)
        p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=x1, x2=x2)
        solvers.append(ScenarioSolver(p))
    return solvers


#: The first 41 draws: 20 with both shocks curving before T_fin, 21 with
#: one or both curving after it.
CONE = _cone_instances(41)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("solver", CONE, ids=lambda s: f"mu1={s.params.mu1:.3f}")
def test_hodograph_array_matches_per_point(solver):
    p = solver.params
    hodo = solver.hodograph
    rng = np.random.default_rng(7)
    R1 = rng.uniform(p.q1, p.mu1, 64)
    R2 = rng.uniform(p.mu2, p.q2, 64)
    pairs = list(zip(R1.tolist(), R2.tolist()))
    assert _same_bits(hodo.t(R1, R2), [hodo.t(a, b) for a, b in pairs])
    assert _same_bits(hodo.x(R1, R2), [hodo.x(a, b) for a, b in pairs])
    d1, d2 = hodo.t_partials(R1, R2)
    per_point = [hodo.t_partials(a, b) for a, b in pairs]
    assert _same_bits(d1, [d[0] for d in per_point])
    assert _same_bits(d2, [d[1] for d in per_point])
    # The one-pass evaluation of the Z5 inverse against the separate ones
    # (its products are grouped differently: a few ulp of the largest value).
    fused = hodo._t_x_partials(R1, R2)
    for got, ref in zip(fused, (hodo.t(R1, R2), hodo.x(R1, R2), d1, d2)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


#: Error of t, x and t_partials in eps times the largest term of the
#: formula.  This test's 1,280 points measure at most 2.9, and 10,000
#: points on 100 other cone instances at most 3.2.
TERM_EPS = 6.0


def _exact_with_term_scales(p, R1, R2):
    """t, x, dt/dR1, dt/dR2 at the float inputs in mpmath, each with the
    magnitude of its formula's largest term (x can vanish, so a relative
    error would not do)."""
    q1, q2, x1, x2, R1, R2 = map(mpmath.mpf, (p.q1, p.q2, p.x1, p.x2, R1, R2))
    C, S, d, P = (x2 - x1) / (q1 * q2), q1 + q2, R1 - R2, R1 * R2
    N = 2 * P + 2 * q1 * q2 - S * (R1 + R2)
    n_max = max(abs(2 * P), abs(2 * q1 * q2), abs(S * (R1 + R2)))
    x_terms = (C * P**2 * (R1 + R2), C * P**2 * 2 * S, x1 * R1**3, x2 * R2**3,
               3 * P * R2 * x2, 3 * P * R1 * x1)
    exact = (
        C * N / d**3,
        (C * P**2 * (R2 + R1 - 2 * S) + x1 * R1**3 - x2 * R2**3
         + 3 * P * (R2 * x2 - R1 * x1)) / d**3,
        C * ((2 * R2 - S) * d - 3 * N) / d**4,
        C * ((2 * R1 - S) * d + 3 * N) / d**4,
    )
    scales = (
        abs(C) * n_max / abs(d) ** 3,
        max(abs(a) for a in x_terms) / abs(d) ** 3,
        abs(C) * max(abs(2 * R2 * d), abs(S * d), 3 * n_max) / d**4,
        abs(C) * max(abs(2 * R1 * d), abs(S * d), 3 * n_max) / d**4,
    )
    return exact, scales


@pytest.mark.parametrize("solver", CONE, ids=lambda s: f"mu1={s.params.mu1:.3f}")
def test_hodograph_array_accuracy_against_mpmath(solver):
    p, hodo = solver.params, solver.hodograph
    rng = np.random.default_rng(11)
    R1 = rng.uniform(p.q1, p.mu1, 64)
    R2 = rng.uniform(p.mu2, p.q2, 64)
    got = np.array([hodo.t(R1, R2), hodo.x(R1, R2), *hodo.t_partials(R1, R2)])
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for i, (a, b) in enumerate(zip(R1.tolist(), R2.tolist())):
            exact, scales = _exact_with_term_scales(p, a, b)
            for k in range(4):
                err = abs(mpmath.mpf(float(got[k, i])) - exact[k])
                assert err <= TERM_EPS * eps * scales[k], (k, a, b)


@pytest.mark.parametrize("solver", CONE, ids=lambda s: f"mu1={s.params.mu1:.3f}")
def test_transport_and_boundary_tables_match_per_point(solver):
    p = solver.params
    T = solver.timeline.times
    t_star = 1.5 * T["T_fin"]
    for side, lo, hi in ((1, p.q1, p.mu1), (2, p.mu2, p.q2)):
        rho = np.linspace(lo, hi, 97)
        transport_x = solver.timeline.side(side).transport_x
        assert _same_bits(
            transport_x(rho, t_star), [transport_x(r, t_star) for r in rho.tolist()]
        )
    # An array evaluation of t along a Z5 boundary is the bits of the
    # curve's own one-point evaluation.
    for side in solver.timeline.sides.values():
        curve = solver.timeline.curves[side.curve]
        rho = np.linspace(side.lo, side.hi, 97)
        assert _same_bits(
            solver.hodograph.t(*side.pair(rho)),
            [curve.param_point(r)[1] for r in rho.tolist()],
        )


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

    # t raises on the same inputs as scalars, as arrays, and as an array
    # against a scalar fixed invariant.
    for base in (0.25, 1.0, R, 37.0):
        tol = COINCIDENT_RTOL * max(1.0, base)
        for factor in (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0):
            other = base + factor * tol
            expected = factor < 1.0
            assert raises(hodo.t, base, other) is expected
            assert raises(hodo.t, np.array([base, 2.0]), np.array([other, 8.0])) is expected
            assert raises(hodo.t, np.array([base, 2.0]), other) is expected


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


@pytest.mark.parametrize("k", [1, 2], ids=["phi", "theta"])
def test_rho_of_t_on_nodes_ends_and_outside(solver, k):
    side = solver.timeline.side(k)
    curve = solver.timeline.curves[side.curve]
    span = side.hi - side.lo
    for rho in (side.lo, side.lo + 1e-9 * span, side.lo + 0.3 * span,
                side.hi - 1e-9 * span, side.hi):
        t = curve.param_point(rho)[1]
        root = curve.rho_of_t(t)
        assert curve.param_point(root)[1] == pytest.approx(t, rel=1e-14)
        assert root == pytest.approx(rho, rel=1e-14)
    for t in (curve.t_start, curve.t_end, curve.t_end * (1 + 1e-12)):
        assert curve.param_point(curve.rho_of_t(t))[1] == pytest.approx(t, rel=1e-14)
    duration = curve.t_end - curve.t_start
    for t in (curve.t_start - duration, curve.t_end + duration, 0.0, -1.0,
              math.inf, math.nan):
        with pytest.raises(NoRootInInterval):
            curve.rho_of_t(t)


@pytest.mark.parametrize(
    "mu1, mu2, q1, q2",
    [
        (10.0, 10.1, 1.0, 11.0),  # phi's margin would push mu1 past mu2
        (6.0, 6.1, 1.0, 8.0),  # phi's margin would land on mu2 (R1 = R2)
        (4.0, 4.2, 3.0, 18.0),  # theta's margin would push mu2 past mu1
    ],
)
def test_rho_of_t_in_end_cells_when_mu1_and_mu2_are_close(mu1, mu2, q1, q2):
    # mu2 - mu1 is below the margin: past T_fin the root must stay on the
    # curve's side of the pole of t(rho) at the fixed invariant, and a root
    # beyond halfway to the pole is outside the span.
    p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=-1.0, x2=1.0)
    solver = ScenarioSolver(p)
    for side in solver.timeline.sides.values():
        curve = solver.timeline.curves[side.curve]
        cell = (side.hi - side.lo) / 1022
        for rho in (side.lo + cell, side.hi - cell):
            t = curve.param_point(rho)[1]
            t_back = curve.param_point(curve.rho_of_t(t))[1]
            assert t_back == pytest.approx(t, rel=1e-12)
            solver.profile_at(t, n=256)
        past = curve.rho_of_t(curve.t_end * (1 + 1e-9))
        assert 0.0 < (past - side.far) / (side.fixed - side.far) < 0.5
        beyond = curve.param_point(side.far + 0.75 * (side.fixed - side.far))[1]
        with pytest.raises(NoRootInInterval):
            curve.rho_of_t(beyond)


def _narrow_instances(count, seed=20261020):
    """Instances whose gaps q1 < mu1 < mu2 < q2 are 1e-5 to 3e-2 of q1."""
    rng = np.random.default_rng(seed)
    solvers = []
    for _ in range(count):
        q1 = rng.uniform(1.0, 6.0)
        gap = q1 * 10 ** rng.uniform(-4.0, math.log10(3e-2))
        mu1, mu2, q2 = (q1 + np.cumsum(gap * rng.uniform(0.1, 1.0, 3))).tolist()
        x1 = rng.uniform(-2.0, 0.0)
        x2 = x1 + rng.uniform(0.5, 3.0)
        p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=x1, x2=x2)
        solvers.append(ScenarioSolver(p))
    return solvers


NARROW = _narrow_instances(40)


def _mp_t(p, side, rho):
    """t(side.pair(rho)) at the float inputs in mpmath, in the factored form
    C (D d - 2 u v) / d^3 (u = R1 - q1, v = q2 - R2, d = R1 - R2)."""
    q1, q2, x1, x2, f = map(mpmath.mpf, (p.q1, p.q2, p.x1, p.x2, side.fixed))
    R1, R2 = (rho, f) if side.k == 1 else (f, rho)
    d = R1 - R2
    return (x2 - x1) * ((q2 - q1) * d - 2 * (R1 - q1) * (q2 - R2)) / (q1 * q2 * d**3)


def _mp_rho(p, side, t, guess):
    """The root of t(side.pair(rho)) = t at the float inputs, to 50 digits."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        return mpmath.findroot(lambda r: _mp_t(p, side, r) - t, mpmath.mpf(guess))


#: phi and theta roots against a 50-digit root, in eps of max(rho, |d|):
#: the cubic's unknown is d = R1 - R2, which can exceed rho on wide cones.
#: Measured at most 0.74 on CONE and 0.47 on NARROW (relative to rho, the
#: 512-node tables' roots reached 7.3 and 7,200 eps).
ROOT_EPS = 4.0


def _root_scale(side, rho):
    return max(rho, abs(rho - side.fixed))


@pytest.mark.parametrize("law", ["cone", "narrow"])
def test_boundary_roots_against_mpmath(law):
    eps = np.finfo(float).eps
    for s in CONE if law == "cone" else NARROW:
        for side in s.timeline.sides.values():
            curve = s.timeline.curves[side.curve]
            for t in np.linspace(curve.t_start, curve.t_end, 10).tolist():
                rho = curve.rho_of_t(t)
                exact = _mp_rho(s.params, side, t, rho)
                bound = ROOT_EPS * eps * _root_scale(side, exact)
                assert abs(rho - exact) <= bound, (s.params, side.curve, t)


_LOG_GAP = st.floats(-6.0, 0.5)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(q1=st.floats(0.05, 10.0), a=_LOG_GAP, b=_LOG_GAP, c=_LOG_GAP,
       log_width=st.floats(-4.0, 3.0))
def test_boundary_t_is_monotone_and_inverted_on_degenerate_edges(q1, a, b, c, log_width):
    # Gaps of 10^-6 to 10^0.5 times their lower end: each of q1 -> mu1,
    # mu1 -> mu2 and mu2 -> q2 runs up to the cone's edge, and the column
    # is very narrow or very wide.
    mu1 = q1 * (1 + 10**a)
    mu2 = mu1 * (1 + 10**b)
    q2 = mu2 * (1 + 10**c)
    p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=-1.0, x2=-1.0 + 10**log_width)
    sol = ImplicitSolution(p)
    eps = np.finfo(float).eps
    for side in mirrored_sides(p).values():
        curve = _parametric_curve(sol, side, 0.0, math.inf)
        rho = np.linspace(side.lo, side.hi, 257).tolist()
        with mpmath.workdps(50):
            t = [_mp_t(p, side, r) for r in rho]
            # t rises with the free offset s: with rho on phi, against it on theta.
            sign = 1 if side.k == 1 else -1
            assert all(sign * (b - a) > 0 for a, b in zip(t, t[1:])), (p, side.curve)
            for r, exact in list(zip(rho, t))[::16]:
                t_float = curve.param_point(r)[1]
                slope = mpmath.diff(lambda x: _mp_t(p, side, x), r)
                # A few ulps, plus what the float time's own rounding moves
                # the root by.
                moved = abs((t_float - exact) / slope)
                bound = ROOT_EPS * eps * _root_scale(side, r) + 1.01 * moved
                assert abs(curve.rho_of_t(t_float) - r) <= bound, (p, side.curve, r)


def _mp_transport_x(p, side, rho, t):
    """x(pair) + fixed rho^2 (t - tau) at the float inputs in mpmath: the
    transport characteristic with x and tau = t(pair) from the hodograph."""
    q1, q2, x1, x2, f = map(mpmath.mpf, (p.q1, p.q2, p.x1, p.x2, side.fixed))
    rho, t = mpmath.mpf(rho), mpmath.mpf(t)
    R1, R2 = (rho, f) if side.k == 1 else (f, rho)
    P = R1 * R2
    x = ((x2 - x1) * P**2 * (R1 + R2 - 2 * (q1 + q2)) / (q1 * q2)
         + x1 * R1**3 - x2 * R2**3 + 3 * P * (R2 * x2 - R1 * x1)) / (R1 - R2) ** 3
    return x + f * rho**2 * (t - _mp_t(p, side, rho))


#: Side.transport_x against the 50-digit characteristic, in eps times the
#: sum of the magnitudes of its three terms x0, K (rho / (rho - fixed))^2
#: and fixed rho^2 t.  Measured at most 2.08 on CONE and 1.51 on NARROW
#: (2.0 and 1.6 on 100 other instances of each law).
TRANSPORT_EPS = 4.0


@pytest.mark.parametrize("law", ["cone", "narrow"])
def test_transport_closed_form_against_mpmath(law):
    eps = np.finfo(float).eps
    for s in CONE if law == "cone" else NARROW:
        p, T = s.params, s.timeline.times
        for side in s.timeline.sides.values():
            rho = np.linspace(side.lo, side.hi, 33)
            C = (p.x2 - p.x1) / (p.q1 * p.q2)
            K = abs((side.fixed - p.q1) * (p.q2 - side.fixed) * C)
            for t in (T[side.death], T["T_fin"], 1.5 * T["T_fin"], 20.0 * T["T_fin"]):
                x = side.transport_x(rho, t)
                with mpmath.workdps(50):
                    for r, got in zip(rho.tolist(), x.tolist()):
                        terms = (abs(side.x0) + K * (r / (r - side.fixed)) ** 2
                                 + side.fixed * r * r * t)
                        err = abs(mpmath.mpf(got) - _mp_transport_x(p, side, r, t))
                        assert err <= TRANSPORT_EPS * eps * terms, (p, side.zone, r, t)


#: t and x against 50 digits, in eps of |t| and of max(|x|, |x1|, |x2|) (x
#: can vanish).  Measured at most 2.9 and 4.7 on CONE, 1.9 and 2.2 on
#: NARROW (2.7 and 5.5 on 100 other instances of each law); the expanded
#: forms, whose terms cancel, reached 5.9e-8 and 4.7e-7 relative at
#: relative gaps of 1e-4.
TX_EPS = 8.0


@pytest.mark.parametrize("law", ["cone", "narrow"])
def test_t_and_x_against_mpmath(law):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    for s in CONE if law == "cone" else NARROW:
        p, hodo = s.params, s.hodograph
        R1, R2 = rng.uniform(p.q1, p.mu1, 64), rng.uniform(p.mu2, p.q2, 64)
        points = zip(hodo.t(R1, R2).tolist(), hodo.x(R1, R2).tolist(),
                     R1.tolist(), R2.tolist())
        with mpmath.workdps(50):
            for t, x, a, b in points:
                (t_ref, x_ref, *_), _ = _exact_with_term_scales(p, a, b)
                assert abs(t - t_ref) <= TX_EPS * eps * abs(t_ref), (p, a, b)
                scale = max(abs(x_ref), abs(p.x1), abs(p.x2))
                assert abs(x - x_ref) <= TX_EPS * eps * scale, (p, a, b)


_NARROW_LOG_GAP = st.floats(math.log10(3e-5), 0.5)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(q1=st.floats(0.05, 10.0), a=_NARROW_LOG_GAP, b=_NARROW_LOG_GAP, c=_NARROW_LOG_GAP,
       log_width=st.floats(-4.0, 3.0))
def test_transport_x_rises_on_narrow_gaps(q1, a, b, c, log_width):
    # Relative gaps of 3e-5 to 10^0.5: Z9 and Z10 keep a strictly
    # increasing x just after T_3, in the middle of Z5, around T_fin and
    # long after it, and the whole profile solves there.
    mu1 = q1 * (1 + 10**a)
    mu2 = mu1 * (1 + 10**b)
    q2 = mu2 * (1 + 10**c)
    p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=-1.0, x2=-1.0 + 10**log_width)
    solver = ScenarioSolver(p)
    T = solver.timeline.times
    samplers = {"Z9": solver.z9_profile, "Z10": solver.z10_profile}
    times = (1.001 * T["T_3"], 0.5 * (max(T["T_3"], T["T_6"]) + T["T_fin"]),
             0.999 * T["T_fin"], 1.5 * T["T_fin"], 20.0 * T["T_fin"])
    for t in times:
        for iv in solver.timeline.zones_at(t):
            if iv.zone in samplers:
                seg = samplers[iv.zone](t, 64, iv)
                assert seg.x.size == 1 or np.all(np.diff(seg.x) > 0), (p, seg.zone, t)
        solver.profile_at(t, n=512)


#: A Z5 end's x against the hodograph's x of its state, in eps of
#: max(|x|, |x1|, |x2|).  Measured at most 9.9 on the README and CONE (11.5
#: on 100 other cone instances).  The two differ by fixed rho^2 (t* -
#: t(state)), the root's level residual times the speed, so at narrow gaps,
#: where t is steep in rho, they part further (2.8e4 eps measured).
Z5_END_EPS = 16.0


def test_z5_edges_take_x_and_state_from_one_root(solver):
    # On a parametric boundary the Z5 end's position and state rest on the
    # same root rho_of_t(t*): the position is that rho's transport
    # characteristic at t*, which leaves Z5 at the state's point, so the
    # hodograph maps the state onto x up to the rounding of both.
    eps = np.finfo(float).eps
    for s in (solver, *CONE):
        p, T, h = s.params, s.timeline.times, s.hodograph
        s1, s2 = s.timeline.sides.values()
        scale = lambda x: Z5_END_EPS * eps * max(abs(x), abs(p.x1), abs(p.x2))
        for t in np.linspace(T["T_3"], T["T_fin"], 22)[1:-1].tolist():
            seg = s.z5_profile(t, n=2)
            assert seg.x[0] == s1.transport_x(seg.R1[0], t)
            assert abs(h.x(seg.R1[0], seg.R2[0]) - seg.x[0]) <= scale(seg.x[0])
        for t in np.linspace(T["T_6"], T["T_fin"], 22)[1:-1].tolist():
            seg = s.z5_profile(t, n=2)
            assert seg.x[-1] == s2.transport_x(seg.R2[-1], t)
            assert abs(h.x(seg.R1[-1], seg.R2[-1]) - seg.x[-1]) <= scale(seg.x[-1])


def _layout_times(s):
    """Each event time, its float neighbours, the midpoints between events
    and a time past the last one."""
    T = sorted(s.timeline.times.values())
    ts = {float(np.nextafter(t, d)) for t in T for d in (0.0, np.inf)}
    ts.update(T)
    ts.update(0.5 * (a + b) for a, b in zip(T, T[1:]))
    ts.add(2.0 * T[-1])
    return sorted(ts)


def test_layout_zones_share_their_joints_bit_for_bit(solver):
    # Each zone starts at the very x at which the zone before it ends, and
    # only the two outer plateaus have an open end.  Each run of the
    # profile starts and ends at its interval's x (a point zone, x_left ==
    # x_right, is one sample there), so consecutive runs share their joint.
    for s in (solver, *CONE):
        for t in _layout_times(s):
            layout = s.timeline.zones_at(t)
            assert layout[0].x_left is None and layout[-1].x_right is None, t
            for left, right in zip(layout, layout[1:]):
                assert None not in (left.x_right, right.x_left), (t, left.zone)
                assert _same_bits(left.x_right, right.x_left), (t, left.zone)
            prof = s.profile_at(t, n=64)
            runs = prof.zone_runs()
            for iv, (name, sl) in zip(layout, runs, strict=True):
                assert name == iv.zone, t
                for i, x in ((sl.start, iv.x_left), (sl.stop - 1, iv.x_right)):
                    assert x is None or _same_bits(prof.x[i], x), (t, name, i)
            for (name, a), (_, b) in zip(runs, runs[1:]):
                assert _same_bits(prof.x[a.stop - 1], prof.x[b.start]), (t, name)


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
    """Side.transport_x's closed form, one point at a time in plain floats."""
    s = solver.timeline.side(side)
    xs = []
    for r in rho.tolist():
        g = r / (r - s.fixed)
        xs.append(s.x0 + s.K * (g * g) + (s.fixed * t_star) * (r * r))
    return np.array(xs)


def _zone_segment_reference(solver, iv, xl, xr, t_star, n_k):
    """One zone as its own Segment: Z5's sampler; a transport zone's rho
    between its edge values placed by _transport_x_reference, its end x
    pinned to the layout's xl and xr; or np.linspace and the plateau or fan
    state.  A point zone (xl == xr, or ends not increasing) is one sample
    at xl."""
    zone = iv.zone
    s1, s2 = solver.timeline.sides.values()
    if zone == "Z5":
        return solver.z5_profile(t_star, n_k, iv)
    if zone in (s1.zone, s2.zone):
        side = s1 if zone == s1.zone else s2
        ends = solver._edge_states(iv, t_star, side, side)
        lo, hi = sorted(state[side.index] for state in ends)
        rho = np.array([lo]) if xl == xr else np.linspace(lo, hi, n_k)
        R = np.empty((2, rho.size))
        R[side.index], R[1 - side.index] = rho, side.fixed
        x = _transport_x_reference(solver, side.k, rho, t_star)
        x[-1], x[0] = xr, xl
        return Segment(zone, x, *R)
    R1, R2 = solver.timeline.plateaus[zone]
    xs = np.linspace(xl, xr, n_k) if xr > xl else np.array([xl])
    R1 = s2.fan(xs, t_star) if R1 is None else np.full_like(xs, R1)
    R2 = s1.fan(xs, t_star) if R2 is None else np.full_like(xs, R2)
    return Segment(zone, xs, R1, R2)


def _merge_segments_reference(solver, t_star, segments):
    """The segments concatenated, with the per-run order check of the Profile."""
    x = np.concatenate([s.x for s in segments])
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


# -- Profile.interp against the per-zone interpolation ---------------------------


def _interp_per_zone(prof, xq):
    """Per-zone reference for Profile.interp: each query is interpolated
    inside the first zone run whose right end it does not pass."""
    runs = prof.zone_runs()
    right_edges = np.array([prof.x[sl].max() for _, sl in runs])
    idx = np.clip(np.searchsorted(right_edges, xq, side="left"), 0, len(runs) - 1)
    u1, u2 = np.empty_like(xq), np.empty_like(xq)
    for k, (_, sl) in enumerate(runs):
        mask = idx == k
        u1[mask] = np.interp(xq[mask], prof.x[sl], prof.u1[sl])
        u2[mask] = np.interp(xq[mask], prof.x[sl], prof.u2[sl])
    return u1, u2


@pytest.mark.parametrize("law", ["cone", "narrow"])
def test_interp_matches_per_zone_reference(law):
    # Uniform queries, every sample (joints and point zones included) and
    # both float neighbours of each inside [x[0], x[-1]].
    for s in CONE if law == "cone" else NARROW:
        for t in _layout_times(s):
            prof = s.profile_at(t, n=64)
            x = prof.x
            xq = np.clip(np.concatenate([np.linspace(x[0], x[-1], 301), x, np.nextafter(
                x, -np.inf), np.nextafter(x, np.inf)]), x[0], x[-1])
            for got, ref in zip(prof.interp(xq), _interp_per_zone(prof, xq)):
                assert _same_bits(got, ref), (t, law)
