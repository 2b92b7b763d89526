"""The curved shocks Phi and Theta in closed form.

A shock carries the invariant rho at the time beta(rho) with
beta (far - rho)^2 = g(rho), g rational in rho (wavefield._shock_curve).
These tests hold that closed form to the Rankine-Hugoniot ODE it was
derived from, to a 50-digit evaluation of its defining integral, and to the
shock conditions across the parameter cone.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from zesolver import MixtureParams, rh_residual
from zesolver.errors import DomainError
from zesolver.invariants import InvariantPair, lambda_k
from zesolver.isochrone import ScenarioSolver

#: The README instance and one with mu2 - mu1 small (t(rho) near its pole).
INSTANCES = [
    MixtureParams(mu1=5.0, mu2=8.0, q1=2.0, q2=10.0, x1=-1.0, x2=1.0),
    MixtureParams(mu1=6.0, mu2=6.1, q1=1.0, q2=8.0, x1=-1.0, x2=1.0),
]


def _sides(solver):
    tl = solver.timeline
    return [(side, tl.curves[side.shock]) for side in tl.sides.values()]


def _shock_states(p, side, rho):
    """(left, right) invariant pairs across the shock carrying rho."""
    behind = InvariantPair(*side.pair(rho))
    plateau = InvariantPair(p.mu1, p.mu2)
    return (plateau, behind) if side.k == 1 else (behind, plateau)


# -- against the Rankine-Hugoniot ODE ------------------------------------------


def _shock_ode(solver, side, t_end):
    """Integrate the ODE that the shock constraint and D = mu1 mu2 rho give:

        drho/dbeta = (far - rho) / ((fixed - rho) tau'(rho) + 2 (beta - tau)),
        dX/dbeta = mu1 mu2 rho,

    with tau(rho) = t(side.pair(rho)), from the shock event."""
    p, h = solver.params, solver.hodograph
    event = solver.timeline.event_by_label[side.shock_event]

    def rhs(beta, y):
        R = side.pair(y[0])
        tau = h.t(*R)
        t_rho = h.t_partials(*R)[side.index]
        drho = (side.far - y[0]) / ((side.fixed - y[0]) * t_rho + 2.0 * (beta - tau))
        return (drho, p.mu1 * p.mu2 * y[0])

    sol = solve_ivp(rhs, (event.T, t_end), [side.start, event.X], method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    assert sol.success
    return sol.sol


@pytest.mark.parametrize("p", INSTANCES, ids=["readme", "close_mu"])
def test_closed_form_matches_the_rankine_hugoniot_ode(p):
    solver = ScenarioSolver(p)
    for side, curve in _sides(solver):
        t_end = 20.0 * curve.t_start
        ode = _shock_ode(solver, side, t_end)
        for t in np.linspace(curve.t_start, t_end, 41)[1:]:
            rho_ode, X_ode = ode(t)
            # The ODE's own error at rtol 1e-10 is a few 1e-10.
            assert curve.rho_of_t(t) == pytest.approx(rho_ode, rel=1e-9)
            assert curve.x(t) == pytest.approx(X_ode, rel=1e-9)


# -- against a 50-digit reference ------------------------------------------------


def _reference(p, side, t_s, rho):
    """(X, beta) at rho from the defining integral, to 50 digits: t and x
    are the hodograph's unexpanded formulas and the integral of tau is
    mpmath quadrature, not the closed-form antiderivative."""
    mp = mpmath
    with mp.workdps(50):
        q1, q2, x1, x2 = (mp.mpf(v) for v in (p.q1, p.q2, p.x1, p.x2))
        f, far, start = (mp.mpf(v) for v in (side.fixed, side.far, side.start))
        pair = (lambda r: (r, f)) if side.k == 1 else (lambda r: (f, r))

        def t(R1, R2):
            N = 2 * R1 * R2 + 2 * q1 * q2 - (q1 + q2) * (R1 + R2)
            return (x2 - x1) * N / (q1 * q2 * (R1 - R2) ** 3)

        def x(R1, R2):
            d3 = (R1 - R2) ** 3
            return ((x2 - x1) * (R1 * R2) ** 2 * (R1 + R2 - 2 * (q1 + q2)) / (q1 * q2 * d3)
                    + (x1 * R1**3 - x2 * R2**3 + 3 * R1 * R2 * (R2 * x2 - R1 * x1)) / d3)

        tau = lambda r: t(*pair(r))
        r = mp.mpf(rho)
        w0, w = far - start, far - r
        g = (t_s * w0**2 + w * (f - r) * tau(r) - w0 * (f - start) * tau(start)
             + (f - far) * mp.quad(tau, [start, r]))
        beta = g / w**2
        return x(*pair(r)) + f * r * r * (beta - tau(r)), beta


def _event_time(p, k):
    """T_9 (k = 1) or T_10 (k = 2) to 50 digits."""
    mp = mpmath
    with mp.workdps(50):
        q1, q2, mu1, mu2, x1, x2 = (mp.mpf(v) for v in (p.q1, p.q2, p.mu1, p.mu2, p.x1, p.x2))
        t_int = (x2 - x1) / (q1 * q2 * (q2 - q1))
        if k == 1:
            return t_int * (q2 - q1) ** 2 / (mu2 - q1) ** 2 * (mu2 - q1) / (mu1 - q1)
        return t_int * (q2 - q1) ** 2 / (q2 - mu1) ** 2 * (q2 - mu1) / (q2 - mu2)


@pytest.mark.parametrize("p", INSTANCES, ids=["readme", "close_mu"])
def test_closed_form_matches_50_digit_reference(p):
    solver = ScenarioSolver(p)
    for side, curve in _sides(solver):
        t_s = _event_time(p, side.k)
        assert curve.t_start == pytest.approx(float(t_s), rel=1e-14)
        w0 = side.far - side.start
        for s in (1.0, 0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-9):
            rho = side.far - w0 * s
            X, beta = curve.param_point(rho)
            X_ref, beta_ref = _reference(p, side, t_s, rho)
            assert abs(X - X_ref) <= 1e-14 * abs(X_ref), (side.k, s)
            assert abs(beta - beta_ref) <= 1e-14 * abs(beta_ref), (side.k, s)
        # The root solves the reference's beta(rho) = t to a few ulp of rho.
        for factor in (1.0 + 1e-9, 1.5, 10.0, 1e4):
            t = float(t_s) * factor
            _, beta_ref = _reference(p, side, t_s, curve.rho_of_t(t))
            assert abs(beta_ref - t) <= 1e-12 * t, (side.k, factor)


# -- across the cone --------------------------------------------------------------

_GAP = st.floats(0.05, 5.0)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(q1=st.floats(0.05, 10.0), a=_GAP, b=_GAP, c=_GAP,
       x1=st.floats(-3.0, 0.0), width=st.floats(1e-2, 10.0))
def test_shocks_on_the_cone(q1, a, b, c, x1, width):
    mu1 = q1 * (1 + a)
    mu2 = mu1 * (1 + b)
    q2 = mu2 * (1 + c)
    p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=x1, x2=x1 + width)
    solver = ScenarioSolver(p)
    h = solver.hodograph
    for side, curve in _sides(solver):
        t_s, w0 = curve.t_start, side.far - side.start
        # beta rises strictly from T_s toward far.
        betas = [curve.param_point(side.far - w0 * s)[1]
                 for s in np.geomspace(1.0, 1e-9, 64)]
        assert np.all(np.diff(betas) > 0), side.k
        # rho(t) moves toward far and keeps closing in on it.
        gaps = [abs(side.far - curve.rho_of_t(t_s * k)) for k in (1e1, 1e3, 1e5, 1e7)]
        assert np.all(np.diff(gaps) < 0), side.k
        assert gaps[-1] < 1e-2 * abs(w0), side.k
        for t in t_s * np.array([1.0 + 1e-9, 1.5, 3.0, 10.0, 100.0]):
            rho = curve.rho_of_t(t)
            D = p.mu1 * p.mu2 * rho
            left, right = _shock_states(p, side, rho)
            # Rankine-Hugoniot (its terms are at most q2^2) and Lax.
            assert max(map(abs, rh_residual(p, D, left, right))) <= 1e-13 * q2 * q2
            assert (lambda_k(side.k, left.R1, left.R2) > D
                    > lambda_k(side.k, right.R1, right.R2)), (side.k, t)
            # The position is the transport constraint, with tau from the
            # hodograph rather than the shock's expansion of it.
            R = side.pair(rho)
            X = h.x(*R) + lambda_k(side.k, *R) * (t - h.t(*R))
            assert abs(curve.x(t) - X) <= 1e-13 * max(1.0, abs(X)), (side.k, t)
            assert abs(curve.param_point(rho)[1] - t) <= 1e-12 * t, (side.k, t)


def test_shock_before_its_event_raises(solver):
    for side, curve in _sides(solver):
        with pytest.raises(DomainError):
            solver.shock_boundary(side.k, curve.t_start)
        with pytest.raises(DomainError):
            curve.rho_of_t(0.999 * curve.t_start)
        # A non-finite time is outside the shock's life too.
        for t in (math.nan, math.inf):
            with pytest.raises(DomainError):
                solver.shock_boundary(side.k, t)
            with pytest.raises(DomainError):
                curve.rho_of_t(t)


#: Relative gaps near 1e-4.  g is accurate to 5e-16 here, but beta = g /
#: (far - rho)^2 is ill-conditioned near far: one ulp of rho moves it by
#: 2 ulp(rho) / |far - rho| relative.  So at 1e6 T_s, where the root lies
#: 1e-3 of the gap from far, the root's time is met to 4.4e-11, 4.9e-10 and
#: 6.7e-9 relative; at the other times to 1e-10 or better.
NARROW_SHOCKS = [
    (MixtureParams(1.77411, 1.77453, 1.77302, 1.7751, -1.52146, 0.184989), 2),
    (MixtureParams(2.98075, 2.98155, 2.98, 2.98257, -1.81901, -1.73078), 1),
    (MixtureParams(2.508304466453854, 2.5083806398080135, 2.508255270278554,
                   2.5086108807277623, -1.2355591117232283, 1.2429532623230468), 1),
]


@pytest.mark.parametrize("p, k", NARROW_SHOCKS, ids=["Theta", "Phi", "Phi-at-far"])
def test_shock_root_at_narrow_gaps(p, k):
    solver = ScenarioSolver(p)
    side = solver.timeline.side(k)
    curve = solver.timeline.curves[side.shock]
    T_s = solver.timeline.times[side.shock_event]
    for m in (1.001, 2.0, 10.0, 1e3, 1e6):
        t = m * T_s
        assert curve.param_point(curve.rho_of_t(t))[1] == pytest.approx(t, rel=2e-8)


# -- roots against a 50-digit root ------------------------------------------------


def _reference_g(p, side):
    """(g, B, G0) to 50 digits, g a function of rho to call inside
    mpmath.workdps(50).  g is the unreduced integration by parts: T_s
    (far - start)^2 plus the bracket [(far - r)(fixed - r) tau(r) +
    (fixed - far) I(r)] from start to rho, with tau the hodograph's t and
    I = -A/e - B/(2 e^2) its antiderivative.  B and G0 are the constants of
    the reduced form g = G0 + B (e - w) / (2 e^2)."""
    mp = mpmath
    with mp.workdps(50):
        q1, q2, mu1, mu2, x1, x2 = (mp.mpf(v) for v in (p.q1, p.q2, p.mu1, p.mu2, p.x1, p.x2))
        f, far, start = (mp.mpf(v) for v in (side.fixed, side.far, side.start))
        C = (1 if side.k == 1 else -1) * (x2 - x1) / (q1 * q2)
        A, B = C * (2 * f - (q1 + q2)), 2 * C * (f - q1) * (f - q2)

        def tau(r):
            R1, R2 = (r, f) if side.k == 1 else (f, r)
            N = 2 * R1 * R2 + 2 * q1 * q2 - (q1 + q2) * (R1 + R2)
            return (x2 - x1) * N / (q1 * q2 * (R1 - R2) ** 3)

        def bracket(r):
            e = r - f
            return (far - r) * (f - r) * tau(r) + (f - far) * (-A / e - B / (2 * e * e))

        g_start = _event_time(p, side.k) * (far - start) ** 2 - bracket(start)
        return (lambda r: g_start + bracket(mp.mpf(r))), B, C * ((mu1 - q1) - (q2 - mu2))


def _reference_root(p, side, t, guess):
    """The root of g(rho) = t (far - rho)^2 to 50 digits, and the float
    evaluation's rounding scale there: the sum of the magnitudes of G0,
    B (e - w) / (2 e^2) and t w^2, over |F'| = |w (B/e^3 + 2 t)|."""
    mp = mpmath
    g, B, G0 = _reference_g(p, side)
    with mp.workdps(50):
        far = mp.mpf(side.far)
        rho = mp.findroot(lambda r: g(r) - t * (far - r) ** 2, mp.mpf(guess),
                          tol=mp.mpf(10) ** -45)
        e, w = rho - side.fixed, far - rho
        terms = abs(G0) + abs(B * (e - w) / (2 * e * e)) + t * w * w
        return rho, float(terms / abs(w * (B / e**3 + 2 * t)))


def _cone_sides(draws=8, seed=28):
    """(instance, side) pairs for both sides of `draws` seeded instances on
    the cone, relative gaps log-uniform in [1e-3, 5]."""
    rng = np.random.default_rng(seed)
    sides = []
    for _ in range(draws):
        q1 = rng.uniform(0.05, 10.0)
        a, b, c = np.exp(rng.uniform(math.log(1e-3), math.log(5.0), 3))
        mu1 = q1 * (1 + a)
        mu2 = mu1 * (1 + b)
        x1 = rng.uniform(-3.0, 0.0)
        p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=mu2 * (1 + c), x1=x1,
                          x2=x1 + rng.uniform(1e-2, 10.0))
        sides += [(p, 1), (p, 2)]
    return sides


@pytest.mark.parametrize("p, k", NARROW_SHOCKS + _cone_sides())
def test_shock_root_matches_50_digit_root(p, k):
    """Each root is within an ulp of the 50-digit root, plus g's and t w^2's
    rounding carried through F': the terms of F can cancel, so the root of
    the float F can sit several ulp from the exact one (8 ulp on one of 400
    drawn cone sides with gaps down to 5e-2)."""
    solver = ScenarioSolver(p)
    side = solver.timeline.side(k)
    curve = solver.timeline.curves[side.shock]
    T_s = solver.timeline.times[side.shock_event]
    for m in (1.001, 2.0, 10.0, 1e3, 1e6):
        rho = curve.rho_of_t(m * T_s)
        ref, scale = _reference_root(p, side, m * T_s, rho)
        bound = math.ulp(rho) + 2.0 * 2.0**-52 * scale
        assert abs(rho - float(ref)) <= bound, (m, float((rho - ref) / math.ulp(rho)))


@pytest.mark.parametrize("p, k", NARROW_SHOCKS, ids=["Theta", "Phi", "Phi-at-far"])
def test_shock_beta_at_narrow_gaps_matches_50_digit_reference(p, k):
    solver = ScenarioSolver(p)
    side = solver.timeline.side(k)
    curve = solver.timeline.curves[side.shock]
    t_s = _event_time(p, k)
    for s in (1.0, 0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6):
        rho = side.far - (side.far - side.start) * s
        beta_ref = _reference(p, side, t_s, rho)[1]
        assert abs(curve.param_point(rho)[1] - beta_ref) <= 1e-15 * beta_ref, s


_LOG_GAP = st.floats(-4.0, math.log10(5.0)).map(lambda v: 10.0**v)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(q1=st.floats(0.05, 10.0), a=_LOG_GAP, b=_LOG_GAP, c=_LOG_GAP,
       x1=st.floats(-3.0, 0.0), width=st.floats(1e-2, 10.0))
# Derandomized draws still depend on which modules are loaded: hypothesis
# draws some floats from the constants of every module outside
# site-packages.  This draw once failed only in the full suite.
@example(q1=3.625, a=1e-4, b=1.0, c=1e-3, x1=-1.0, width=2.0)
def test_shock_roots_in_their_bracket_down_to_narrow_gaps(q1, a, b, c, x1, width):
    mu1 = q1 * (1 + a)
    mu2 = mu1 * (1 + b)
    p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=mu2 * (1 + c), x1=x1, x2=x1 + width)
    solver = ScenarioSolver(p)
    for side, curve in _sides(solver):
        t_s, w0 = curve.t_start, side.far - side.start
        # g at the rho sampled: w0 s differs from far - rho by rho's
        # rounding, which outweighs g's steps where w0 is narrow.
        g = lambda rho: curve.param_point(rho)[1] * (side.far - rho) ** 2
        # g = beta (far - rho)^2 rises from start toward far; the samples
        # stop at 1e-2 of the gap, where g's steps still exceed its rounding.
        rhos = side.far - w0 * np.geomspace(1.0, 1e-2, 9)
        assert np.all(np.diff([g(rho) for rho in rhos]) > 0), side.k
        betas = [curve.param_point(side.far - w0 * s)[1] for s in np.geomspace(1.0, 1e-9, 64)]
        assert np.all(np.diff(betas) > 0), side.k
        # At the root |far - rho| = sqrt(g(rho) / t), g between g(start) =
        # T_s w0^2 and g(far); the bracket's ends round to an ulp of far.
        with mpmath.workdps(50):
            g_far = float(_reference_g(p, side)[0](side.far))
        lo, hi = sorted((side.start, side.far))
        for t in t_s * np.geomspace(1.0, 1e12, 13):
            rho = curve.rho_of_t(t)
            assert lo <= rho <= hi, (side.k, t)
            offset, slack = abs(side.far - rho), 2.0 * math.ulp(side.far)
            assert offset >= abs(w0) * math.sqrt(t_s / t) * (1.0 - 1e-15) - slack, (side.k, t)
            assert offset <= math.sqrt(g_far / t) * (1.0 + 1e-15) + slack, (side.k, t)
