import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zesolver import MixtureParams, riemann_green
from zesolver.errors import CoincidentInvariants
from zesolver.hodograph import ImplicitSolution
from zesolver.invariants import lambda_k


def goursat(R1_0, R2_0, t0, on_r1_axis, on_r2_axis, R1, R2):
    """The paper's Goursat solution with kernel V at the hodograph point (R1, R2).

    t is given on the two characteristics through the corner (R1_0, R2_0),
    where it is t0: on_r1_axis(R1) = t(R1, R2_0), on_r2_axis(R2) = t(R1_0, R2).
    With d = R1 - R2 and the boundary integrals H1 = int_{R1_0}^{R1}
    on_r1_axis, H2 = int_{R2_0}^{R2} on_r2_axis,

        t = -V(R1_0, R2_0 | R1, R2) t0
            + 2 (R1-R1_0)(R2-R1_0) H2 / d^3 - 2 (R1-R2_0)(R2-R2_0) H1 / d^3
            + (R1-R2_0)^2 t(R1, R2_0) / d^2 + (R2-R1_0)^2 t(R1_0, R2) / d^2.
    """
    H1 = quad(on_r1_axis, R1_0, R1, epsabs=1e-13, epsrel=1e-13)[0]
    H2 = quad(on_r2_axis, R2_0, R2, epsabs=1e-13, epsrel=1e-13)[0]
    d = R1 - R2
    return (
        -riemann_green(R1_0, R2_0, R1, R2) * t0
        + 2.0 * (R1 - R1_0) * (R2 - R1_0) * H2 / d**3
        - 2.0 * (R1 - R2_0) * (R2 - R2_0) * H1 / d**3
        + (R1 - R2_0) ** 2 * on_r1_axis(R1) / d**2
        + (R2 - R1_0) ** 2 * on_r2_axis(R2) / d**2
    )


def scenario_axes(hodo):
    """The scenario's Goursat data: t(R1, q2) and t(q1, R2), the time along
    the bounding characteristics theta and phi through (q1, q2)."""
    p, T = hodo.params, hodo.T_int
    return (lambda R1: T * (p.q2 - p.q1) ** 2 / (R1 - p.q2) ** 2,
            lambda R2: T * (p.q2 - p.q1) ** 2 / (R2 - p.q1) ** 2)


def scenario_goursat(hodo, R1, R2):
    """goursat on the scenario's data, from t = T_int at the corner (q1, q2)."""
    p = hodo.params
    return goursat(p.q1, p.q2, hodo.T_int, *scenario_axes(hodo), R1, R2)


def test_kernel_normalization():
    assert riemann_green(2, 10, 2, 10) == 1.0
    assert riemann_green(3.3, 9.1, 3.3, 9.1) == pytest.approx(1.0, rel=1e-14)


def test_kernel_reference_values(hodo):
    # T_int * V(q | mu) is the separation time, T_int * V(q | q1, mu2) the
    # first fan-death time; both figure captions pin the products.
    assert riemann_green(2, 10, 5, 8) == pytest.approx(32 / 3, rel=1e-14)
    assert riemann_green(2, 10, 2, 8) == pytest.approx(16 / 9, rel=1e-14)
    assert hodo.T_int * riemann_green(2, 10, 5, 8) == pytest.approx(2 / 15, rel=1e-14)
    assert hodo.T_int * riemann_green(2, 10, 2, 8) == pytest.approx(1 / 45, rel=1e-14)


def test_kernel_coincident_guard():
    with pytest.raises(CoincidentInvariants):
        riemann_green(2, 10, 4, 4 + 1e-12)


def test_time_surface_reference_values(hodo):
    assert hodo.t(2, 10) == pytest.approx(0.0125, abs=1e-15)
    assert hodo.t(5, 8) == pytest.approx(2 / 15, rel=1e-14)
    assert hodo.t(2, 8) == pytest.approx(1 / 45, rel=1e-14)
    assert hodo.t(5, 10) == pytest.approx(0.032, rel=1e-14)


def test_position_surface_reference_values(hodo):
    assert hodo.x(2, 10) == pytest.approx(1.5, rel=1e-14)  # X_int
    assert hodo.x(2, 8) == pytest.approx(-1 + 128 / 45, rel=1e-13)  # X_3
    assert hodo.x(5, 8) == pytest.approx(31.0, rel=1e-13)  # X_fin


def test_time_positive_and_finite_inside_rectangle(hodo):
    R1, R2 = np.meshgrid(np.linspace(2, 5, 30), np.linspace(8, 10, 30))
    t = hodo.t(R1, R2)
    assert np.all(np.isfinite(t))
    assert np.all(t > 0)


def test_partials_match_finite_differences(hodo):
    h = 1e-6
    for R1, R2 in ((3.0, 9.0), (2.2, 8.4), (4.8, 9.9)):
        d1, d2 = hodo.t_partials(R1, R2)
        fd1 = (hodo.t(R1 + h, R2) - hodo.t(R1 - h, R2)) / (2 * h)
        fd2 = (hodo.t(R1, R2 + h) - hodo.t(R1, R2 - h)) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-6)
        assert d2 == pytest.approx(fd2, rel=1e-6)


def test_partial_at_corner_matches_boundary_derivative(hodo):
    # d/dR1 of the theta-side boundary time at R1 = q1 is
    # -2 T_int (q1-q2)^2 / (q1-q2)^3 = 2 T_int / (q2-q1).
    p = hodo.params
    expected = 2 * hodo.T_int / (p.q2 - p.q1)
    assert hodo.t_partials(p.q1, p.q2)[0] == pytest.approx(expected, rel=1e-12)


def test_partials_index_exchange_symmetry(hodo):
    # The kernel is symmetric in (q1, q2); swapping the two invariant
    # arguments maps dt/dR1 <-> -dt/dR2.
    for R1, R2 in ((2.5, 9.0), (4.0, 8.2)):
        d1, d2 = hodo.t_partials(R1, R2)
        d1s, d2s = hodo.t_partials(R2, R1)
        assert d1s == pytest.approx(-d2, rel=1e-13)
        assert d2s == pytest.approx(-d1, rel=1e-13)


def test_boundary_restrictions_are_exact(hodo):
    p = hodo.params
    on_theta, on_phi = scenario_axes(hodo)
    R2 = np.linspace(p.mu2, p.q2, 17)
    assert hodo.t(p.q1, R2) == pytest.approx(on_phi(R2), rel=1e-12)
    R1 = np.linspace(p.q1, p.mu1, 17)
    assert hodo.t(R1, p.q2) == pytest.approx(on_theta(R1), rel=1e-12)


def test_hodograph_consistency_relations(hodo):
    # dx/dR2 = lambda1 dt/dR2 and dx/dR1 = lambda2 dt/dR1, checked with
    # central differences of both closed forms.
    h = 1e-6
    R1g = np.linspace(2.05, 4.95, 50)
    R2g = np.linspace(8.05, 9.95, 50)
    worst = 0.0
    for R1 in R1g[::7]:
        for R2 in R2g[::7]:
            x_r1 = (hodo.x(R1 + h, R2) - hodo.x(R1 - h, R2)) / (2 * h)
            x_r2 = (hodo.x(R1, R2 + h) - hodo.x(R1, R2 - h)) / (2 * h)
            t_r1 = (hodo.t(R1 + h, R2) - hodo.t(R1 - h, R2)) / (2 * h)
            t_r2 = (hodo.t(R1, R2 + h) - hodo.t(R1, R2 - h)) / (2 * h)
            r1 = abs(x_r1 - lambda_k(2, R1, R2) * t_r1) / max(abs(x_r1), 1e-300)
            r2 = abs(x_r2 - lambda_k(1, R1, R2) * t_r2) / max(abs(x_r2), 1e-300)
            worst = max(worst, r1, r2)
    assert worst < 1e-6


def test_pde_residual_under_finite_differences(hodo):
    h = 1e-4
    worst = 0.0
    for R1 in np.linspace(2.1, 4.9, 12):
        for R2 in np.linspace(8.1, 9.9, 12):
            t_cross = (
                hodo.t(R1 + h, R2 + h)
                - hodo.t(R1 + h, R2 - h)
                - hodo.t(R1 - h, R2 + h)
                + hodo.t(R1 - h, R2 - h)
            ) / (4 * h * h)
            t_r1 = (hodo.t(R1 + h, R2) - hodo.t(R1 - h, R2)) / (2 * h)
            t_r2 = (hodo.t(R1, R2 + h) - hodo.t(R1, R2 - h)) / (2 * h)
            other = 2.0 * (t_r1 - t_r2) / (R2 - R1)
            rel = abs(t_cross + other) / max(abs(t_cross), abs(other))
            worst = max(worst, rel)
    assert worst < 1e-6


def test_goursat_reproduces_closed_form(hodo):
    # Both corners and an interior grid of the README instance; the oracle
    # meets the closed form to about 1e-15 relative there.
    assert scenario_goursat(hodo, 2.0, 10.0) == pytest.approx(0.0125, rel=1e-13)
    assert scenario_goursat(hodo, 5.0, 8.0) == pytest.approx(2 / 15, rel=1e-13)
    for R1 in (2.5, 3.5, 4.5):
        for R2 in (8.3, 9.0, 9.7):
            assert scenario_goursat(hodo, R1, R2) == pytest.approx(
                hodo.t(R1, R2), rel=1e-13
            )


def test_goursat_constant_data_normalization():
    const = lambda r: 0.37
    assert goursat(2.0, 10.0, 0.37, const, const, 2.0, 10.0) == pytest.approx(
        0.37, rel=1e-12
    )


#: Relative gap between consecutive values of q1 < mu1 < mu2 < q2.
_GAP = st.floats(1e-2, 5.0)
#: Interior points of the interaction rectangle, as fractions of its sides.
_FRACTIONS = (0.2, 0.5, 0.8)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(q1=st.floats(0.05, 10.0), a=_GAP, b=_GAP, c=_GAP,
       x1=st.floats(-3.0, 0.0), width=st.floats(1e-2, 10.0))
def test_goursat_reproduces_closed_form_on_the_cone(q1, a, b, c, x1, width):
    # Near its R1 = R2 pole the closed form t rounds to about eps / gap^2
    # relative.  Over 500 random interior points per row the worst
    # |oracle - t| / |t| was 1.9e-14 at gaps >= 1e-1, 5.1e-13 at >= 1e-2 and
    # 4.4e-11 at >= 1e-3.  On this test's grid, over 162,000 points of
    # 18,000 instances with each gap pinned at 1e-2 half the time, it was
    # 6.4e-12; the bound is about 3x that.
    mu1 = q1 * (1 + a)
    mu2 = mu1 * (1 + b)
    q2 = mu2 * (1 + c)
    hodo = ImplicitSolution(MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=x1, x2=x1 + width))
    for u in _FRACTIONS:
        for v in _FRACTIONS:
            R1, R2 = q1 + u * (mu1 - q1), mu2 + v * (q2 - mu2)
            t = hodo.t(R1, R2)
            err = abs(scenario_goursat(hodo, R1, R2) - t)
            assert err <= 2e-11 * abs(t), (hodo.params, R1, R2)
