"""Cross-regime robustness: orderings the reference scenario never hits."""

import numpy as np
import pytest

from zesolver import MixtureParams
from zesolver.fv_reference import Grid1D, fv_runs, l1_error
from zesolver.invariants import concentrations_from_invariants
from zesolver.isochrone import ScenarioSolver


@pytest.fixture(scope="module")
def crossed():
    # Here T_6 < T_10 < T_3 < T_9 < T_fin: the right pair finishes
    # interacting while the left fan zone is still alive.
    return ScenarioSolver(MixtureParams(mu1=5, mu2=8, q1=1, q2=20, x1=-1, x2=1))


def test_crossed_regime_event_order(crossed):
    T = crossed.timeline.times
    assert T["T_6"] < T["T_10"] < T["T_3"] < T["T_9"] < T["T_fin"]


def test_crossed_regime_profiles_conserve_mass(crossed):
    p = crossed.params
    u1_in, u2_in = concentrations_from_invariants(p, p.q1, p.q2)
    m1_ref = float(u1_in) * (p.x2 - p.x1)
    m2_ref = float(u2_in) * (p.x2 - p.x1)
    T = crossed.timeline.times
    probe = [
        0.5 * T["T_6"],
        0.5 * (T["T_6"] + T["T_10"]),
        0.5 * (T["T_10"] + T["T_3"]),  # Z3 alive while Theta already curved
        0.5 * (T["T_3"] + T["T_9"]),
        0.5 * (T["T_9"] + T["T_fin"]),
        1.5 * T["T_fin"],
    ]
    for t_star in probe:
        prof = crossed.profile_at(t_star, n=4096)
        m1, m2 = prof.mass()
        assert m1 == pytest.approx(m1_ref, abs=5e-4)
        assert m2 == pytest.approx(m2_ref, abs=5e-4)


def test_crossed_regime_zone_chain(crossed):
    T = crossed.timeline.times
    t = 0.5 * (T["T_10"] + T["T_3"])
    prof = crossed.profile_at(t, n=512)
    zones = [z for z, _ in prof.zone_runs()]
    assert zones == ["Z1", "Z2", "Z3", "Z5", "Z10", "Z8"]


@pytest.fixture(scope="module")
def late():
    # q1 close to mu1 pushes T_9 past T_fin: Z2 outlives Z5, and the left
    # shock curves only after the separation.
    return ScenarioSolver(MixtureParams(mu1=5, mu2=8, q1=4.9, q2=10, x1=-1, x2=1))


#: One time between T_3 and T_fin and one after T_fin, both before T_9.
LATE_TIMES = (0.0227, 0.0356)


def test_late_shock_regime_event_order(late):
    T = late.timeline.times
    assert T["T_int"] < T["T_6"] < T["T_10"] < T["T_3"] < T["T_fin"] < T["T_9"]


def test_late_shock_regime_zone_chains(late):
    chains = [[iv.zone for iv in late.timeline.zones_at(t)] for t in LATE_TIMES]
    assert chains == [["Z1", "Z2", "Z9", "Z5", "Z10", "Z8"],
                      ["Z1", "Z2", "Z9", "Z11", "Z10", "Z8"]]


def test_late_shock_regime_profiles_conserve_mass(late):
    p = late.params
    u1_in, u2_in = concentrations_from_invariants(p, p.q1, p.q2)
    T = late.timeline.times
    for t_star in (*LATE_TIMES, 0.5 * (T["T_fin"] + T["T_9"]), 1.5 * T["T_9"]):
        m1, m2 = late.profile_at(t_star, n=4096).mass()
        assert m1 == pytest.approx(float(u1_in) * (p.x2 - p.x1), abs=5e-4), t_star
        assert m2 == pytest.approx(float(u2_in) * (p.x2 - p.x1), abs=5e-4), t_star


def test_late_shock_regime_matches_fv_oracle(late):
    # The grid runs from -2 to 2 past the right shock, so it holds both; each
    # refinement lowers the L1 error of both components.
    for t_star in LATE_TIMES:
        x_hi = late.timeline.zones_at(t_star)[-1].x_left + 2.0
        prof = late.profile_at(t_star, n=16384, window=(-2.0, x_hi))
        grids = [Grid1D(-2.0, x_hi, n, 0.45) for n in (500, 1000, 2000)]
        errors = [l1_error(res, prof) for res in fv_runs(late.params, grids, t_star)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine[0] < coarse[0] and fine[1] < coarse[1], (t_star, errors)
        assert errors[-1][0] < 0.01 and errors[-1][1] < 0.02, (t_star, errors)


def test_profiles_at_exact_event_times(solver):
    for label, T in solver.timeline.times.items():
        prof = solver.profile_at(T, n=1024)
        m1, m2 = prof.mass()
        assert m1 == pytest.approx(4.0, abs=1e-3), label
        assert m2 == pytest.approx(-2.0, abs=1e-3), label


def test_profile_state_continuity_at_zone_boundaries(solver):
    # Weak boundaries carry continuous invariants; shock boundaries jump by
    # the catalogued plateau difference.
    weak_pairs = {
        ("Z2", "Z3"), ("Z3", "Z4"), ("Z4", "Z6"), ("Z6", "Z7"),
        ("Z3", "Z5"), ("Z5", "Z6"), ("Z2", "Z9"), ("Z9", "Z5"),
        ("Z5", "Z10"), ("Z10", "Z7"), ("Z9", "Z11"), ("Z11", "Z10"),
    }
    for t_star in (0.01, 0.018, 0.028, 0.05, 0.25):
        prof = solver.profile_at(t_star, n=2048)
        runs = prof.zone_runs()
        for (za, sa), (zb, sb) in zip(runs, runs[1:]):
            jump1 = abs(prof.R1[sb.start] - prof.R1[sa.stop - 1])
            jump2 = abs(prof.R2[sb.start] - prof.R2[sa.stop - 1])
            if (za, zb) in weak_pairs:
                assert max(jump1, jump2) < 1e-8, (t_star, za, zb)
            else:
                # Z1|Z2 and Z1|Z9 jump in R1, Z7|Z8 and Z10|Z8 in R2.
                assert max(jump1, jump2) > 1e-3, (t_star, za, zb)


def test_z9_z10_domain_guards(solver):
    from zesolver.errors import DomainError

    with pytest.raises(DomainError):
        solver.z9_profile(0.5 * solver.timeline.times["T_3"])
    with pytest.raises(DomainError):
        solver.z10_profile(0.5 * solver.timeline.times["T_6"])


def test_random_parameter_profiles_conserve_mass():
    # Eight draws of acceptance 9's law, with either shock forming before or
    # after T_fin; the last time follows every event.
    rng = np.random.default_rng(42)
    late = 0
    for _ in range(8):
        mu1 = rng.uniform(1.0, 6.0)
        mu2 = mu1 + rng.uniform(0.5, 5.0)
        q1 = rng.uniform(0.5, mu1)
        q2 = rng.uniform(mu2, 3 * mu2)
        p = MixtureParams(mu1=mu1, mu2=mu2, q1=q1, q2=q2, x1=-1.0, x2=1.0)
        s = ScenarioSolver(p)
        u1_in, u2_in = concentrations_from_invariants(p, q1, q2)
        m1_ref, m2_ref = float(u1_in) * 2.0, float(u2_in) * 2.0
        T = s.timeline.times
        late += max(T["T_9"], T["T_10"]) > T["T_fin"]
        scale = max(1.0, abs(m1_ref), abs(m2_ref))
        for t_star in (0.5 * T["T_int"], 0.6 * T["T_fin"], 1.4 * T["T_fin"],
                       1.4 * max(T.values())):
            m1, m2 = s.profile_at(t_star, n=3000).mass()
            assert abs(m1 - m1_ref) < 1e-3 * scale, (p, t_star)
            assert abs(m2 - m2_ref) < 1e-3 * scale, (p, t_star)
    assert 0 < late < 8


def test_general_march_pre_interaction(solver, params):
    from zesolver.cauchy_general import PiecewiseInitialData, general_profile

    data = PiecewiseInitialData.from_scenario(params)
    t_star = 0.005
    res = general_profile(data, t_star, (-3.0, 4.0), mobilities=(5.0, 8.0))
    assert res.max_drift <= 1e-8 * t_star
    for cid in ("xl2", "xr2", "xl1", "xr1"):
        target = solver.timeline.curves[cid].x(t_star)
        nearest = min(res.knots, key=lambda k: abs(k - target))
        assert nearest == pytest.approx(target, abs=1e-6)
