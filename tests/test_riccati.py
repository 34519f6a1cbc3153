import time

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from enkfcontrol.config import heat_config
from enkfcontrol.harness import build_full_simulator
from enkfcontrol.riccati import (
    AssumptionError,
    LtiSystem,
    OracleError,
    invert_spd,
    lqr_gain,
    riccati_residual,
    solve_are,
    solve_dre,
    validate_system,
)


def scalar_system(a=0.0, g=1.0):
    return LtiSystem(A=[[a]], B=[[1.0]], C=[[1.0]], R=[[1.0]], G=[[g]])


def random_stable_system(rng, n, m):
    A = rng.normal(size=(n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(n, n))
    return LtiSystem(A=A, B=B, C=C, R=np.eye(m), G=np.eye(n))


class TestValidate:
    def test_uncontrollable_rejected(self):
        sys = LtiSystem(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), R=[[1.0]], G=np.eye(2))
        with pytest.raises(AssumptionError):
            validate_system(sys)

    def test_unobservable_rejected(self):
        sys = LtiSystem(A=np.diag([1.0, 2.0]), B=np.ones((2, 1)), C=[[1.0, 0.0]], R=[[1.0]], G=np.eye(2))
        with pytest.raises(AssumptionError):
            validate_system(sys)

    def test_indefinite_r_rejected(self):
        sys = LtiSystem(A=[[0.0]], B=[[1.0]], C=[[1.0]], R=[[-1.0]], G=[[1.0]])
        with pytest.raises(AssumptionError):
            validate_system(sys)

    def test_good_system_passes(self):
        validate_system(scalar_system())

    def test_uncontrollable_stable_mode_accepted(self):
        # stabilizable, not controllable: the unactuated mode decays on its own
        sys = LtiSystem(A=np.diag([-1.0, 1.0]), B=[[0.0], [1.0]], C=np.eye(2), R=[[1.0]])
        validate_system(sys)

    def test_uncontrollable_marginal_mode_rejected(self):
        sys = LtiSystem(A=np.diag([0.0, -1.0]), B=[[0.0], [1.0]], C=np.eye(2), R=[[1.0]])
        with pytest.raises(AssumptionError):
            validate_system(sys)


class TestDre:
    def test_fixed_point_of_flow(self):
        rng = np.random.default_rng(11)
        sys = random_stable_system(rng, 4, 2)
        P_bar = solve_are(sys)
        sys_at_fp = LtiSystem(sys.A, sys.B, sys.C, sys.R, P_bar)
        P0 = solve_dre(sys_at_fp, T=2.0, dt=1e-3)
        assert np.linalg.norm(P0 - P_bar, "fro") < 1e-8

    def test_scalar_identity_terminal(self):
        # G=1 equals the stationary point, so P(0)=1 for every horizon
        for T in (0.1, 1.0, 5.0):
            P0 = solve_dre(scalar_system(), T=T, dt=1e-3)
            assert P0[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_scalar_converges_from_g2(self):
        P0 = solve_dre(scalar_system(g=2.0), T=20.0, dt=1e-3)
        assert P0[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_monotone_convergence_in_horizon(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            sys = random_stable_system(rng, 3, 2)
            P_bar = solve_are(sys)
            errs = [
                np.linalg.norm(solve_dre(sys, T=T, dt=1e-3) - P_bar, "fro")
                for T in (0.5, 1.0, 2.0, 4.0)
            ]
            assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))


class TestAre:
    def test_scalar_root(self):
        start = time.time()
        P = solve_are(scalar_system())
        assert P[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert time.time() - start < 1.0

    @pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
    def test_scalar_closed_form(self, a):
        P = solve_are(scalar_system(a=a))
        assert P[0, 0] == pytest.approx(a + np.sqrt(a * a + 1.0), abs=1e-8)

    def test_diagonal_3state(self):
        n = 3
        sys = LtiSystem(A=-np.eye(n), B=np.eye(n), C=np.eye(n), R=np.eye(n), G=np.eye(n))
        P = solve_are(sys)
        assert np.allclose(P, (np.sqrt(2.0) - 1.0) * np.eye(n), atol=1e-8)

    def test_residual_and_spd(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            sys = random_stable_system(rng, 5, 2)
            P = solve_are(sys)
            assert np.allclose(P, P.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(P)) > 0
            assert riccati_residual(sys, P) <= 1e-8 * max(1.0, np.linalg.norm(sys.Q, "fro"))

    def test_paper_heat_system(self):
        # periodic heat, p = 100, m = 8: not controllable, but stabilizable,
        # as its one marginal mode (the constant) is actuated: 1'B != 0
        cfg = heat_config()
        sim = build_full_simulator(cfg)
        sys = LtiSystem(A=sim.A, B=sim.control_matrix, C=np.eye(cfg.p), R=np.eye(cfg.m))
        P = solve_are(sys)
        assert np.array_equal(P, P.T)
        assert np.min(np.linalg.eigvalsh(P)) > 0
        assert riccati_residual(sys, P) <= 1e-8 * max(1.0, np.linalg.norm(sys.Q, "fro"))
        P_ref = solve_continuous_are(sys.A, sys.B, sys.Q, sys.R)
        assert np.linalg.norm(P - P_ref, "fro") <= 1e-9 * np.linalg.norm(P_ref, "fro")

    def test_matches_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            sys = random_stable_system(rng, 4, 2)
            P = solve_are(sys)
            P_ref = solve_continuous_are(sys.A, sys.B, sys.Q, sys.R)
            assert np.linalg.norm(P - P_ref, "fro") < 1e-7 * np.linalg.norm(P_ref, "fro") + 1e-9


class TestLqrGain:
    def test_scalar_gain(self):
        sys = scalar_system()
        K = lqr_gain(sys, solve_are(sys))
        assert K[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert (sys.A - sys.B @ K)[0, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_diagonal_gain(self):
        n = 3
        sys = LtiSystem(A=-np.eye(n), B=np.eye(n), C=np.eye(n), R=np.eye(n), G=np.eye(n))
        K = lqr_gain(sys, solve_are(sys))
        assert np.allclose(K, (np.sqrt(2.0) - 1.0) * np.eye(n), atol=1e-8)

    def test_hurwitz_enforced(self):
        sys = scalar_system()
        with pytest.raises(OracleError):
            lqr_gain(sys, np.array([[-5.0]]))  # wrong-sign P destabilizes

    def test_closed_loop_stable_random(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            sys = random_stable_system(rng, 4, 2)
            K = lqr_gain(sys, solve_are(sys))
            assert np.max(np.linalg.eigvals(sys.A - sys.B @ K).real) < 0


def test_invert_spd_is_a_symmetric_inverse():
    rng = np.random.default_rng(30)
    M = rng.normal(size=(6, 6))
    M = M @ M.T + np.eye(6)
    P = invert_spd(M)
    assert np.max(np.abs(P - P.T)) <= 1e-15 * np.max(np.abs(P))
    np.testing.assert_allclose(P @ M, np.eye(6), rtol=0, atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        invert_spd(-M)
