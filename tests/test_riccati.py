import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from enkfcontrol.riccati import LtiSystem, invert_spd, solve_dre


def scalar_system(a=0.0, g=1.0):
    return LtiSystem(A=[[a]], B=[[1.0]], C=[[1.0]], R=[[1.0]], G=[[g]])


def random_stable_system(rng, n, m):
    A = rng.normal(size=(n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(n, n))
    return LtiSystem(A=A, B=B, C=C, R=np.eye(m), G=np.eye(n))


class TestDre:
    def test_fixed_point_of_flow(self):
        rng = np.random.default_rng(11)
        sys = random_stable_system(rng, 4, 2)
        P_bar = solve_continuous_are(sys.A, sys.B, sys.Q, sys.R)
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
            P_bar = solve_continuous_are(sys.A, sys.B, sys.Q, sys.R)
            errs = [
                np.linalg.norm(solve_dre(sys, T=T, dt=1e-3) - P_bar, "fro")
                for T in (0.5, 1.0, 2.0, 4.0)
            ]
            assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))


def test_invert_spd_is_a_symmetric_inverse():
    rng = np.random.default_rng(30)
    M = rng.normal(size=(6, 6))
    M = M @ M.T + np.eye(6)
    P = invert_spd(M)
    assert np.max(np.abs(P - P.T)) <= 1e-15 * np.max(np.abs(P))
    np.testing.assert_allclose(P @ M, np.eye(6), rtol=0, atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        invert_spd(-M)
