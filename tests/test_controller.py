import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from enkfcontrol.config import ConfigError, default_config
from enkfcontrol.controller import (
    ControlLaw,
    RankDeficientError,
    compile_law,
    estimate_b,
    minimize_hamiltonian,
    robust_control,
    robust_term,
)
from enkfcontrol.enkf import GainApprox
from enkfcontrol.pde import BurgersSimulator, GridSpec, LinearSimulator, build_control_matrix


def make_gain(P):
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return GainApprox(P=P)


def make_law(P, B, R, r=0.01, reduction=None):
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return ControlLaw(gain=make_gain(P), B=B, R=R, r=r, reduction=reduction)


def controls(compiled, Z, lam):
    """The (batch, m) controls of the rows of Z, from the compiled law bound to them."""
    U = np.zeros((len(Z), (compiled.H.shape[1] - compiled.n) // 2))
    compiled.bind(Z, np.asarray(lam, dtype=float), U)()
    return U


def random_lti(rng, n, m):
    A = rng.normal(size=(n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    B = rng.normal(size=(n, m))
    return A, B


class TestMinimizeHamiltonian:
    def test_zero_state_gives_zero_control(self):
        rng = np.random.default_rng(2)
        A, B = random_lti(rng, 3, 2)
        law = make_law(np.eye(3), B, 1.0)
        assert np.allclose(minimize_hamiltonian(law, np.zeros(3)), 0.0)

    def test_scalar_complete_square(self):
        # A=0, B=1, Q=R=1, P=1: H(1, u) = u + (1 + u^2)/2, minimum at u=-1
        law = make_law([[1.0]], [[1.0]], 1.0)
        assert minimize_hamiltonian(law, np.array([1.0])) == pytest.approx([-1.0])

    def test_matches_the_closed_form_on_random_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(2, 6)
            m = rng.integers(1, n + 1)
            A, B = random_lti(rng, n, m)
            M = rng.normal(size=(n, n))
            P = M @ M.T + 0.1 * np.eye(n)
            R = float(rng.uniform(0.5, 2.0))
            x = rng.normal(size=n)
            u = minimize_hamiltonian(make_law(P, B, R), x)
            assert np.allclose(u, -B.T @ P @ x / R, atol=1e-10)

    def test_global_minimum_property(self):
        rng = np.random.default_rng(4)
        A, B = random_lti(rng, 4, 2)
        P, Q, R = np.eye(4) * 2.0, np.eye(4), 2.5
        law = make_law(P, B, R)

        def H(x, u):  # g'(Ax + Bu) + (x'Qx + R u'u)/2 with g = Px
            return (P @ x) @ (A @ x + B @ u) + 0.5 * (x @ Q @ x + R * u @ u)

        for _ in range(100):
            x = rng.normal(size=4)
            u_star = minimize_hamiltonian(law, x)
            u_probe = rng.normal(size=2, scale=3.0)
            assert H(x, u_star) <= H(x, u_probe) + 1e-12


class TestEstimateB:
    def test_lti_exact(self):
        rng = np.random.default_rng(5)
        A, B = random_lti(rng, 5, 3)
        sim = LinearSimulator(A, B)
        x = rng.normal(size=5)
        assert np.allclose(estimate_b(sim, x, 3), B, atol=1e-12)

    def test_burgers_state_independent(self):
        grid = GridSpec(p=32)
        sim = BurgersSimulator(grid, 0.01, 4)
        B_expected = build_control_matrix(grid, 4)
        rng = np.random.default_rng(6)
        for _ in range(3):
            x = rng.normal(size=32)
            assert np.allclose(estimate_b(sim, x, 4), B_expected, atol=1e-12)

    def test_empty_control(self):
        # m = 0 never reaches the probe: the config asks for at least one channel
        with pytest.raises(ConfigError, match=r"\[experiment\] m must be between 1 and \[experiment\] p = 100, got 0"):
            default_config("heat", m=0)


class TestRobustTerm:
    def test_worked_example(self):
        # B = I2, g = (3, 4), lambda = 1, r = 0.01: u_d = -(0.6, 0.8)
        law = make_law(np.eye(2), np.eye(2), 1.0, r=0.01)
        u_d = robust_term(law, np.array([3.0, 4.0]), 1.0)
        assert np.allclose(u_d, [-0.6, -0.8], atol=1e-12)

    def test_zero_gradient_inside_ball(self):
        law = make_law(np.eye(2), np.eye(2), 1.0, r=0.01)
        assert np.allclose(robust_term(law, np.zeros(2), 1.0), 0.0)

    def test_lambda_zero_is_identically_zero(self):
        rng = np.random.default_rng(7)
        _, B = random_lti(rng, 3, 2)
        law = make_law(np.eye(3), B, 1.0)
        for _ in range(10):
            assert np.array_equal(robust_term(law, rng.normal(size=3), 0.0), np.zeros(2))

    def test_projection_bound_random_wide(self):
        # |B u_d| <= lambda across random cases with m < n
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, n))
            B = rng.normal(size=(n, m))
            M = rng.normal(size=(n, n))
            P = M @ M.T + 0.1 * np.eye(n)
            lam = float(rng.uniform(0.1, 3.0))
            law = make_law(P, B, 1.0, r=0.01)
            x = rng.normal(size=n)
            u_d = robust_term(law, x, lam)
            assert np.linalg.norm(B @ u_d) <= lam + 1e-9

    def test_full_span_direction(self):
        # g in the column span and |g| >= r: B u_d = -lambda g / |g|
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = 4
            B = rng.normal(size=(n, n))  # square full rank
            M = rng.normal(size=(n, n))
            P = M @ M.T + 0.5 * np.eye(n)
            lam = 0.7
            law = make_law(P, B, 1.0, r=1e-4)
            x = rng.normal(size=n)
            g = P @ x
            u_d = robust_term(law, x, lam)
            assert np.allclose(B @ u_d, -lam * g / np.linalg.norm(g), atol=1e-10)


class TestRobustControl:
    def test_zero_state_zero_control(self):
        rng = np.random.default_rng(11)
        _, B = random_lti(rng, 3, 3)
        law = make_law(np.eye(3), B, 1.0)
        assert np.allclose(robust_control(law, np.zeros(3), 0.5), 0.0)

    def test_closed_loop_decay_without_disturbance(self):
        # pure optimal control on the scalar benchmark: x' = -x after feedback
        sim = LinearSimulator([[0.0]], [[1.0]])
        P = solve_continuous_are([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        law = make_law(P, sim.control_matrix, 1.0)
        x = np.array([1.0])
        dt = 1e-2
        for _ in range(400):
            u = robust_control(law, x, 0.0)
            x = x + dt * sim.rhs(x, u)
        assert abs(x[0]) < np.exp(-3.0)

    def test_reduction_path_uses_projected_state(self):
        from enkfcontrol.dmdc import ReducedModel

        rng = np.random.default_rng(13)
        Phi = np.linalg.qr(rng.normal(size=(6, 2)))[0].T  # 2x6, orthonormal rows
        red = ReducedModel(A=-np.eye(2), B=np.eye(2), Phi=Phi)
        law = make_law(np.eye(2) * 2.0, red.B, 1.0, reduction=red)
        z = rng.normal(size=6)
        u = robust_control(law, z, 0.0)
        expected = -red.B.T @ (2.0 * (Phi @ z))
        assert np.allclose(u, expected, atol=1e-12)


class TestCompiledLaw:
    """The compiled law against the per-state law, on stacks of states."""

    @pytest.mark.parametrize("reduced", [False, True])
    def test_matches_robust_control(self, reduced):
        from enkfcontrol.dmdc import ReducedModel

        rng = np.random.default_rng(15)
        n, m, p = 4, 3, 7
        A, B = random_lti(rng, n, m)
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.2 * np.eye(n)
        R = 0.4
        red = None
        if reduced:
            Phi = np.linalg.qr(rng.normal(size=(p, n)))[0].T
            red = ReducedModel(A=A, B=B, Phi=Phi)
        Z = rng.normal(size=(6, p if reduced else n))
        Z[0] = 0.0
        Z[1] *= 1e-4  # inside the ball |g| < r
        lam = np.array([0.0, 0.7, 0.7, 0.0, 1.3, 0.2])
        law = make_law(P, B, R, r=0.01, reduction=red)
        compiled = compile_law(law)
        # the one-matrix law, and the same law in a random orthonormal basis at y = z Q
        Q = np.linalg.qr(rng.normal(size=(Z.shape[1],) * 2))[0]
        for U in (controls(compiled, Z, lam), controls(compile_law(law, Q), Z @ Q, lam)):
            for z, lam_i, u in zip(Z, lam, U):
                np.testing.assert_allclose(u, robust_control(law, z, lam_i), rtol=1e-12, atol=1e-15)
        # rows bound with lambda = 0 alone take the feedback block
        zero = lam == 0
        for z, u in zip(Z[zero], controls(compiled, Z[zero], lam[zero])):
            np.testing.assert_allclose(u, robust_control(law, z, 0.0), rtol=1e-12, atol=1e-15)

    def test_input_weight_divides_the_feedback(self):
        # at R = 2.5 the compiled law is u_bar + u_d of the per-state functions, and its
        # feedback block is the R = 1 block over R while the gradient and B^+ blocks stay
        rng = np.random.default_rng(17)
        n, m = 5, 2
        A, B = random_lti(rng, n, m)
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.2 * np.eye(n)
        law = make_law(P, B, 2.5)
        compiled, unit = compile_law(law), compile_law(make_law(P, B, 1.0))
        feedback = slice(n, n + m)
        np.testing.assert_allclose(compiled.H[:, feedback], unit.H[:, feedback] / 2.5, rtol=1e-15, atol=0)
        for block in (slice(0, n), slice(n + m, None)):
            np.testing.assert_array_equal(compiled.H[:, block], unit.H[:, block])
        Z = rng.normal(size=(4, n))
        lam = np.array([0.0, 0.5, 1.0, 2.0])
        for z, lam_i, u in zip(Z, lam, controls(compiled, Z, lam)):
            want = minimize_hamiltonian(law, z) + robust_term(law, z, lam_i)
            np.testing.assert_allclose(u, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("n,m", [(6, 2), (4, 4), (3, 1)])
    def test_b_pinv_block_is_numpys_pinv(self, n, m, reduced):
        # the one SVD that checks B's rank also gives B^+ with the bits of np.linalg.pinv,
        # and a full model's H is the block row itself
        from enkfcontrol.dmdc import ReducedModel

        rng = np.random.default_rng(18)
        A, B = random_lti(rng, n, m)
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.2 * np.eye(n)
        Phi = np.linalg.qr(rng.normal(size=(9, n)))[0].T
        law = make_law(P, B, 0.4, reduction=ReducedModel(A=A, B=B, Phi=Phi) if reduced else None)
        rows = np.hstack([P.T, -(B.T @ P / 0.4).T, -(P.T @ np.linalg.pinv(B).T)])
        np.testing.assert_array_equal(compile_law(law).H, Phi.T @ rows if reduced else rows)

    def test_one_svd_per_compiled_law(self, monkeypatch):
        # the rank check and B^+ share one SVD; only a rank-deficient B takes a second, full one.
        # numpy's own functions (pinv among them) call the svd of their module's namespace
        shapes, svd = [], np.linalg.svd
        counted = lambda a, **kw: shapes.append((a.shape, kw)) or svd(a, **kw)
        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setitem(np.linalg.pinv.__wrapped__.__globals__, "svd", counted)
        rng = np.random.default_rng(19)
        _, B = random_lti(rng, 5, 2)
        compile_law(make_law(np.eye(5), B, 1.0))
        assert shapes == [((5, 2), {"full_matrices": False})]
        with pytest.raises(RankDeficientError):
            compile_law(make_law(np.eye(5), np.column_stack([B[:, 0], 2.0 * B[:, 0]]), 1.0))
        assert shapes[1:] == [((5, 2), {"full_matrices": False}), ((5, 2), {})]

    @pytest.mark.parametrize("B,named", [
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], r"rank 1 < m=2; null space involves columns \[1\]"),  # a zero column
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], r"rank 2 < m=3; null space involves columns \[2\]"),  # wider than tall
    ], ids=["zero-column", "wide"])
    def test_names_the_null_space_columns(self, B, named):
        B = np.array(B)
        with pytest.raises(RankDeficientError, match=named):
            compile_law(make_law(np.eye(len(B)), B, 1.0))

    def test_burgers_law_matches_the_per_state_law(self):
        # Burgers enters the input as a constant B u, so its control matrix
        # serves every state
        p, m = 12, 3
        sim = BurgersSimulator(GridSpec(p=p), 0.01, m)
        rng = np.random.default_rng(16)
        M = rng.normal(size=(p, p))
        P = np.eye(p) + M @ M.T / p
        Z = rng.normal(size=(5, p))
        lam = np.array([0.0, 0.5, 1.0, 0.5, 2.0])
        law = make_law(P, sim.control_matrix, 1.0)
        U = controls(compile_law(law), Z, lam)
        for z, lam_i, u in zip(Z, lam, U):
            np.testing.assert_allclose(u, robust_control(law, z, lam_i), rtol=1e-12, atol=0)


class TestLyapunovDecrease:
    """Empirical practical-stability check on random controllable systems."""

    def test_decrease_until_ball_then_bounded(self):
        rng = np.random.default_rng(14)
        passes = 0
        for trial in range(20):
            n = 3
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, n)) + np.eye(n)  # square, full rank a.s.
            P = solve_continuous_are(A, B, np.eye(n), np.eye(n))
            lam = 0.5
            r = 0.05
            sim = LinearSimulator(A, B)
            X, U = np.empty((1, n)), np.empty((1, n))  # the state row and its control
            control = compile_law(make_law(P, B, 1.0, r=r)).bind(X, np.array([lam]), U)

            # adversarial matched disturbance of norm 0.9*lambda enters the
            # state equation directly, aligned with the value gradient
            def disturbance(x):
                g = P @ x
                ng = np.linalg.norm(g)
                return 0.9 * lam * (g / ng if ng > 1e-12 else np.zeros(n))

            x = rng.normal(size=n)
            x *= 2.0 / np.linalg.norm(x)
            dt = 1e-3
            V_prev = 0.5 * x @ P @ x
            entered = False
            ok = True
            for k in range(8000):
                X[0], U[0] = x, 0.0
                control()
                x = x + dt * (sim.rhs(x, U[0]) + disturbance(x))
                V = 0.5 * x @ P @ x
                if not entered:
                    if np.linalg.norm(P @ x) < r:
                        entered = True
                    elif V >= V_prev:
                        ok = False
                        break
                else:
                    # practical stability: stays in a modest ball around 0
                    if np.linalg.norm(P @ x) > 3.0 * r:
                        ok = False
                        break
                V_prev = V
            passes += ok and entered
        assert passes == 20
