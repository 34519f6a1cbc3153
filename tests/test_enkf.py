import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_are, solve_continuous_lyapunov

from enkfcontrol.config import ConfigError, default_config
from enkfcontrol.enkf import (
    DivergenceError,
    GainApprox,
    RankError,
    _chain,
    _gain_from_covariance,
    _wishart,
    init_covariance,
    run_dual_enkf_linear,
    step_linear,
)
from enkfcontrol.harness import _enkf_horizon, build_artifacts, build_full_simulator
from enkfcontrol.riccati import LtiSystem, solve_dre


# cost weights other than 1: at 1 every product with a weight is exact, so a misplaced weight would not show
Q_WEIGHT, R_WEIGHT, G_WEIGHT = 2.5, 0.4, 0.5

# the scalar benchmark's A, B, q, r and g: the stationary Riccati solution is 1
SCALAR = ([[0.0]], [[1.0]], 1.0, 1.0, 1.0)


def weight_matrices(n, m, q=Q_WEIGHT, r=R_WEIGHT, g=G_WEIGHT):
    """The scalar weights as the reference's matrices: C = sqrt(q) I, R = r I, S_T = I/g."""
    return np.sqrt(q) * np.eye(n), r * np.eye(m), np.eye(n) / g


def noise_factor(R):
    """Lower Cholesky factor of R^-1, the control-noise covariance per unit time."""
    return np.linalg.cholesky(np.linalg.inv(R))


def empirical_stats(Y):
    """The ensemble's mean and 1/N-normalized covariance S."""
    mean = Y.mean(axis=0)
    Yc = Y - mean
    return mean, Yc.T @ Yc / Y.shape[0]


def four_product_step(Y, A, B, C, chol, dt, xi, innovation="averaged"):
    """The particle step as written out: Y - dt (Y A' + innov (S C')') + xi chol' sqrt(dt) B'.

    innov is the averaged innovation (Y C' + C mean) / 2; "literal" drops the 1/2.
    """
    mean, S = empirical_stats(Y)
    innov = Y @ C.T + C @ mean
    if innovation == "averaged":
        innov = innov / 2.0
    return Y - dt * (Y @ A.T + innov @ (S @ C.T).T) + xi @ chol.T * np.sqrt(dt) @ B.T


def particle_loop(A, B, C, R, S_T, N, T, n_steps, rng):
    """The N-particle system the chain samples, from t = T down to t = 0.

    Y_i ~ N(0, S_T) at t = T, then n_steps four-product steps of T / n_steps;
    C, R and S_T are matrices, as general as the particle system allows.
    Returns the terminal standard-normal draw, each step's noise draw and
    the ensembles, the terminal one first.
    """
    chol = noise_factor(R)
    G0 = rng.standard_normal((N, S_T.shape[0]))
    Ys, xis = [G0 @ np.linalg.cholesky(S_T).T], []
    for _ in range(n_steps):
        xis.append(rng.standard_normal((N, chol.shape[0])))
        Ys.append(four_product_step(Ys[-1], A, B, C, chol, T / n_steps, xis[-1]))
    return G0, xis, Ys


def particle_gain(A, B, C, R, S_T, N, T, n_steps, rng):
    """The gain of the particle system: the inverse of its S at t = 0."""
    return _gain_from_covariance(empirical_stats(particle_loop(A, B, C, R, S_T, N, T, n_steps, rng)[2][-1])[1])


class Replay:
    """Stands in for the chain's rng, handing out given draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        return self._next(shape)

    def chisquare(self, df):
        return self._next(np.shape(df))

    def _next(self, shape):
        draw = self.draws.pop(0)
        assert draw.shape == tuple(shape)
        return draw


def wishart_draws(H):
    """The draws from which the chain's Wishart factor F has F'F = H'H.

    H itself when it has fewer rows than columns, else Bartlett's F: its
    upper triangle, then its squared diagonal as the chi-square draws.
    """
    if H.shape[0] < H.shape[1]:
        return [H]
    F = np.linalg.cholesky(H.T @ H).T
    return [F, np.diag(F) ** 2]


def chain_draws(Y, xi):
    """The draws with which the chain's step reproduces the particle step of Y with noise xi.

    With S = LL', the columns of Q = Yc L'^-1 / sqrt(N) are orthonormal, and
    xi splits into Z1 = Q'xi, a part along the ones vector that moves only
    the mean, and the rest, whose Gram matrix is E.
    """
    N, p = Y.shape
    _, S = empirical_stats(Y)
    Q = np.linalg.solve(np.linalg.cholesky(S), (Y - Y.mean(axis=0)).T).T / np.sqrt(N)
    rest = np.linalg.qr(np.column_stack((Q, np.ones(N))), mode="complete")[0][:, p + 1:]
    return [Q.T @ xi, *wishart_draws(rest.T @ xi)]


def stable_system(n, m, seed):
    """A stable A and a full B."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    return A, rng.normal(size=(n, m))


def chain_step(S, A, B, q, r, N, dt, rng, t=1.0):
    """step_linear with the run's W = sqrt(dt / r) B' and constants, warnings ignored as in a run."""
    with np.errstate(over="ignore", invalid="ignore"):
        return step_linear(S, t, q, np.sqrt(dt / r) * B.T, N, dt, rng, _chain(A, B.shape[1], N))


def reference_wishart_factor(dof, k, rng):
    """The chain's Wishart factor with nothing hoisted: Bartlett's triangle cut by np.triu."""
    if dof < k:
        return rng.standard_normal((dof, k))
    F = np.triu(rng.standard_normal((k, k)), 1)
    F[np.diag_indices(k)] = np.sqrt(rng.chisquare(dof - np.arange(k)))
    return F


def reference_parts(S, A, q, W, N, dt, rng):
    """U = L'G with G rebuilt from np.eye, Z and the Wishart factor F from np.triu: nothing hoisted."""
    m, p = W.shape
    U = np.linalg.cholesky(S).T @ (np.eye(p) - dt * (A.T + 0.5 * q * S))
    Z = rng.standard_normal((p, m))
    return U, Z, reference_wishart_factor(N - p - 1, m, rng)


def reference_step(S, A, q, W, N, dt, rng):
    """The chain's step with nothing hoisted: S+ = C'C with C = [U + Z W^ ; F W^] stacked afresh."""
    with np.errstate(over="ignore", invalid="ignore"):
        U, Z, F = reference_parts(S, A, q, W, N, dt, rng)
        W_hat = W / np.sqrt(N)
        C = np.vstack((U + Z @ W_hat, F @ W_hat))
        return C.T @ C


def four_term_step(S, A, q, W, N, dt, rng):
    """The same step as the particle step's four terms: S+ = U'U + V + V', V = (U'Z / sqrt(N) + W'Xi / 2) W."""
    with np.errstate(over="ignore", invalid="ignore"):
        U, Z, F = reference_parts(S, A, q, W, N, dt, rng)
        Xi = (Z.T @ Z + F.T @ F) / N
        V = (U.T @ Z / np.sqrt(N) + 0.5 * W.T @ Xi) @ W
        return U.T @ U + V + V.T


def mean_field(A, B, q, r, g, N, T, n_steps):
    """The chain's limit as N grows: S+ = G'SG + (N - 1)/N (dt / r) BB' from S_T = (N - 1)/N I/g.

    G = I - dt (A' + q S / 2), dt = T / n_steps; each step is the chain's step averaged given S.
    """
    h, p = T / n_steps, A.shape[0]
    S = (N - 1) / N * np.eye(p) / g
    noise = (N - 1) / N * (h / r) * B @ B.T
    for _ in range(n_steps):
        G = np.eye(p) - h * (A.T + 0.5 * q * S)
        S = G.T @ S @ G + noise
    return S


def finite_horizon_riccati(A, B, q, r, g, T):
    """P(0) of -P' = A'P + PA + q I - P BB' P / r, P(T) = g I, exactly: P_inf and one Lyapunov solve.

    With A_c = A - BB'P_inf / r, E = e^{A_c T}, D = g I - P_inf and X = int_0^T e^{A_c s} BB' e^{A_c' s} ds / r,
    which is L - E L E' for A_c L + L A_c' = -BB' / r, the solution is P_inf + E' D (I + X D)^-1 E.
    """
    n = len(A)
    P_inf = solve_continuous_are(A, B, q * np.eye(n), r * np.eye(B.shape[1]))
    A_c = A - B @ B.T @ P_inf / r
    L = solve_continuous_lyapunov(A_c, -B @ B.T / r)
    E = expm(A_c * T)
    D = g * np.eye(n) - P_inf
    return P_inf + E.T @ D @ np.linalg.solve(np.eye(n) + (L - E @ L @ E.T) @ D, E)


def bits(M):
    return np.ascontiguousarray(M).view(np.int64)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the empirical CDFs."""
    points = np.concatenate((a, b))
    Fa = np.searchsorted(np.sort(a), points, side="right") / len(a)
    Fb = np.searchsorted(np.sort(b), points, side="right") / len(b)
    return np.max(np.abs(Fa - Fb))


class TestConfig:
    """The EnKF's parameters are range-checked once, by ExperimentConfig.validate."""

    def test_invalid_particle_count(self):
        with pytest.raises(ConfigError, match=r"\[enkf\] particles = 1 must exceed"):
            default_config("heat", p=3, m=1, enkf_particles=1)

    def test_particles_must_exceed_the_dimension(self):
        # the design dimension is p on the full model and the order on the reduced one
        with pytest.raises(ConfigError, match=r"particles = 3 must exceed .* \[experiment\] p = 3$"):
            default_config("heat", p=3, m=1, enkf_particles=3)
        with pytest.raises(ConfigError, match=r"particles = 3 must exceed .* \[dmdc\] order = 3$"):
            default_config("heat", model="dmdc", dmdc_order=3, enkf_particles=3)
        default_config("heat", p=3, m=1, enkf_particles=4)

    def test_zero_terminal_covariance_rejected(self):
        # a terminal weight g that is not positive
        for g in (0.0, -1.0):
            with pytest.raises(ConfigError, match=r"\[weights\] g must be positive"):
                default_config("heat", g=g)

    @pytest.mark.parametrize("q,r", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_running_weights_must_be_positive(self, q, r):
        key = "q" if q <= 0 else "r"
        with pytest.raises(ConfigError, match=rf"\[weights\] {key} must be positive"):
            default_config("heat", q=q, r_input=r)


class TestInitEnsemble:
    """The terminal covariance drawn without the ensemble: g N S ~ Wishart(N - 1, I)."""

    def test_empirical_covariance_close(self):
        S = init_covariance(3, 10**5, 1.0, np.random.default_rng(1))
        assert np.linalg.norm(S - np.eye(3), "fro") <= 0.02 * np.linalg.norm(np.eye(3), "fro")

    def test_mean_is_the_wishart_mean(self):
        # E[S] = (N - 1)/N I/g, which a terminal draw with N degrees of freedom misses by 1/N
        N, draws = 5, 20000
        rng = np.random.default_rng(7)
        mean = sum(init_covariance(3, N, G_WEIGHT, rng) for _ in range(draws)) / draws
        want = (N - 1) / N * np.eye(3) / G_WEIGHT
        assert np.linalg.norm(mean - want) <= 0.02 * np.linalg.norm(want)

    def test_fixed_seed_bit_identical(self):
        S1 = init_covariance(2, 50, 1.0, np.random.default_rng(3))
        S2 = init_covariance(2, 50, 1.0, np.random.default_rng(3))
        assert np.array_equal(S1, S2)


class TestEmpiricalStats:
    """The ensemble's 1/N covariance S: as its rows give it and as the chain carries it."""

    def test_two_particle_example(self):
        mean, S = empirical_stats(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.array_equal(mean, [0.0, 0.0])
        # 1/N normalization: ((1)^2 + (-1)^2) / 2 = 1
        assert np.array_equal(S, [[1.0, 0.0], [0.0, 0.0]])

    def test_identical_particles_zero_covariance(self):
        _, S = empirical_stats(np.tile([2.0, -3.0], (7, 1)))
        assert np.array_equal(S, np.zeros((2, 2)))

    def test_translation_invariance(self):
        Y = np.random.default_rng(4).normal(size=(50, 3))
        m1, S1 = empirical_stats(Y)
        m2, S2 = empirical_stats(Y + 5.0)
        assert np.allclose(m2, m1 + 5.0)
        assert np.allclose(S1, S2)

    def test_symmetry_every_step(self):
        A, B = stable_system(4, 2, seed=36)
        S, rng = np.eye(4), np.random.default_rng(37)
        for _ in range(50):
            S = chain_step(S, A, B, Q_WEIGHT, R_WEIGHT, 10, 1e-2, rng)
            assert np.max(np.abs(S - S.T)) <= 1e-15 * np.max(np.abs(S))


class TestStepLinear:
    def test_no_coupling_no_noise_is_linear_flow(self):
        # q = 0 kills the coupling and B = 0 the noise: S+ = G'SG with G = I - dt A'
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        S = np.array([[2.0, 0.3], [0.3, 0.5]])
        got = chain_step(S, A, np.zeros((2, 1)), 0.0, 1.0, 20, 0.01, np.random.default_rng(6))
        G = np.eye(2) - 0.01 * A.T
        np.testing.assert_allclose(got, G.T @ S @ G, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("N", (8, 5))
    def test_mean_of_one_step(self, N):
        # E[S+] = G'SG + (N - 1)/N W'W: the draw along the ensemble averages out,
        # and Xi has mean (p + (N - p - 1)) / N I.  At p = 3, m = 2, N = 8 draws E
        # by Bartlett's factor and N = 5 as one normal row.
        A, B = stable_system(3, 2, seed=34)
        B = 4.0 * B  # a noise term well above the spread of the draws along the ensemble
        S = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.6]])
        dt, draws = 0.05, 20000
        rng = np.random.default_rng(35)
        mean = sum(chain_step(S, A, B, Q_WEIGHT, R_WEIGHT, N, dt, rng) for _ in range(draws)) / draws
        G = np.eye(3) - dt * (A.T + 0.5 * Q_WEIGHT * S)
        W = np.sqrt(dt / R_WEIGHT) * B.T
        noise = (N - 1) / N * W.T @ W
        assert np.linalg.norm(mean - (G.T @ S @ G + noise)) <= 0.02 * np.linalg.norm(noise)

    def test_two_particles_scalar_no_singularity(self):
        gain = run_dual_enkf_linear(*SCALAR, 2, 1.0, 1000, np.random.default_rng(0))
        assert np.isfinite(gain.P[0, 0])

    @pytest.mark.parametrize("innovation", ("averaged", "literal"))
    def test_matches_the_four_product_step(self, innovation):
        # fed the projections of the particle step's noise, the chain's step gives the S
        # of the step written out term by term; the innovation without its 1/2 is the
        # averaged one with q doubled.  The reference takes C = sqrt(q) I and R = r I.
        A, B = stable_system(3, 2, seed=31)
        C, R, _ = weight_matrices(3, 2)
        chol = noise_factor(R)
        N, dt = 60, 1e-2
        rng = np.random.default_rng(32)
        Y, xi = rng.normal(size=(N, 3)), rng.standard_normal((N, 2))
        scale = 1.0 if innovation == "averaged" else 2.0
        W = np.sqrt(dt / R_WEIGHT) * B.T
        replay = Replay(chain_draws(Y, xi))
        got = step_linear(empirical_stats(Y)[1], 1.0, scale * Q_WEIGHT, W, N, dt, replay, _chain(A, 2, N))
        assert not replay.draws
        _, want = empirical_stats(four_product_step(Y, A, B, C, chol, dt, xi, innovation))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        # drift, coupling and noise each move S well above rounding
        _, frozen = empirical_stats(four_product_step(Y, 0 * A, 0 * B, 0 * C, chol, dt, xi))
        for part in ((A, 0 * B, 0 * C), (0 * A, B, 0 * C), (0 * A, 0 * B, C)):
            _, moved = empirical_stats(four_product_step(Y, *part, chol, dt, xi))
            assert np.max(np.abs(moved - frozen)) > 1e-3

    def test_divergence_detected(self):
        # an overflowing step fails at its end time, an indefinite S at its start time
        args = (np.array([[-1e30]]), np.zeros((1, 1)), 0.0, 1.0, 10, 0.1, np.random.default_rng(0))
        with pytest.raises(DivergenceError) as err:
            chain_step(np.array([[1e308]]), *args, t=1.0)
        assert err.value.t == pytest.approx(0.9)
        with pytest.raises(DivergenceError) as err:
            chain_step(np.array([[-1.0]]), *args, t=1.0)
        assert err.value.t == 1.0


class TestHoistedChain:
    """The run's constants, computed once, leave every bit of S as the step with nothing hoisted."""

    @pytest.mark.parametrize("p,N", [(100, 10_000), (10, 15)])
    def test_hundred_steps_match_the_reference_bit_for_bit(self, p, N):
        # p = 100 draws F by Bartlett's factor, p = 10 as N - p - 1 = 4 < m normal rows,
        # so C's F block is short
        m = 8
        A, B = stable_system(p, m, seed=p)
        T, n_steps = 0.1, 100
        h = T / n_steps
        W = np.sqrt(h / R_WEIGHT) * B.T
        rng, ref_rng, four_rng = (np.random.default_rng(61) for _ in range(3))
        S = init_covariance(p, N, G_WEIGHT, rng)
        F = reference_wishart_factor(N - 1, p, ref_rng)
        want = F.T @ F / (N * G_WEIGHT)
        assert np.array_equal(bits(S), bits(want))
        four = init_covariance(p, N, G_WEIGHT, four_rng)
        chain, t = _chain(A, m, N), T
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_steps):
                S = step_linear(S, t, Q_WEIGHT, W, N, h, rng, chain)
                want = reference_step(want, A, Q_WEIGHT, W, N, h, ref_rng)
                four = four_term_step(four, A, Q_WEIGHT, W, N, h, four_rng)
                t -= h
                # the Gram product is the four terms regrouped: they part by rounding only
                assert np.linalg.norm(S - four) <= 1e-12 * np.linalg.norm(four)
        assert np.array_equal(bits(S), bits(want))
        assert np.array_equal(bits(S), bits(S.T))
        # the run, from the same seed, inverts that S
        got = run_dual_enkf_linear(A, B, Q_WEIGHT, R_WEIGHT, G_WEIGHT, N, T, n_steps, np.random.default_rng(61))
        assert np.array_equal(bits(got.P), bits(_gain_from_covariance(want).P))

    @pytest.mark.parametrize("dof", [12, 8, 5, 0])
    def test_wishart_factor_matches_the_reference(self, dof):
        # dof >= k takes Bartlett's triangle, with +0.0 below the diagonal as np.triu
        # leaves it; 0 < dof < k and dof = 0 normal rows.  The generator is left
        # where the reference leaves it, draw after draw.
        k = 8
        draw, rng, ref_rng = _wishart(dof, k), np.random.default_rng(62), np.random.default_rng(62)
        for _ in range(3):
            assert np.array_equal(bits(draw(rng)), bits(reference_wishart_factor(dof, k, ref_rng)))
        assert rng.random() == ref_rng.random()


class TestScalarBenchmark:
    """Scalar system A=0, B=1, q=r=1: the stationary Riccati solution is 1."""

    def test_estimate_in_band_at_n1000(self):
        hits = 0
        for seed in range(10):
            gain = run_dual_enkf_linear(*SCALAR, 1000, 10.0, 10_000, np.random.default_rng(seed))
            hits += 0.9 <= gain.P[0, 0] <= 1.1
        assert hits >= 9  # >= 95% of seeds at this sample size

    def test_decoupled_pair_block_structure(self):
        A = np.zeros((2, 2))
        B = np.eye(2)
        offdiags = []
        for N in (200, 2000):
            gain = run_dual_enkf_linear(A, B, 1.0, 1.0, 1.0, N, 10.0, 10_000, np.random.default_rng(0))
            assert np.allclose(np.diag(gain.P), 1.0, atol=0.3)
            offdiags.append(abs(gain.P[0, 1]))
        assert offdiags[1] < offdiags[0]
        assert offdiags[1] < 0.1


class TestLinearRun:
    def test_matches_a_loop_of_the_four_product_step(self):
        # p = 12, N = 500, 200 steps: the run, fed the terminal draw's Bartlett factor and
        # each step's projected noise, gives the gain of the particle loop; the loop takes
        # the weights as the matrices C = sqrt(q) I, R = r I and S_T = I/g
        A, B = stable_system(12, 3, seed=41)
        N, T, n_steps = 500, 0.2, 200
        G0, xis, Ys = particle_loop(A, B, *weight_matrices(12, 3), N, T, n_steps, np.random.default_rng(42))
        replay = Replay(wishart_draws(G0 - G0.mean(axis=0)))
        for Y, xi in zip(Ys, xis):
            replay.draws += chain_draws(Y, xi)
        got = run_dual_enkf_linear(A, B, Q_WEIGHT, R_WEIGHT, G_WEIGHT, N, T, n_steps, replay)
        assert not replay.draws
        want = _gain_from_covariance(empirical_stats(Ys[-1])[1])
        rel = np.linalg.norm(got.P - want.P, "fro") / np.linalg.norm(want.P, "fro")
        assert rel <= 1e-12

    def test_gain_error_in_law_matches_the_particles(self):
        # the chain and the particle reference on 300 seeds each: the two-sample KS
        # statistic of the gain error stays below its 1% critical value, 1.628 sqrt(2/300).
        # At N = 10 a chain that drops E, or scales X by 1/N, reads above 0.3.
        A, B = stable_system(4, 2, seed=51)
        C, R, S_T = weight_matrices(4, 2)
        run = (10, 0.5, 50)  # N, T and n_steps
        P_dre = solve_dre(LtiSystem(A, B, C, R, G_WEIGHT * np.eye(4)), 0.5, 1e-3)

        def errors(run, seeds):
            return np.array([
                np.linalg.norm(run(np.random.default_rng(s)).P - P_dre) for s in seeds
            ]) / np.linalg.norm(P_dre)

        chain = errors(lambda rng: run_dual_enkf_linear(A, B, Q_WEIGHT, R_WEIGHT, G_WEIGHT, *run, rng), range(300))
        particles = errors(lambda rng: particle_gain(A, B, C, R, S_T, *run, rng), range(1000, 1300))
        assert ks_statistic(chain, particles) <= 1.628 * np.sqrt(2 / 300)

    def test_consistent_with_riccati_oracle(self):
        rng = np.random.default_rng(14)
        n, m = 3, 2
        A = rng.normal(size=(n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
        B = rng.normal(size=(n, m))
        P_are = solve_continuous_are(A, B, np.eye(n), np.eye(m))
        gain = run_dual_enkf_linear(A, B, 1.0, 1.0, 1.0, 2000, 4.0, 4000, np.random.default_rng(2))
        rel = np.linalg.norm(gain.P - P_are, "fro") / np.linalg.norm(P_are, "fro")
        assert rel < 0.15


class TestMeanField:
    """At large N the run is the deterministic mean-field recursion, off by c / sqrt(N)."""

    @pytest.mark.parametrize("system, weights", [
        ("heat", (1.0, 1.0, 1.0)),
        ("heat", (Q_WEIGHT, R_WEIGHT, G_WEIGHT)),
        ("p10", (Q_WEIGHT, R_WEIGHT, G_WEIGHT)),
    ])
    def test_run_matches_the_mean_field_recursion(self, system, weights):
        # the heat defaults (p = 100, m = 8) and a DMDc-sized p = 10, m = 8 system, 100 steps of
        # dt = 1e-3.  The gain's relative distance from the recursion's is c / sqrt(N), with
        # c = 1.8-4.8 over seeds 1-8 in all three cases, the same at N = 10^4 and 10^12.  A
        # mutated run (q S for q S / 2, sqrt(dt r) for sqrt(dt / r), or F dropped) is off by
        # 0.13-0.76 at N = 10^12; sqrt(dt r) shows only at weights other than 1.  The (N - 1)/N
        # factors are below its reach.
        q, r, g = weights
        if system == "heat":
            sim = build_full_simulator(default_config("heat"))
            A, B = sim.A, sim.control_matrix
        else:
            A, B = stable_system(10, 8, seed=10)
        N = 10**12
        got = run_dual_enkf_linear(A, B, q, r, g, N, 0.1, 100, np.random.default_rng(9)).P
        want = _gain_from_covariance(mean_field(A, B, q, r, g, N, 0.1, 100)).P
        assert np.linalg.norm(got - want) <= 10 / np.sqrt(N) * np.linalg.norm(want)

    def test_the_horizon_rule_keeps_the_step_bias_first_order(self):
        # harness._enkf_horizon steps at 0.75 / |A|_2.  nu = 1 at p = 16 gives |nu D2| = 1,024,
        # so that step, 7.3e-4, binds below dt_sim: 4,096 steps of T = 3.  The recursion there is
        # within 1e-3 of the exact P(0) (5.8e-4 measured), and half the step halves that error
        # (ratio 2.0008): the bias is still first order, short of the explicit step's limit
        # 1 / |A|_2.  At dt_sim, 1.02 / |A|_2, the ratio is 2.2
        cfg = default_config("burgers", model="full", p=16, m=4, nu=1.0)
        art = build_artifacts(cfg, gain=GainApprox(P=np.eye(cfg.p)))
        T, n_steps = _enkf_horizon(cfg, art.A)
        assert (T, n_steps) == (3.0, 4_096)
        weights = (art.A, art.B, cfg.q, cfg.r_input, cfg.g)
        exact = finite_horizon_riccati(*weights, T)
        errors = [np.linalg.norm(np.linalg.inv(mean_field(*weights, 10**12, T, n)) - exact) / np.linalg.norm(exact)
                  for n in (n_steps, 2 * n_steps)]
        assert errors[0] <= 1e-3
        assert 1.9 <= errors[0] / errors[1] <= 2.1


class TestCarriedMoments:
    def test_carried_moments_match_the_samples(self):
        # the S the chain carries, fed the particle loop's draws, against the S of the
        # samples every step, with E drawn as N - p - 1 < m normal rows: two at N = 7,
        # none at N = p + 1 = 5.  The particles take C = sqrt(q) I, R = r I and S_T = I/g.
        A, B = stable_system(4, 3, seed=43)
        for N in (7, 5):
            T, n_steps = 0.2, 20
            h = T / n_steps
            G0, xis, Ys = particle_loop(A, B, *weight_matrices(4, 3), N, T, n_steps, np.random.default_rng(44))
            S = init_covariance(4, N, G_WEIGHT, Replay(wishart_draws(G0 - G0.mean(axis=0))))
            chain, t = _chain(A, 3, N), T
            for Y, xi, Y_next in zip(Ys, xis, Ys[1:]):
                replay = Replay(chain_draws(Y, xi))
                S = step_linear(S, t, Q_WEIGHT, np.sqrt(h / R_WEIGHT) * B.T, N, h, replay, chain)
                assert not replay.draws
                t -= h
                _, want = empirical_stats(Y_next)
                assert np.linalg.norm(S - want, "fro") <= 1e-12 * np.linalg.norm(want, "fro")

    def test_run_diverges_before_time_zero(self):
        # a wide terminal draw makes the coupling blow up: G ~ -dt S/2 grows with S,
        # so the particles and the chain both leave the finite range well before t = 0
        A, B = -40.0 * np.eye(3), np.ones((3, 1))
        g, N, T, n_steps = 1e-3, 50, 1.0, 20
        with np.errstate(over="ignore", invalid="ignore"):
            Ys = particle_loop(A, B, *weight_matrices(3, 1, 1.0, 1.0, g), N, T, n_steps, np.random.default_rng(45))[2]
        assert not np.isfinite(Ys[-2]).all()  # already at t = dt
        with pytest.raises(DivergenceError) as err:
            run_dual_enkf_linear(A, B, 1.0, 1.0, g, N, T, n_steps, np.random.default_rng(45))
        assert 0.0 < err.value.t < T

    def test_peak_allocation_of_a_run(self):
        # nothing the chain allocates grows with N
        p, m = 50, 4
        A, B = stable_system(p, m, seed=46)
        peaks = []
        for N in (10**3, 10**3, 10**9):  # the first run warms up numpy's caches
            tracemalloc.start()
            try:
                run_dual_enkf_linear(A, B, Q_WEIGHT, R_WEIGHT, G_WEIGHT, N, 0.02, 20, np.random.default_rng(47))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == peaks[2]
        assert peaks[1] < 10**3 * p * 8


class TestDeterminism:
    def test_gain_bit_identical(self):
        g1 = run_dual_enkf_linear(*SCALAR, 500, 2.0, 2000, np.random.default_rng(42))
        g2 = run_dual_enkf_linear(*SCALAR, 500, 2.0, 2000, np.random.default_rng(42))
        assert np.array_equal(g1.P, g2.P)

    def test_gain_bit_identical_at_p12(self):
        A, B = stable_system(12, 3, seed=48)
        run = (Q_WEIGHT, R_WEIGHT, G_WEIGHT, 60, 0.2, 200)  # q, r, g, N, T and n_steps
        g1 = run_dual_enkf_linear(A, B, *run, np.random.default_rng(49))
        g2 = run_dual_enkf_linear(A, B, *run, np.random.default_rng(49))
        assert np.array_equal(g1.P, g2.P)


def test_rank_error_for_degenerate_ensemble():
    with pytest.raises(RankError):
        _gain_from_covariance(np.zeros((2, 2)))
