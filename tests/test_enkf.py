import tracemalloc

import numpy as np
import pytest

from enkfcontrol.enkf import (
    DivergenceError,
    EnkfConfig,
    EnkfConfigError,
    RankError,
    _gain_from_covariance,
    init_covariance,
    noise_factor,
    run_dual_enkf_linear,
    step_linear,
)
from enkfcontrol.riccati import LtiSystem, solve_are, solve_dre


def scalar_cfg(N, T=10.0, dt=1e-3):
    return EnkfConfig(N=N, T=T, dt=dt, S_T=np.eye(1))


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


def particle_loop(A, B, C, R, cfg, rng):
    """The particle system the chain samples, from t = T down to t = 0.

    Y_i ~ N(0, S_T) at t = T, then n_steps four-product steps.  Returns the
    terminal standard-normal draw, each step's noise draw and the ensembles,
    the terminal one first.
    """
    chol = noise_factor(R)
    G0 = rng.standard_normal((cfg.N, cfg.S_T.shape[0]))
    Ys, xis = [G0 @ np.linalg.cholesky(cfg.S_T).T], []
    for _ in range(cfg.n_steps):
        xis.append(rng.standard_normal((cfg.N, chol.shape[0])))
        Ys.append(four_product_step(Ys[-1], A, B, C, chol, cfg.dt_effective, xis[-1]))
    return G0, xis, Ys


def particle_gain(A, B, C, R, cfg, rng):
    """The gain of the particle system: the inverse of its S at t = 0."""
    return _gain_from_covariance(empirical_stats(particle_loop(A, B, C, R, cfg, rng)[2][-1])[1])


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


def coupled_noisy_system(n, m, seed):
    """A stable A, a full B, a non-square C and a non-identity R."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(2, n))
    M = rng.normal(size=(m, m))
    R = M @ M.T + m * np.eye(m)
    return A, B, C, R


def chain_step(S, A, B, C, R, N, dt, rng, t=1.0):
    """step_linear with the run's precomputed C'C and W."""
    W = np.sqrt(dt) * noise_factor(R).T @ B.T
    return step_linear(S, t, A, C.T @ C, W, N, dt, rng)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the empirical CDFs."""
    points = np.concatenate((a, b))
    Fa = np.searchsorted(np.sort(a), points, side="right") / len(a)
    Fb = np.searchsorted(np.sort(b), points, side="right") / len(b)
    return np.max(np.abs(Fa - Fb))


class TestConfig:
    def test_invalid_particle_count(self):
        with pytest.raises(EnkfConfigError):
            EnkfConfig(N=1, T=1.0, dt=0.1, S_T=np.eye(1))

    def test_particles_must_exceed_the_dimension(self):
        with pytest.raises(EnkfConfigError, match="N=3 for n=3"):
            EnkfConfig(N=3, T=1.0, dt=0.1, S_T=np.eye(3))
        EnkfConfig(N=4, T=1.0, dt=0.1, S_T=np.eye(3))

    def test_zero_terminal_covariance_rejected(self):
        with pytest.raises(EnkfConfigError):
            EnkfConfig(N=10, T=1.0, dt=0.1, S_T=np.zeros((1, 1)))

    def test_dt_exceeding_horizon_rejected(self):
        with pytest.raises(EnkfConfigError):
            EnkfConfig(N=10, T=0.1, dt=0.2, S_T=np.eye(1))


class TestInitEnsemble:
    """The terminal covariance drawn without the ensemble: N S ~ Wishart(N - 1, S_T)."""

    def test_empirical_covariance_close(self):
        cfg = EnkfConfig(N=10**5, T=1.0, dt=0.1, S_T=np.eye(3))
        S = init_covariance(cfg, 3, np.random.default_rng(1))
        assert np.linalg.norm(S - np.eye(3), "fro") <= 0.02 * np.linalg.norm(np.eye(3), "fro")

    def test_mean_is_the_wishart_mean(self):
        # E[S] = (N - 1)/N S_T, which a terminal draw with N degrees of freedom misses by 1/N
        N, draws = 5, 20000
        S_T = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        cfg = EnkfConfig(N=N, T=1.0, dt=0.1, S_T=S_T)
        rng = np.random.default_rng(7)
        mean = sum(init_covariance(cfg, 3, rng) for _ in range(draws)) / draws
        want = (N - 1) / N * S_T
        assert np.linalg.norm(mean - want) <= 0.02 * np.linalg.norm(want)

    def test_fixed_seed_bit_identical(self):
        cfg = EnkfConfig(N=50, T=1.0, dt=0.1, S_T=np.eye(2))
        S1 = init_covariance(cfg, 2, np.random.default_rng(3))
        S2 = init_covariance(cfg, 2, np.random.default_rng(3))
        assert np.array_equal(S1, S2)

    def test_covariance_shape_mismatch(self):
        cfg = EnkfConfig(N=50, T=1.0, dt=0.1, S_T=np.eye(2))
        with pytest.raises(EnkfConfigError):
            init_covariance(cfg, 3, np.random.default_rng(0))
        with pytest.raises(EnkfConfigError):
            run_dual_enkf_linear(np.zeros((3, 3)), np.ones((3, 1)), np.eye(3), np.eye(1), cfg,
                                 np.random.default_rng(0))


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
        A, B, C, R = coupled_noisy_system(4, 2, seed=36)
        S, rng = np.eye(4), np.random.default_rng(37)
        for _ in range(50):
            S = chain_step(S, A, B, C, R, 10, 1e-2, rng)
            assert np.max(np.abs(S - S.T)) <= 1e-15 * np.max(np.abs(S))


class TestStepLinear:
    def test_no_coupling_no_noise_is_linear_flow(self):
        # C = 0 kills the coupling and B = 0 the noise: S+ = G'SG with G = I - dt A'
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        S = np.array([[2.0, 0.3], [0.3, 0.5]])
        got = chain_step(S, A, np.zeros((2, 1)), np.zeros((1, 2)), np.eye(1), 20, 0.01,
                         np.random.default_rng(6))
        G = np.eye(2) - 0.01 * A.T
        np.testing.assert_allclose(got, G.T @ S @ G, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("N", (8, 5))
    def test_mean_of_one_step(self, N):
        # E[S+] = G'SG + (N - 1)/N W'W: the draw along the ensemble averages out,
        # and Xi has mean (p + (N - p - 1)) / N I.  At p = 3, m = 2, N = 8 draws E
        # by Bartlett's factor and N = 5 as one normal row.
        A, B, C, R = coupled_noisy_system(3, 2, seed=34)
        B = 4.0 * B  # a noise term well above the spread of the draws along the ensemble
        S = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.6]])
        dt, draws = 0.05, 20000
        rng = np.random.default_rng(35)
        mean = sum(chain_step(S, A, B, C, R, N, dt, rng) for _ in range(draws)) / draws
        G = np.eye(3) - dt * (A.T + 0.5 * C.T @ C @ S)
        W = np.sqrt(dt) * noise_factor(R).T @ B.T
        noise = (N - 1) / N * W.T @ W
        assert np.linalg.norm(mean - (G.T @ S @ G + noise)) <= 0.02 * np.linalg.norm(noise)

    def test_two_particles_scalar_no_singularity(self):
        cfg = scalar_cfg(N=2, T=1.0)
        gain = run_dual_enkf_linear([[0.0]], [[1.0]], [[1.0]], [[1.0]], cfg, np.random.default_rng(0))
        assert np.isfinite(gain.P[0, 0])

    @pytest.mark.parametrize("innovation", ("averaged", "literal"))
    def test_matches_the_four_product_step(self, innovation):
        # fed the projections of the particle step's noise, the chain's step gives the S
        # of the step written out term by term; the innovation without its 1/2 is the
        # averaged one with C'C doubled
        A, B, C, R = coupled_noisy_system(3, 2, seed=31)
        chol = noise_factor(R)
        N, dt = 60, 1e-2
        rng = np.random.default_rng(32)
        Y, xi = rng.normal(size=(N, 3)), rng.standard_normal((N, 2))
        scale = 1.0 if innovation == "averaged" else 2.0
        W = np.sqrt(dt) * chol.T @ B.T
        replay = Replay(chain_draws(Y, xi))
        got = step_linear(empirical_stats(Y)[1], 1.0, A, scale * C.T @ C, W, N, dt, replay)
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
        args = (np.array([[-1e30]]), np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1), 10, 0.1,
                np.random.default_rng(0))
        with pytest.raises(DivergenceError) as err:
            chain_step(np.array([[1e308]]), *args, t=1.0)
        assert err.value.t == pytest.approx(0.9)
        with pytest.raises(DivergenceError) as err:
            chain_step(np.array([[-1.0]]), *args, t=1.0)
        assert err.value.t == 1.0


class TestScalarBenchmark:
    """Scalar system A=0, B=C=R=1: the stationary Riccati solution is 1."""

    def test_estimate_in_band_at_n1000(self):
        hits = 0
        for seed in range(10):
            gain = run_dual_enkf_linear(
                [[0.0]], [[1.0]], [[1.0]], [[1.0]], scalar_cfg(1000), np.random.default_rng(seed)
            )
            hits += 0.9 <= gain.P[0, 0] <= 1.1
        assert hits >= 9  # >= 95% of seeds at this sample size

    def test_decoupled_pair_block_structure(self):
        A = np.zeros((2, 2))
        B = np.eye(2)
        C = np.eye(2)
        R = np.eye(2)
        offdiags = []
        for N in (200, 2000):
            cfg = EnkfConfig(N=N, T=10.0, dt=1e-3, S_T=np.eye(2))
            gain = run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(0))
            assert np.allclose(np.diag(gain.P), 1.0, atol=0.3)
            offdiags.append(abs(gain.P[0, 1]))
        assert offdiags[1] < offdiags[0]
        assert offdiags[1] < 0.1


class TestLinearRun:
    def test_matches_a_loop_of_the_four_product_step(self):
        # p = 12, N = 500, 200 steps: the run, fed the terminal draw's Bartlett factor and
        # each step's projected noise, gives the gain of the particle loop
        A, B, C, R = coupled_noisy_system(12, 3, seed=41)
        cfg = EnkfConfig(N=500, T=0.2, dt=1e-3, S_T=np.eye(12))
        assert cfg.n_steps == 200
        G0, xis, Ys = particle_loop(A, B, C, R, cfg, np.random.default_rng(42))
        replay = Replay(wishart_draws(G0 - G0.mean(axis=0)))
        for Y, xi in zip(Ys, xis):
            replay.draws += chain_draws(Y, xi)
        got = run_dual_enkf_linear(A, B, C, R, cfg, replay)
        assert not replay.draws
        want = _gain_from_covariance(empirical_stats(Ys[-1])[1])
        rel = np.linalg.norm(got.P - want.P, "fro") / np.linalg.norm(want.P, "fro")
        assert rel <= 1e-12

    def test_gain_error_in_law_matches_the_particles(self):
        # the chain and the particle reference on 300 seeds each: the two-sample KS
        # statistic of the gain error stays below its 1% critical value, 1.628 sqrt(2/300).
        # At N = 10 a chain that drops E, or scales X by 1/N, reads above 0.3.
        A, B, C, R = coupled_noisy_system(4, 2, seed=51)
        cfg = EnkfConfig(N=10, T=0.5, dt=1e-2, S_T=np.eye(4))
        P_dre = solve_dre(LtiSystem(A, B, C, R, np.eye(4)), cfg.T, 1e-3)

        def errors(run, seeds):
            return np.array([
                np.linalg.norm(run(A, B, C, R, cfg, np.random.default_rng(s)).P - P_dre) for s in seeds
            ]) / np.linalg.norm(P_dre)

        chain = errors(run_dual_enkf_linear, range(300))
        particles = errors(particle_gain, range(1000, 1300))
        assert ks_statistic(chain, particles) <= 1.628 * np.sqrt(2 / 300)

    def test_consistent_with_riccati_oracle(self):
        rng = np.random.default_rng(14)
        n, m = 3, 2
        A = rng.normal(size=(n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
        B = rng.normal(size=(n, m))
        C = np.eye(n)
        R = np.eye(m)
        P_are = solve_are(LtiSystem(A, B, C, R, np.eye(n)))
        cfg = EnkfConfig(N=2000, T=4.0, dt=1e-3, S_T=np.eye(n))
        gain = run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(2))
        rel = np.linalg.norm(gain.P - P_are, "fro") / np.linalg.norm(P_are, "fro")
        assert rel < 0.15


class TestCarriedMoments:
    def test_carried_moments_match_the_samples(self):
        # the S the chain carries, fed the particle loop's draws, against the S of the
        # samples every step, with E drawn as N - p - 1 < m normal rows: two at N = 7,
        # none at N = p + 1 = 5
        A, B, C, R = coupled_noisy_system(4, 3, seed=43)
        W_unit = noise_factor(R).T @ B.T
        for N in (7, 5):
            cfg = EnkfConfig(N=N, T=0.2, dt=1e-2, S_T=np.eye(4))
            h = cfg.dt_effective
            G0, xis, Ys = particle_loop(A, B, C, R, cfg, np.random.default_rng(44))
            S = init_covariance(cfg, 4, Replay(wishart_draws(G0 - G0.mean(axis=0))))
            t = cfg.T
            for Y, xi, Y_next in zip(Ys, xis, Ys[1:]):
                replay = Replay(chain_draws(Y, xi))
                S = step_linear(S, t, A, C.T @ C, np.sqrt(h) * W_unit, N, h, replay)
                assert not replay.draws
                t -= h
                _, want = empirical_stats(Y_next)
                assert np.linalg.norm(S - want, "fro") <= 1e-12 * np.linalg.norm(want, "fro")

    def test_run_diverges_before_time_zero(self):
        # a wide terminal draw makes the coupling blow up: G ~ -dt S/2 grows with S,
        # so the particles and the chain both leave the finite range well before t = 0
        A = -40.0 * np.eye(3)
        B, C, R = np.ones((3, 1)), np.eye(3), np.eye(1)
        cfg = EnkfConfig(N=50, T=1.0, dt=0.05, S_T=1e3 * np.eye(3))
        with np.errstate(over="ignore", invalid="ignore"):
            Ys = particle_loop(A, B, C, R, cfg, np.random.default_rng(45))[2]
        assert not np.isfinite(Ys[-2]).all()  # already at t = dt
        with pytest.raises(DivergenceError) as err:
            run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(45))
        assert 0.0 < err.value.t < cfg.T

    def test_peak_allocation_of_a_run(self):
        # nothing the chain allocates grows with N
        p, m = 50, 4
        A, B, C, R = coupled_noisy_system(p, m, seed=46)
        peaks = []
        for N in (10**3, 10**3, 10**9):  # the first run warms up numpy's caches
            cfg = EnkfConfig(N=N, T=0.02, dt=1e-3, S_T=np.eye(p))
            tracemalloc.start()
            try:
                run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(47))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == peaks[2]
        assert peaks[1] < 10**3 * p * 8


class TestDeterminism:
    def test_gain_bit_identical(self):
        cfg = scalar_cfg(500, T=2.0)
        g1 = run_dual_enkf_linear([[0.0]], [[1.0]], [[1.0]], [[1.0]], cfg, np.random.default_rng(42))
        g2 = run_dual_enkf_linear([[0.0]], [[1.0]], [[1.0]], [[1.0]], cfg, np.random.default_rng(42))
        assert np.array_equal(g1.P, g2.P)

    def test_gain_bit_identical_at_p12(self):
        A, B, C, R = coupled_noisy_system(12, 3, seed=48)
        cfg = EnkfConfig(N=60, T=0.2, dt=1e-3, S_T=np.eye(12))
        g1 = run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(49))
        g2 = run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(49))
        assert np.array_equal(g1.P, g2.P)


def test_rank_error_for_degenerate_ensemble():
    with pytest.raises(RankError):
        _gain_from_covariance(np.zeros((2, 2)))
