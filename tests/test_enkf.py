import tracemalloc

import numpy as np
import pytest

from enkfcontrol.enkf import (
    DivergenceError,
    EnkfConfig,
    EnkfConfigError,
    Ensemble,
    RankError,
    _gain_from_ensemble,
    empirical_stats,
    init_ensemble,
    noise_factor,
    run_dual_enkf_linear,
    step_linear,
)
from enkfcontrol.riccati import LtiSystem, solve_are


def scalar_cfg(N, T=10.0, dt=1e-3):
    return EnkfConfig(N=N, T=T, dt=dt, S_T=np.eye(1))


def four_product_step(Y, A, B, C, chol, dt, rng, innovation="averaged"):
    """The linear step as written out: Y - dt (Y A' + innov (S C')') + xi chol' sqrt(dt) B'.

    innov is the averaged innovation (Y C' + C mean) / 2; "literal" drops the 1/2.
    """
    N = Y.shape[0]
    mean = Y.mean(axis=0)
    Yc = Y - mean
    S = Yc.T @ Yc / N
    innov = Y @ C.T + C @ mean
    if innovation == "averaged":
        innov = innov / 2.0
    noise = rng.standard_normal((N, chol.shape[0])) @ chol.T * np.sqrt(dt) @ B.T
    return Y - dt * (Y @ A.T + innov @ (S @ C.T).T) + noise


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


class TestConfig:
    def test_invalid_particle_count(self):
        with pytest.raises(EnkfConfigError):
            EnkfConfig(N=1, T=1.0, dt=0.1, S_T=np.eye(1))

    def test_zero_terminal_covariance_rejected(self):
        with pytest.raises(EnkfConfigError):
            EnkfConfig(N=10, T=1.0, dt=0.1, S_T=np.zeros((1, 1)))

    def test_dt_exceeding_horizon_rejected(self):
        with pytest.raises(EnkfConfigError):
            EnkfConfig(N=10, T=0.1, dt=0.2, S_T=np.eye(1))


class TestInitEnsemble:
    def test_empirical_covariance_close(self):
        cfg = EnkfConfig(N=10**5, T=1.0, dt=0.1, S_T=np.eye(3))
        e = init_ensemble(cfg, 3, np.random.default_rng(1))
        _, S = empirical_stats(e)
        assert np.linalg.norm(S - np.eye(3), "fro") <= 0.02 * np.linalg.norm(np.eye(3), "fro")
        assert e.t == 1.0

    def test_fixed_seed_bit_identical(self):
        cfg = EnkfConfig(N=50, T=1.0, dt=0.1, S_T=np.eye(2))
        e1 = init_ensemble(cfg, 2, np.random.default_rng(3))
        e2 = init_ensemble(cfg, 2, np.random.default_rng(3))
        assert np.array_equal(e1.Y, e2.Y)

    def test_covariance_shape_mismatch(self):
        cfg = EnkfConfig(N=50, T=1.0, dt=0.1, S_T=np.eye(2))
        with pytest.raises(EnkfConfigError):
            init_ensemble(cfg, 3, np.random.default_rng(0))


class TestEmpiricalStats:
    def test_two_particle_example(self):
        e = Ensemble(Y=np.array([[1.0, 0.0], [-1.0, 0.0]]), t=0.0)
        mean, S = empirical_stats(e)
        assert np.array_equal(mean, [0.0, 0.0])
        # 1/N normalization: ((1)^2 + (-1)^2) / 2 = 1
        assert np.array_equal(S, [[1.0, 0.0], [0.0, 0.0]])

    def test_identical_particles_zero_covariance(self):
        e = Ensemble(Y=np.tile([2.0, -3.0], (7, 1)), t=0.0)
        _, S = empirical_stats(e)
        assert np.array_equal(S, np.zeros((2, 2)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(50, 3))
        m1, S1 = empirical_stats(Ensemble(Y=Y, t=0.0))
        m2, S2 = empirical_stats(Ensemble(Y=Y + 5.0, t=0.0))
        assert np.allclose(m2, m1 + 5.0)
        assert np.allclose(S1, S2)

    def test_symmetry_every_step(self):
        rng = np.random.default_rng(5)
        cfg = EnkfConfig(N=200, T=0.5, dt=1e-2, S_T=np.eye(2))
        A, B, C, R = -np.eye(2), np.eye(2), np.eye(2), np.eye(2)
        e = init_ensemble(cfg, 2, rng)
        for _ in range(cfg.n_steps):
            e = step_linear(e, A, B, C, noise_factor(R), cfg.dt_effective, rng)
            _, S = empirical_stats(e)
            assert np.max(np.abs(S - S.T)) <= 1e-12


class TestStepLinear:
    def test_no_coupling_no_noise_is_linear_flow(self):
        # C = 0 kills the coupling, B = 0 kills the noise
        rng = np.random.default_rng(6)
        Y0 = rng.normal(size=(20, 2))
        e = Ensemble(Y=Y0.copy(), t=1.0)
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        e = step_linear(e, A, np.zeros((2, 1)), np.zeros((1, 2)), noise_factor(np.eye(1)), 0.01, rng)
        assert np.allclose(e.Y, Y0 - 0.01 * Y0 @ A.T)
        assert e.t == pytest.approx(0.99)

    def test_two_particles_scalar_no_singularity(self):
        cfg = scalar_cfg(N=2, T=1.0)
        gain = run_dual_enkf_linear([[0.0]], [[1.0]], [[1.0]], [[1.0]], cfg, np.random.default_rng(0))
        assert np.isfinite(gain.P[0, 0])

    @pytest.mark.parametrize("innovation", ("averaged", "literal"))
    def test_matches_the_four_product_step(self, innovation):
        # the folded Y G - dt mean'M + xi W against the step written out term by term;
        # the innovation without its 1/2 is the averaged one with C scaled by sqrt(2)
        A, B, C, R = coupled_noisy_system(3, 2, seed=31)
        chol = noise_factor(R)
        dt = 1e-2
        Y = np.random.default_rng(32).normal(size=(60, 3))
        scale = 1.0 if innovation == "averaged" else np.sqrt(2.0)
        got = step_linear(Ensemble(Y=Y, t=1.0), A, B, scale * C, chol, dt, np.random.default_rng(33))
        want = four_product_step(Y, A, B, C, chol, dt, np.random.default_rng(33), innovation)
        assert got.t == pytest.approx(1.0 - dt)
        np.testing.assert_allclose(got.Y, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        # drift, coupling and noise each move the ensemble well above rounding
        frozen = four_product_step(Y, 0 * A, 0 * B, 0 * C, chol, dt, np.random.default_rng(33))
        for part in (four_product_step(Y, A, 0 * B, 0 * C, chol, dt, np.random.default_rng(33)),
                     four_product_step(Y, 0 * A, B, 0 * C, chol, dt, np.random.default_rng(33)),
                     four_product_step(Y, 0 * A, 0 * B, C, chol, dt, np.random.default_rng(33))):
            assert np.max(np.abs(part - frozen)) > 1e-3

    def test_divergence_detected(self):
        e = Ensemble(Y=np.array([[1e308], [1e308]]), t=1.0)
        with pytest.raises(DivergenceError):
            step_linear(
                e, np.array([[-1e30]]), np.zeros((1, 1)), np.zeros((1, 1)),
                noise_factor(np.eye(1)), 0.1, np.random.default_rng(0),
            )


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
        # p = 12, N = 500, 200 steps of the whole run against the written-out step
        A, B, C, R = coupled_noisy_system(12, 3, seed=41)
        cfg = EnkfConfig(N=500, T=0.2, dt=1e-3, S_T=np.eye(12))
        assert cfg.n_steps == 200
        got = run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        e = init_ensemble(cfg, 12, rng)
        chol = noise_factor(R)
        for _ in range(cfg.n_steps):
            e = Ensemble(Y=four_product_step(e.Y, A, B, C, chol, cfg.dt_effective, rng), t=0.0)
        want = _gain_from_ensemble(e)
        rel = np.linalg.norm(got.P - want.P, "fro") / np.linalg.norm(want.P, "fro")
        assert rel <= 1e-12

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
        # the mean and S the step carries against those of its samples, every step
        A, B, C, R = coupled_noisy_system(12, 3, seed=43)
        cfg = EnkfConfig(N=500, T=0.2, dt=1e-3, S_T=np.eye(12))
        rng = np.random.default_rng(44)
        e = init_ensemble(cfg, 12, rng)
        chol = noise_factor(R)
        for _ in range(cfg.n_steps):
            e = step_linear(e, A, B, C, chol, cfg.dt_effective, rng)
            mean, S = empirical_stats(e)
            assert np.linalg.norm(e.mean - mean) <= 1e-12 * np.linalg.norm(mean)
            assert np.linalg.norm(e.S - S, "fro") <= 1e-12 * np.linalg.norm(S, "fro")

    def test_run_diverges_at_the_time_of_the_four_product_loop(self):
        # a wide terminal draw makes the coupling blow up: G ~ -dt S/2 grows with S,
        # so both runs leave the finite range on the same step, well before t = 0
        A = -40.0 * np.eye(3)
        B, C, R = np.ones((3, 1)), np.eye(3), np.eye(1)
        cfg = EnkfConfig(N=50, T=1.0, dt=0.05, S_T=1e3 * np.eye(3))
        rng = np.random.default_rng(45)
        Y, t, t_fail = init_ensemble(cfg, 3, rng).Y, cfg.T, None
        chol = noise_factor(R)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.n_steps):
                Y, t = four_product_step(Y, A, B, C, chol, cfg.dt_effective, rng), t - cfg.dt_effective
                if not np.all(np.isfinite(Y)):
                    t_fail = t
                    break
        assert t_fail is not None and t_fail > 0.0
        with pytest.raises(DivergenceError) as err:
            run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(45))
        assert err.value.t == t_fail

    def test_peak_allocation_of_a_run(self):
        # two work arrays and the draw; no third N x p array alive at once
        N, p, m = 4000, 50, 4
        A, B, C, R = coupled_noisy_system(p, m, seed=46)
        cfg = EnkfConfig(N=N, T=0.02, dt=1e-3, S_T=np.eye(p))
        assert cfg.n_steps == 20
        tracemalloc.start()
        try:
            run_dual_enkf_linear(A, B, C, R, cfg, np.random.default_rng(47))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * N * p * 8


class TestDeterminism:
    def test_gain_bit_identical(self):
        cfg = scalar_cfg(500, T=2.0)
        g1 = run_dual_enkf_linear([[0.0]], [[1.0]], [[1.0]], [[1.0]], cfg, np.random.default_rng(42))
        g2 = run_dual_enkf_linear([[0.0]], [[1.0]], [[1.0]], [[1.0]], cfg, np.random.default_rng(42))
        assert np.array_equal(g1.P, g2.P)
        assert np.array_equal(g1.S0, g2.S0)


def test_rank_error_for_degenerate_ensemble():
    e = Ensemble(Y=np.zeros((5, 2)), t=0.0)
    with pytest.raises(RankError):
        _gain_from_ensemble(e)
