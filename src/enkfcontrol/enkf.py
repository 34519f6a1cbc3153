"""Dual ensemble Kalman filter for learning optimal-control gains.

The gain comes from the linear dual EnKF (Joshi, Taghvaei, Mehta & Meyn,
*Systems & Control Letters*, 2022) on a linear design model: the heat
operator, or the DMDc reduced model of the heat or Burgers plant.  An
ensemble of N copies of the disturbance-free model is integrated backward
from the horizon T to time 0.  Each particle follows the model drift plus
control-channel noise with covariance R^-1, and is coupled to the ensemble
through an empirical-covariance gain acting on the averaged innovation
(C Y_i + C mean) / 2.  The inverse of the 1/N-normalized ensemble
covariance S at time 0 approximates the Riccati solution P.

Time direction.  Particles are indexed by decreasing t.  The drift and the
coupling term are applied with step -dt on the reversed clock, and the noise
is drawn as fresh Gaussian increments with covariance R^-1 dt; this
convention is pinned by the scalar stationary-Riccati benchmark in the tests.

Linear step.  With M = C'C S / 2, G = I - dt (A' + M) and
W = sqrt(dt) chol' B' (chol the Cholesky factor of R^-1), a particle step
is Y+ = Y G - dt 1 (mean' M) + xi W, xi an (N, m) standard-normal draw, so
the centered rows move as Yc+ = Yc G + xic W and

    S+ = G'SG + V + V',  V = (G'X + W'Xi / 2) W,

with X = Yc'xi / N and Xi = xic'xic / N.  The rows enter S+ only through
X and Xi, and the mean never enters it.  Given the ensemble, split xi
along the column space of Yc (rank p), along the ones vector, and along
the remaining N - p - 1 directions: the three parts are independent
standard normals Z1 (p x m), z2 (1 x m) and Z3, and

    X  = chol(S) Z1 / sqrt(N),   Xi = (Z1'Z1 + E) / N,   E = Z3'Z3,

with E ~ Wishart_m(N - p - 1, I); z2 moves only the mean.  S is therefore
a Markov chain that is sampled here exactly in law, with O(p^3 + p^2 m)
work a step and no N x p array.  The terminal draw Y_i ~ N(0, S_T) gives
N S ~ Wishart_p(N - 1, S_T), drawn by the Bartlett decomposition.  In
continuous time this chain is the Riccati diffusion of the ensemble
covariance (Bishop & Del Moral, *Math. Control Signals Syst.*, 2023).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .riccati import invert_spd

COVARIANCE_JITTER = 1e-10


class EnkfConfigError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """Ensemble covariance left the finite, positive definite range; carries the time."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"ensemble covariance became non-finite or indefinite at t={t:g}")


class RankError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnkfConfig:
    """Run parameters for a dual-EnKF pass.

    S_T is the covariance of the terminal ensemble draw; pairing the terminal
    cost weight G with S_T = G^-1 is the convention used by the harness.  The
    ensemble needs more particles than states, N > n, for its covariance to
    have full rank.
    """

    N: int
    T: float
    dt: float
    S_T: np.ndarray

    def __post_init__(self):
        S_T = np.atleast_2d(np.asarray(self.S_T, dtype=float))
        if self.N <= S_T.shape[0]:
            raise EnkfConfigError(
                f"need more particles than states, got N={self.N} for n={S_T.shape[0]}"
            )
        if not self.T > 0:
            raise EnkfConfigError(f"horizon must be positive, got T={self.T}")
        if not 0 < self.dt <= self.T:
            raise EnkfConfigError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        if not np.allclose(S_T, S_T.T, atol=1e-10):
            raise EnkfConfigError("S_T must be symmetric")
        try:
            np.linalg.cholesky(S_T)
        except np.linalg.LinAlgError:
            raise EnkfConfigError("S_T must be positive definite") from None
        object.__setattr__(self, "S_T", S_T)

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def dt_effective(self) -> float:
        """Step actually used so that n_steps * dt lands exactly on T."""
        return self.T / self.n_steps


@dataclass(frozen=True)
class GainApprox:
    """Learned gain: the inverse P of the ensemble covariance at t=0.

    It comes from the linear dual EnKF on a linear design model (the heat
    operator or DMDc), so P approximates the Riccati solution of that model
    and the value gradient at x is P @ x.
    """

    P: np.ndarray

    @property
    def n(self) -> int:
        return self.P.shape[0]


def noise_factor(R: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of R^-1, the control-noise covariance per unit time."""
    return np.linalg.cholesky(invert_spd(np.atleast_2d(R)))


def _wishart_factor(dof: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """F with F'F ~ Wishart_k(dof, I).

    Bartlett's upper triangle when dof >= k (chi-square diagonal with
    dof, dof - 1, ... degrees of freedom, standard normals above it);
    otherwise dof standard-normal rows, so dof = 0 gives F'F = 0.
    """
    if dof < k:
        return rng.standard_normal((dof, k))
    F = np.triu(rng.standard_normal((k, k)), 1)
    F[np.diag_indices(k)] = np.sqrt(rng.chisquare(dof - np.arange(k)))
    return F


def init_covariance(cfg: EnkfConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """S of a terminal ensemble Y_i ~ N(0, S_T), drawn without the ensemble.

    N S = L_T F'F L_T' with S_T = L_T L_T' and F'F ~ Wishart_n(N - 1, I).
    """
    if cfg.S_T.shape != (n, n):
        raise EnkfConfigError(f"S_T shape {cfg.S_T.shape} != ({n}, {n})")
    U = _wishart_factor(cfg.N - 1, n, rng) @ np.linalg.cholesky(cfg.S_T).T
    return U.T @ U / cfg.N


def step_linear(
    S: np.ndarray,
    t: float,
    A: np.ndarray,
    CtC: np.ndarray,
    W: np.ndarray,
    N: int,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One backward step of the ensemble covariance, from t to t - dt.

    ``CtC`` is C'C and ``W`` = sqrt(dt) chol' B', chol = :func:`noise_factor`
    of R.  With S = LL', G = I - dt (A' + C'C S / 2) and U = L'G,

        S_next = U'U + V + V',  V = (U'Z1 / sqrt(N) + W'Xi / 2) W,

    Xi = (Z1'Z1 + E) / N, Z1 a (p, m) standard-normal draw and E the
    Wishart_m(N - p - 1, I) part of the noise outside the ensemble's span
    (module docstring).  Raises :class:`DivergenceError` when S is not
    positive definite or S_next is not finite.
    """
    m, p = W.shape
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise DivergenceError(t) from None
    with np.errstate(over="ignore", invalid="ignore"):
        U = L.T @ (np.eye(p) - dt * (A.T + 0.5 * CtC @ S))
        Z = rng.standard_normal((p, m))
        F = _wishart_factor(N - p - 1, m, rng)
        Xi = (Z.T @ Z + F.T @ F) / N
        V = (U.T @ Z / np.sqrt(N) + 0.5 * W.T @ Xi) @ W
        S_next = U.T @ U + V + V.T
    if not np.isfinite(S_next).all():
        raise DivergenceError(t - dt)
    return S_next


def _gain_from_covariance(S0: np.ndarray) -> GainApprox:
    S0 = 0.5 * (S0 + S0.T)
    eigs = np.linalg.eigvalsh(S0)
    if eigs[0] <= 1e-12 * max(eigs[-1], 0.0):
        raise RankError("time-zero ensemble covariance is rank deficient")
    P = invert_spd(S0 + COVARIANCE_JITTER * np.eye(S0.shape[0]))
    return GainApprox(P=0.5 * (P + P.T))


def run_dual_enkf_linear(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    R: np.ndarray,
    cfg: EnkfConfig,
    rng: np.random.Generator,
) -> GainApprox:
    """Sample the ensemble covariance from t=T down to t=0 and invert S_0."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    S = init_covariance(cfg, A.shape[0], rng)
    h = cfg.dt_effective
    W = np.sqrt(h) * noise_factor(R).T @ B.T
    CtC = C.T @ C
    t = cfg.T
    for _ in range(cfg.n_steps):
        S = step_linear(S, t, A, CtC, W, cfg.N, h, rng)
        t -= h
    return _gain_from_covariance(S)
