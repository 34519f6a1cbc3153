"""Dual ensemble Kalman filter for learning optimal-control gains.

The gain comes from the linear dual EnKF on a linear design model: the heat
operator, or the DMDc reduced model of the heat or Burgers plant.  An
ensemble of N copies of the disturbance-free model is integrated backward
from the horizon T to time 0.  Each particle follows the model drift plus
control-channel noise with covariance R^-1, and is coupled to the ensemble
through an empirical-covariance gain acting on the innovation.  The inverse
of the empirical covariance at time 0 approximates the Riccati solution P.

Time direction.  Particles are indexed by decreasing t.  The drift and the
coupling term are applied with step -dt on the reversed clock, and the noise
is drawn as fresh Gaussian increments with covariance R^-1 dt; this
convention is pinned by the scalar stationary-Riccati benchmark in the tests.

Linear step.  With a linear drift A, an observation C and the averaged
innovation (C Y_i + C mean) / 2, the coupling S C' (C Y_i + C mean) / 2 is
linear in Y_i.  With M = C'C S / 2, G = I - dt (A' + M) and
W = sqrt(dt) chol' B' (chol the Cholesky factor of R^-1), a step is
Y+ = Y G - dt 1 (mean' M) + xi W, xi the (N, m) standard-normal draw.
Centered, Yc+ = Yc G + xic W, so the moments follow exactly from the old
ones and the cross moments of the draw:

    mean+ = mean (G - dt M) + xibar W,
    S+    = G'SG + G'XW + (G'XW)' + W' Xi W,

with X = Y'xi/N - mean xibar' and Xi = xi'xi/N - xibar xibar'.  The
ensemble lives in a column-major N x (p+m+1) array [Y | xi | 1], so the
N-row work of a step is two products: [Y|xi|1] [G; W; -dt mean'M] writes
the next ensemble, and [Y|xi|1]' xi gives Y'xi, xi'xi and 1'xi.  The
carried moments drive the coupling only; the gain is computed from the
samples of the final ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .riccati import invert_spd

COVARIANCE_JITTER = 1e-10


class EnkfConfigError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """Ensemble left the finite range; carries the time of failure."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"ensemble became non-finite at t={t:g}")


class RankError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnkfConfig:
    """Run parameters for a dual-EnKF pass.

    S_T is the covariance of the terminal ensemble draw; pairing the terminal
    cost weight G with S_T = G^-1 is the convention used by the harness.
    """

    N: int
    T: float
    dt: float
    S_T: np.ndarray

    def __post_init__(self):
        if self.N < 2:
            raise EnkfConfigError(f"need at least 2 particles, got N={self.N}")
        if not self.T > 0:
            raise EnkfConfigError(f"horizon must be positive, got T={self.T}")
        if not 0 < self.dt <= self.T:
            raise EnkfConfigError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        S_T = np.atleast_2d(np.asarray(self.S_T, dtype=float))
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


@dataclass
class Ensemble:
    """N particle states (rows of Y) at a common time t.

    An ensemble made by :func:`step_linear` also carries its mean and
    1/N-normalized covariance S, kept by the moment recursion, and ``work``,
    the column-major N x (p+m+1) array [Y | xi | 1] whose first p columns
    are Y.  A bare ``Ensemble(Y, t)`` leaves them None; the linear step then
    takes the moments from the samples and lays Y out in a new work array.
    The carried moments describe Y as the step left it, so Y is not to be
    changed in place.
    """

    Y: np.ndarray
    t: float
    mean: np.ndarray | None = None
    S: np.ndarray | None = None
    work: np.ndarray | None = None

    @property
    def N(self) -> int:
        return self.Y.shape[0]

    @property
    def n(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class GainApprox:
    """Learned gain: empirical covariance at t=0 and its inverse.

    Both come from the linear dual EnKF on a linear design model (the heat
    operator or DMDc), so P approximates the Riccati solution of that model
    and the value gradient at x is P @ x.
    """

    S0: np.ndarray
    P: np.ndarray

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def value_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.P @ x


def init_ensemble(cfg: EnkfConfig, n: int, rng: np.random.Generator) -> Ensemble:
    """Draw the terminal ensemble Y_i ~ N(0, S_T) and stamp it with t = T."""
    if cfg.S_T.shape != (n, n):
        raise EnkfConfigError(f"S_T shape {cfg.S_T.shape} != ({n}, {n})")
    chol = np.linalg.cholesky(cfg.S_T)
    Y = rng.standard_normal((cfg.N, n)) @ chol.T
    return Ensemble(Y=Y, t=cfg.T)


def empirical_stats(e: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and 1/N-normalized covariance."""
    mean = e.Y.mean(axis=0)
    Yc = e.Y - mean
    S = (Yc.T @ Yc) / e.N
    return mean, S


def noise_factor(R: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of R^-1, the control-noise covariance per unit time."""
    return np.linalg.cholesky(invert_spd(np.atleast_2d(R)))


def _work_array(N: int, p: int, m: int) -> np.ndarray:
    """Column-major [Y | xi | 1] with the ones column filled in."""
    work = np.empty((N, p + m + 1), order="F")
    work[:, -1] = 1.0
    return work


def _laid_out(e: Ensemble, m: int) -> Ensemble:
    """``e`` copied into a work array for noise dimension m, with its moments."""
    mean, S = empirical_stats(e)
    work = _work_array(e.N, e.n, m)
    work[:, : e.n] = e.Y
    return Ensemble(Y=work[:, : e.n], t=e.t, mean=mean, S=S, work=work)


def step_linear(
    e: Ensemble,
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    chol: np.ndarray,
    dt: float,
    rng: np.random.Generator,
) -> Ensemble:
    """One backward Euler-Maruyama step of the linear particle system.

    Drift A Y_i plus the coupling gain S C' applied to the averaged
    innovation (C Y_i + C mean) / 2 enter with step -dt; the noise B d_eta
    has covariance B R^-1 B' dt, drawn through ``chol`` = :func:`noise_factor`
    of R.

    With M = C'C S / 2, G = I - dt (A' + M), W = sqrt(dt) chol' B' and xi the
    (N, m) standard-normal draw, written into the xi columns of ``e.work``,
    the next ensemble is one product into a new work array,

        Y_next = [Y | xi | 1] [G; W; -dt mean'M].

    The moments are carried, not recomputed from the rows.  The mean row
    [mean | xibar | 1] moves like any row, and [Y | xi | 1]' xi / N gives
    X = Y'xi/N - mean xibar' and Xi = xi'xi/N - xibar xibar':

        mean_next = mean (G - dt M) + xibar W,
        S_next    = G'SG + V + V',  V = (G'X + W'Xi / 2) W.

    A bare ensemble is first copied into a work array with the moments of
    its samples.
    """
    m = chol.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if e.work is None:
            e = _laid_out(e, m)
        N, p, work, mean, S = e.N, e.n, e.work, e.mean, e.S
        M = 0.5 * (C.T @ C) @ S
        G = np.eye(p) - dt * (A.T + M)
        W = np.sqrt(dt) * chol.T @ B.T
        xi = work[:, p : p + m]
        xi[...] = rng.standard_normal((N, m))
        K = np.concatenate((G, W, -dt * (mean @ M)[None]))
        nxt = _work_array(N, p, m)
        np.matmul(work, K, out=nxt[:, :p])
        cross = work.T @ xi / N
        row = np.concatenate((mean, cross[-1], [1.0]))  # the mean row [mean | xibar | 1]
        D = cross - row[:, None] * cross[-1]  # [X; Xi; 0]
        V = (G.T @ D[:p] + 0.5 * W.T @ D[p:-1]) @ W
        S_next = G.T @ S @ G + V + V.T
        mean_next = row @ K
    Y_next = nxt[:, :p]
    t_next = e.t - dt
    if not np.isfinite(Y_next).all():
        raise DivergenceError(t_next)
    return Ensemble(Y=Y_next, t=t_next, mean=mean_next, S=S_next, work=nxt)


def _gain_from_ensemble(e: Ensemble) -> GainApprox:
    _, S0 = empirical_stats(e)
    S0 = 0.5 * (S0 + S0.T)
    eigs = np.linalg.eigvalsh(S0)
    if eigs[0] <= 1e-12 * max(eigs[-1], 0.0):
        raise RankError(
            "time-zero ensemble covariance is rank deficient; increase N or the jitter"
        )
    S0 = S0 + COVARIANCE_JITTER * np.eye(e.n)
    P = invert_spd(S0)
    P = 0.5 * (P + P.T)
    return GainApprox(S0=S0, P=P)


def run_dual_enkf_linear(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    R: np.ndarray,
    cfg: EnkfConfig,
    rng: np.random.Generator,
) -> GainApprox:
    """Run the linear dual EnKF from t=T down to t=0 and invert S_0."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    chol = noise_factor(R)
    # laid out at once, so that the terminal draw is gone before the first step
    e = _laid_out(init_ensemble(cfg, A.shape[0], rng), chol.shape[0])
    h = cfg.dt_effective
    for _ in range(cfg.n_steps):
        e = step_linear(e, A, B, C, chol, h, rng)
    return _gain_from_ensemble(e)

