"""Dual ensemble Kalman filter for learning optimal-control gains.

The gain comes from the linear dual EnKF (Joshi, Taghvaei, Mehta & Meyn,
*Systems & Control Letters*, 2022) on a linear design model: the heat
operator nu D2 (also the Burgers linearization) or a DMDc fit.  The cost
is quadratic with scalar weights, q |x|^2 + r |u|^2 running and g |x|^2
terminal, which the config holds as ``q``, ``r_input`` and ``g``.  An
ensemble of N copies of the disturbance-free model is integrated backward
from the horizon T to time 0.  Each particle follows the model drift plus
control-channel noise with covariance I/r, and is coupled to the ensemble
through an empirical-covariance gain acting on the averaged innovation
sqrt(q) (Y_i + mean) / 2.  The inverse of the 1/N-normalized ensemble
covariance S at time 0 approximates the Riccati solution P.

Time direction.  Particles are indexed by decreasing t.  The drift and the
coupling term are applied with step -dt on the reversed clock, and the noise
is drawn as fresh Gaussian increments with covariance dt I/r; this
convention is pinned by the scalar stationary-Riccati benchmark in the tests.

Linear step.  With M = q S / 2, G = I - dt (A' + M) and W = sqrt(dt / r) B',
a particle step is Y+ = Y G - dt 1 (mean' M) + xi W, xi an (N, m)
standard-normal draw, so the centered rows move as Yc+ = Yc G + xic W and

    S+ = G'SG + V + V',  V = (G'X + W'Xi / 2) W,

with X = Yc'xi / N and Xi = xic'xic / N.  The rows enter S+ only through
X and Xi, and the mean never enters it.  Given the ensemble, split xi
along the column space of Yc (rank p), along the ones vector, and along
the remaining N - p - 1 directions: the three parts are independent
standard normals Z1 (p x m), z2 (1 x m) and Z3, and

    X  = chol(S) Z1 / sqrt(N),   Xi = (Z1'Z1 + F'F) / N,   F'F = Z3'Z3,

with F'F ~ Wishart_m(N - p - 1, I) and F of f = min(N - p - 1, m) rows;
z2 moves only the mean.  With S = LL', U = L'G and W^ = W / sqrt(N),
the step is one Gram product,

    S+ = C'C,  C = [U + Z1 W^ ; F W^],

since U'U + V + V' = (U + Z1 W^)'(U + Z1 W^) + (F W^)'(F W^).  S+ is
therefore symmetric bit for bit, and positive semidefinite as drawn.  S is
a Markov chain that is sampled here exactly in law, with O(p^3 + p^2 m)
work a step and no N x p array.  The terminal draw Y_i ~ N(0, I/g) gives
g N S ~ Wishart_p(N - 1, I), drawn by the Bartlett decomposition.  In
continuous time this chain is the Riccati diffusion of the ensemble
covariance (Bishop & Del Moral, *Math. Control Signals Syst.*, 2023).

Particle count.  N enters a step only through F's degrees of freedom and
the 1/sqrt(N) scaling, so a run costs the same at any N.  As N grows the
chain tends to the mean-field recursion S+ = G'SG + (N - 1)/N W'W, the
expectation of one step given S, at a distance c/sqrt(N).  At the paper's
N = 10^4 on the heat defaults the gain's error against the Riccati
reference is 0.043-0.048, while the mean-field recursion's own error, the
explicit step's bias, is 1.1e-3: the gain error is mostly sampling error.

Cost.  A run computes once what its steps share, each step's required
``chain``: the identity, A' in C order, the buffer each step builds G in,
the (p + f) x p buffer C, and the draw of F (its chi-square degrees of
freedom and the index of its lower triangle); one ``errstate`` covers its
loop.  A step builds G in that buffer with the operations of the formula in
its order, (q/2) S, then + A', * dt and I - G, and draws F from the
generator as Bartlett's construction always has, so S is the same bit for
bit as from a step that builds everything afresh.  What is left of a step
is one Cholesky factor, the p x p product L'G, the thin products Z1 W^ and
F W^ into C, and C'C, which numpy computes as a symmetric rank-k update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .riccati import invert_spd

COVARIANCE_JITTER = 1e-10


class DivergenceError(RuntimeError):
    """Ensemble covariance left the finite, positive definite range; carries the time, and the fix if known."""

    def __init__(self, t: float, fix: str = ""):
        self.t = t
        super().__init__(f"ensemble covariance became non-finite or indefinite at t={t:g}" + (fix and f"; {fix}"))


class RankError(RuntimeError):
    pass


@dataclass(frozen=True)
class GainApprox:
    """Learned gain: the inverse P of the ensemble covariance at t=0.

    It comes from the linear dual EnKF on a linear design model (the heat
    operator, the Burgers linearization nu D2 or the DMDc fit), so P
    approximates the Riccati solution of that model and the value gradient
    at x is P @ x.
    """

    P: np.ndarray

    @property
    def n(self) -> int:
        return self.P.shape[0]


def _wishart(dof: int, k: int):
    """A draw(rng) of F with F'F ~ Wishart_k(dof, I), its index arrays built once.

    Bartlett's upper triangle when dof >= k: a (k, k) standard-normal draw
    with its lower triangle set to +0.0, then a chi-square diagonal with
    dof, dof - 1, ... degrees of freedom.  Otherwise dof standard-normal
    rows, so dof = 0 gives F'F = 0.
    """
    if dof < k:
        return lambda rng: rng.standard_normal((dof, k))
    chi_dof = dof - np.arange(k)
    lower = np.flatnonzero(np.tri(k, k, -1))

    def draw(rng: np.random.Generator) -> np.ndarray:
        F = rng.standard_normal((k, k))
        flat = F.reshape(-1)
        flat[lower] = 0.0
        flat[:: k + 1] = np.sqrt(rng.chisquare(chi_dof))
        return F

    return draw


def init_covariance(n: int, N: int, g: float, rng: np.random.Generator) -> np.ndarray:
    """S of a terminal ensemble of N particles Y_i ~ N(0, I/g) in R^n, drawn without the ensemble.

    g N S = F'F with F'F ~ Wishart_n(N - 1, I).
    """
    F = _wishart(N - 1, n)(rng)
    return F.T @ F / (N * g)


def _chain(A: np.ndarray, m: int, N: int) -> tuple:
    """What every step of one run shares, computed once.

    The p x p identity, A' in C order, the buffer each step builds G in,
    the (p + f) x p buffer C and the draw of F, F'F ~ Wishart_m(N - p - 1, I)
    with f = min(N - p - 1, m) rows.
    """
    p = A.shape[0]
    C = np.empty((p + min(N - p - 1, m), p))
    return np.eye(p), np.ascontiguousarray(A.T), np.empty((p, p)), C, _wishart(N - p - 1, m)


def step_linear(
    S: np.ndarray,
    t: float,
    q: float,
    W: np.ndarray,
    N: int,
    dt: float,
    rng: np.random.Generator,
    chain: tuple,
) -> np.ndarray:
    """One backward step of the ensemble covariance, from t to t - dt.

    q and r are the running weights of q |x|^2 + r |u|^2, and ``W`` is
    sqrt(dt / r) B'.  With S = LL', G = I - dt (A' + q S / 2), U = L'G and
    W^ = W / sqrt(N),

        S_next = C'C,  C = [U + Z1 W^ ; F W^],

    Z1 a (p, m) standard-normal draw and F'F ~ Wishart_m(N - p - 1, I) the
    part of the noise outside the ensemble's span; C'C is the particle
    step's U'U + V + V' regrouped (module docstring).  Raises
    :class:`DivergenceError` when S is not positive definite or S_next is
    not finite.

    ``chain`` is required: the run's constants from :func:`_chain`, A' among
    them.  The caller ignores overflow and invalid warnings around its loop.
    """
    eye, At, G, C, wishart = chain
    m, p = W.shape
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise DivergenceError(t) from None
    np.multiply(0.5 * q, S, out=G)
    G += At
    G *= dt
    np.subtract(eye, G, out=G)
    W_hat = W / np.sqrt(N)
    np.matmul(L.T, G, out=C[:p])
    C[:p] += rng.standard_normal((p, m)) @ W_hat
    np.matmul(wishart(rng), W_hat, out=C[p:])
    S_next = C.T @ C
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
    q: float,
    r: float,
    g: float,
    N: int,
    T: float,
    n_steps: int,
    rng: np.random.Generator,
) -> GainApprox:
    """Sample the ensemble covariance from t=T down to t=0 in n_steps steps of T / n_steps; invert S_0.

    q > 0 and r > 0 are the running weights of q |x|^2 + r |u|^2 and g > 0
    the terminal one of g |x|^2: the terminal ensemble is drawn from
    N(0, I/g).  Its covariance has full rank only with more particles than
    states, N > n.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    S = init_covariance(A.shape[0], N, g, rng)
    h = T / n_steps
    W = np.sqrt(h / r) * B.T
    chain = _chain(A, B.shape[1], N)
    t = T
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            S = step_linear(S, t, q, W, N, h, rng, chain)
            t -= h
    return _gain_from_covariance(S)
