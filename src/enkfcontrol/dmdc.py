"""Dynamic mode decomposition with control (DMDc) reduced-order models.

Fits a discrete-time linear model x_{k+1} = A_d x_k + B_d u_k on a reduced
basis from snapshot pairs of a (possibly nonlinear) simulator, then converts
it to continuous time.  The projection Phi has orthonormal rows; the full
state is reconstructed as z = Phi' x.  The fit takes one QR of the stacked
snapshots before any SVD (Chan, ACM TOMS 8, 1982), so no factor with one
column per snapshot is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pde import Simulator, rk4_step


class FitError(RuntimeError):
    pass


class ConversionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SnapshotData:
    """Aligned snapshot triples: columns of X, Xnext, U are (z_k, z_{k+1}, u_k)."""

    X: np.ndarray
    Xnext: np.ndarray
    U: np.ndarray
    dt: float

    def __post_init__(self):
        if self.X.shape != self.Xnext.shape:
            raise ValueError("X and Xnext shapes differ")
        if self.U.shape[1] != self.X.shape[1]:
            raise ValueError("U column count differs from X")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @property
    def K(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ReducedModel:
    """Reduced model (A, B) with projection Phi (orthonormal rows).

    ``discrete`` marks whether (A, B) is the fitted discrete-time map at
    sampling step dt or its continuous-time equivalent.
    """

    A: np.ndarray
    B: np.ndarray
    Phi: np.ndarray
    dt: float
    discrete: bool

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.Phi.shape[1]


def collect_snapshots(
    sim: Simulator,
    ic_sampler,
    n_traj: int,
    steps: int,
    dt: float,
    amplitude: float,
    rng: np.random.Generator,
) -> SnapshotData:
    """Integrate short excited trajectories and record (z_k, z_{k+1}, u_k).

    Inputs are zero-mean uniform on [-amplitude, amplitude], redrawn every
    step (piecewise constant over one step).  Each trajectory consumes its
    own child RNG stream (its initial condition, then one input per step),
    so the data is reproducible regardless of how the trajectories are
    scheduled.  A stream's inputs are drawn in one (steps, m) call, which
    fills them in the order of one draw per step.  All trajectories advance
    as one (n_traj, p) stack; columns are trajectory-major and time-ordered.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    streams = rng.spawn(n_traj)
    Z0 = np.array([ic_sampler(traj_rng) for traj_rng in streams], dtype=float)
    us = np.array(
        [traj_rng.uniform(-amplitude, amplitude, size=(steps, sim.m)) for traj_rng in streams]
    )
    xs = np.empty((n_traj, steps + 1, Z0.shape[1]))
    xs[:, 0] = Z0
    for k in range(steps):
        xs[:, k + 1] = rk4_step(sim, xs[:, k], us[:, k], dt)
    columns = lambda a: a.reshape(-1, a.shape[-1]).T  # one column per (trajectory, step)
    return SnapshotData(X=columns(xs[:, :-1]), Xnext=columns(xs[:, 1:]), U=columns(us), dt=dt)


def _truncated_svd(M: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = min(rank, int(np.sum(s > s[0] * 1e-12))) if s.size else 0
    return U[:, :keep], s[:keep], Vt[:keep]


def fit_dmdc(data: SnapshotData, n: int) -> ReducedModel:
    """Standard DMDc regression at reduced order n (discrete-time result).

    The stacked input matrix [X; U] is truncated at rank n + m for the
    regression; the successor snapshots provide the rank-n output basis.

    Both come from one QR of the K x (2p + m) matrix [X; U; Xnext]' = Q R.
    With R = [R1 R2] split after column p + m, [X; U] = R1' Q' and
    Xnext = R2' Q', so their left singular vectors and values are those of
    R1' and R2', and Xnext V_in = R2' W_in for the right singular vectors
    W_in of R1'; Q is never formed.  A Gram matrix such as Xnext Xnext' would
    square the condition number; the QR does not.  Phi's row signs are the
    ones LAPACK picks for the SVD of R2'.
    """
    p, K = data.X.shape
    m = data.U.shape[0]
    if n > p:
        raise FitError(f"reduced order n={n} exceeds state dimension p={p}")
    if K < n + m:
        raise FitError(f"need at least n+m={n + m} snapshot columns, got K={K}")

    R = np.linalg.qr(np.vstack([data.X, data.U, data.Xnext]).T, mode="r")
    R1t, R2t = R[:, :p + m].T, R[:, p + m:].T
    U_in, s_in, Wt_in = _truncated_svd(R1t, n + m)
    U_out, _, _ = _truncated_svd(R2t, n)
    if U_out.shape[1] < n:
        raise FitError(
            f"snapshot data supports rank {U_out.shape[1]} < requested n={n}"
        )

    # G = Xnext V S^-1 U' maps stacked [x; u] to x_next; split and project.
    proj = R2t @ (Wt_in.T / s_in)
    U1 = U_in[:p]
    U2 = U_in[p:]
    A_d = U_out.T @ proj @ U1.T @ U_out
    B_d = U_out.T @ proj @ U2.T
    return ReducedModel(A=A_d, B=B_d, Phi=U_out.T.copy(), dt=data.dt, discrete=True)


def to_continuous(model: ReducedModel) -> ReducedModel:
    """Continuous-time equivalent: A = log(A_d)/dt, B solves the step integral.

    B_d = M B with M = int_0^dt exp(A s) ds; M is read off a block matrix
    exponential, which also covers singular A.
    """
    from scipy.linalg import expm, logm  # here, not at the top: full-model runs need no scipy

    if not model.discrete:
        raise ConversionError("model is already continuous-time")
    eigs = np.linalg.eigvals(model.A)
    on_neg_axis = (eigs.real <= 0) & (np.abs(eigs.imag) <= 1e-12 * np.maximum(1.0, np.abs(eigs)))
    if np.any(on_neg_axis):
        raise ConversionError(
            "discrete matrix has eigenvalues on the closed negative real axis; "
            "no principal logarithm (try a smaller sampling step)"
        )
    A_log = logm(model.A)
    if np.linalg.norm(np.imag(A_log)) > 1e-8 * max(1.0, np.linalg.norm(np.real(A_log))):
        raise ConversionError("matrix logarithm is not real; try a smaller sampling step")
    A = np.real(A_log) / model.dt

    n = model.n
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = A * model.dt
    block[:n, n:] = np.eye(n) * model.dt
    M = expm(block)[:n, n:]
    B = np.linalg.solve(M, model.B)
    return ReducedModel(A=A, B=B, Phi=model.Phi, dt=model.dt, discrete=False)


def reduce_state(model: ReducedModel, z: np.ndarray) -> np.ndarray:
    """x = Phi z."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != model.p:
        raise ValueError(f"state length {z.shape[-1]} != full dimension {model.p}")
    return z @ model.Phi.T
