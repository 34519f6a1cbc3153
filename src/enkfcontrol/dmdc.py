"""Dynamic mode decomposition with control (DMDc) reduced-order models.

Fits a discrete-time linear model x_{k+1} = A_d x_k + B_d u_k on a reduced
basis from snapshot pairs of a (possibly nonlinear) simulator, then converts
it to continuous time.  The projection Phi has orthonormal rows; the full
state is reconstructed as z = Phi' x.  The snapshots are held once: X and
Xnext are views of one step-major buffer.  The fit takes the R factor of the
stacked snapshots before any SVD (Chan, ACM TOMS 8, 1982), carried over fixed
row blocks as a sequential tall-skinny QR (Demmel, Grigori, Hoemmen & Langou,
SIAM J. Sci. Comput. 34, 2012), so no factor with one column per snapshot is
formed and the fit's memory does not grow with the snapshot count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pde import Simulator, rk4_stepper


# snapshot rows per QR step of fit_dmdc and per block of collect_snapshots' rotation back from the
# eigenbasis: fixed, so the rounding is the same on every machine
_BLOCK_ROWS = 512


class FitError(RuntimeError):
    pass


class ConversionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SnapshotData:
    """Aligned snapshot triples: columns of X, Xnext, U are (z_k, z_{k+1}, u_k).

    From :func:`collect_snapshots`, columns are step-major (column
    k n_traj + i is trajectory i at step k), and X and Xnext are overlapping
    views of one (steps + 1, n_traj, p) buffer, so they must not be written.
    """

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
    fills them in the order of one draw per step; the draws are stacked
    once as (steps, n_traj, m).  All trajectories advance as one (n_traj, p)
    stack by :func:`pde.rk4_stepper`'s step into slab k + 1 of one
    (steps + 1, n_traj, p) buffer, in the eigenbasis of a symmetric linear
    simulator's A, mapped back in place over blocks of _BLOCK_ROWS rows of
    the flattened buffer (at the heat defaults the bits of one slab at a
    time; where a slab would take the BLAS's small-matrix kernel they part
    by rounding).  Columns are
    step-major: column k n_traj + i is trajectory i at step k.  X = buffer[:-1]
    and Xnext = buffer[1:] (and U, of the inputs) are reshaped views, not copies.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    streams = rng.spawn(n_traj)
    Z0 = np.array([ic_sampler(traj_rng) for traj_rng in streams], dtype=float)
    draws = [traj_rng.uniform(-amplitude, amplitude, size=(steps, sim.m)) for traj_rng in streams]
    us = np.stack(draws, axis=1)  # (steps, n_traj, m): slab k is every trajectory's input at step k
    Q, step = rk4_stepper(sim, dt)
    xs = np.empty((steps + 1, n_traj, Z0.shape[1]))
    xs[0] = Z0 if Q is None else Z0 @ Q
    for k in range(steps):
        step(xs[k], us[k], xs[k + 1])  # a new slot: xs[k] is a stored snapshot
    if Q is not None:
        flat = xs.reshape(-1, xs.shape[-1])
        for start in range(0, len(flat), _BLOCK_ROWS):
            block = flat[start:start + _BLOCK_ROWS]
            block[...] = block @ Q.T
    columns = lambda a: a.reshape(-1, a.shape[-1]).T  # views: one column per (step, trajectory)
    return SnapshotData(X=columns(xs[:-1]), Xnext=columns(xs[1:]), U=columns(us), dt=dt)


def _truncated_svd(M: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = min(rank, int(np.sum(s > s[0] * 1e-12))) if s.size else 0
    return U[:, :keep], s[:keep], Vt[:keep]


def fit_dmdc(data: SnapshotData, n: int) -> ReducedModel:
    """Standard DMDc regression at reduced order n (discrete-time result).

    The stacked input matrix [X; U] is truncated at rank n + m for the
    regression; the successor snapshots provide the rank-n output basis.

    Both come from the R of the K x (2p + m) matrix [X; U; Xnext]' = Q R,
    which is carried over row blocks of _BLOCK_ROWS snapshots: each step
    takes the R of [R; next block] in one work array, so the stack is never
    formed and the fit's memory does not depend on K.  R is the one-QR
    factor up to row signs and rounding; neither moves the singular vectors.
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

    # [R; next block] in one work array; R keeps min(rows seen, 2p + m) rows.
    # Fortran order, as LAPACK takes it: np.linalg.qr copies its argument to a
    # column-major buffer, which from a C-ordered array is a transpose each way
    work = np.empty((2 * p + m + _BLOCK_ROWS, 2 * p + m), order="F")
    rows = 0
    for start in range(0, K, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, K)
        block = work[rows:rows + stop - start]
        block[:, :p] = data.X[:, start:stop].T
        block[:, p:p + m] = data.U[:, start:stop].T
        block[:, p + m:] = data.Xnext[:, start:stop].T
        R = np.linalg.qr(work[:rows + stop - start], mode="r")
        rows = len(R)
        work[:rows] = R
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

    One eigendecomposition A_d = V diag(mu) V^-1 gives both:
    A = V diag(log mu / dt) V^-1 and, since B_d = int_0^dt exp(A s) ds B,
    B = V diag(log mu / (dt (mu - 1))) V^-1 B_d.  The factor
    log mu / (mu - 1) tends to 1 as mu -> 1, where the periodic constant
    mode sits; it keeps full relative accuracy there, because mu - 1 is
    exact and numpy's complex log is accurate near 1.  A defective or
    ill-conditioned V (cond(V) above 1e8) is rejected: rounding in V^-1
    grows like cond(V) eps, and at 1e8 reaches the 1e-8 tolerance of the
    realness check.
    """
    if not model.discrete:
        raise ConversionError("model is already continuous-time")
    mu, V = np.linalg.eig(model.A)
    on_neg_axis = (mu.real <= 0) & (np.abs(mu.imag) <= 1e-12 * np.maximum(1.0, np.abs(mu)))
    if np.any(on_neg_axis):
        raise ConversionError(
            "discrete matrix has eigenvalues on the closed negative real axis; "
            "no principal logarithm (try a smaller sampling step)"
        )
    cond = np.linalg.cond(V)
    if not cond <= 1e8:
        raise ConversionError(
            f"discrete matrix is defective or nearly so: its eigenvector matrix has "
            f"cond(V) = {cond:.3e} > 1e+08"
        )
    w = mu - 1.0  # exact for |mu - 1| <= 1/2
    log_mu = np.log(mu.astype(complex))
    factor = np.divide(log_mu, w, out=np.ones_like(log_mu), where=w != 0)
    V_inv = np.linalg.inv(V)
    A_log = (V * log_mu) @ V_inv
    if np.linalg.norm(A_log.imag) > 1e-8 * max(1.0, np.linalg.norm(A_log.real)):
        raise ConversionError("matrix logarithm is not real; try a smaller sampling step")
    A = A_log.real / model.dt
    B = (V * (factor / model.dt)) @ (V_inv @ model.B)
    return ReducedModel(A=A, B=B.real, Phi=model.Phi, dt=model.dt, discrete=False)


def reduce_state(model: ReducedModel, z: np.ndarray) -> np.ndarray:
    """x = Phi z."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != model.p:
        raise ValueError(f"state length {z.shape[-1]} != full dimension {model.p}")
    return z @ model.Phi.T
