"""Dynamic mode decomposition with control (DMDc) reduced-order models.

Trajectories in, one continuous-time model out.  :func:`collect_snapshots`
integrates excited trajectories of a (possibly nonlinear) simulator and
yields them one step at a time, as slabs (X_k, U_k, Xnext_k) of every
trajectory's state, input and next state; :func:`fit_dmdc` regresses the
discrete-time triple (A_d, B_d, Phi) of x_{k+1} = A_d x_k + B_d u_k from any
stream of such row blocks, and :func:`to_continuous` turns that triple once
into the :class:`ReducedModel` the gain is designed on.  The projection Phi
has orthonormal rows; the full state is reconstructed as z = Phi' x.
No snapshot is stored: the collection holds one step's slabs, which it
overwrites as it steps, and the fit copies each slab's rows into its work
array.  The fit takes the R factor of the stacked snapshots before any SVD
(Chan, ACM TOMS 8, 1982), carried over fixed row blocks as a sequential
tall-skinny QR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34,
2012), so no factor with one column per snapshot is formed, and the
training path's memory does not grow with the snapshot count.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .pde import GridSpec, Simulator, rk4_stepper, sample_initial_conditions


# snapshot rows per QR step of fit_dmdc: fixed, so the rounding is the same on every machine
_BLOCK_ROWS = 512
# steps of input collect_snapshots draws from each trajectory's stream at a time
_INPUT_STEPS = 32


class FitError(RuntimeError):
    pass


class ConversionError(RuntimeError):
    pass


@dataclass(frozen=True)
class ReducedModel:
    """Continuous-time reduced model dx/dt = A x + B u on x = Phi z (Phi with orthonormal rows)."""

    A: np.ndarray
    B: np.ndarray
    Phi: np.ndarray

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
    grid: GridSpec,
    n_traj: int,
    steps: int,
    dt: float,
    amplitude: float,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Integrate short excited trajectories; yield them step by step as (X, U, Xnext).

    Step k yields the (n_traj, p) states X, the (n_traj, m) inputs U and the
    (n_traj, p) next states Xnext: row i is trajectory i at step k, and
    Xnext is the X of step k + 1.  The slabs are the generator's own
    buffers, so a yielded slab is valid until the next one is drawn; copy
    it to keep it.
    Inputs are zero-mean uniform on [-amplitude, amplitude], redrawn every
    step (piecewise constant over one step).  Each trajectory consumes its
    own child RNG stream (its bump initial condition on ``grid``, from
    :func:`pde.sample_initial_conditions`, then its inputs, drawn
    _INPUT_STEPS steps at a time: the values of one (steps, m) draw), so
    the data is reproducible regardless of how the trajectories are
    scheduled.  All trajectories advance as one (n_traj, p) stack by
    :func:`pde.rk4_stepper`'s step.  The heat plant is stepped in place in
    the closed-form eigenbasis of its A, and each new slab is mapped back
    once into the plant coordinates Xnext; any other simulator steps the
    states themselves.
    """
    streams = rng.spawn(n_traj)
    Z0 = sample_initial_conditions(streams, grid)
    Q, step = rk4_stepper(sim, dt)
    if Q is None:
        x = Z0
    else:
        y, work = Z0 @ Q, Z0  # the eigenbasis slab; Z0's buffer takes the step's input term
        x = y @ Q.T
    x_next = np.empty_like(x)
    us = np.empty((min(steps, _INPUT_STEPS), n_traj, sim.m))
    for k in range(steps):
        if k % _INPUT_STEPS == 0:
            chunk = us[:min(_INPUT_STEPS, steps - k)]
            for i, traj_rng in enumerate(streams):
                chunk[:, i] = traj_rng.uniform(-amplitude, amplitude, size=(len(chunk), sim.m))
        u = us[k % _INPUT_STEPS]
        if Q is None:
            step(x, u, x_next)
        else:
            step(y, u, y, work)
            np.matmul(y, Q.T, out=x_next)
        yield x, u, x_next
        x, x_next = x_next, x


def _truncated_svd(M: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = min(rank, int(np.sum(s > s[0] * 1e-12))) if s.size else 0
    return U[:, :keep], s[:keep], Vt[:keep]


def fit_dmdc(
    snapshots: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard DMDc regression at reduced order n: the discrete-time (A_d, B_d, Phi).

    ``snapshots`` is any iterable of row blocks (X, U, Xnext), shaped
    (rows, p), (rows, m) and (rows, p): the blocks :func:`collect_snapshots`
    yields, or ``[(X, U, Xnext)]`` for data already in arrays.  Each row is
    one snapshot triple; a block is read once, when it arrives, and not
    kept.  Below, X, Xnext and U are the p x K, p x K and m x K matrices
    with all K rows as columns.  The stacked input matrix [X; U] is
    truncated at rank n + m for the regression; the successor snapshots
    provide the rank-n output basis.

    Both come from the R of the K x (2p + m) matrix [X; U; Xnext]' = Q R,
    which is carried over blocks of _BLOCK_ROWS rows, filled in arrival
    order whatever the incoming blocks' sizes: each step takes the R of
    [R; next block] in one work array, so the stack is never formed and the
    fit's memory does not depend on K.  R is the one-QR factor up to row
    signs and rounding; neither moves the singular vectors.
    With R = [R1 R2] split after column p + m, [X; U] = R1' Q' and
    Xnext = R2' Q', so their left singular vectors and values are those of
    R1' and R2', and Xnext V_in = R2' W_in for the right singular vectors
    W_in of R1'; Q is never formed.  A Gram matrix such as Xnext Xnext' would
    square the condition number; the QR does not.  Phi's row signs are the
    ones LAPACK picks for the SVD of R2'.
    """
    # [R; next block] in one work array; R keeps min(rows seen, 2p + m) rows
    # and the block fills the `filled` rows below it, in arrival order whatever
    # the incoming blocks' sizes, so R has the bits of one array's fit.
    # Fortran order, as LAPACK takes it: np.linalg.qr copies its argument to a
    # column-major buffer, which from a C-ordered array is a transpose each way
    work, R, rows, filled = None, None, 0, 0

    def fold(stop: int) -> int:  # the R of work[:stop] into work's top rows; its row count
        nonlocal R
        # the last R is freed only once the new one exists: freed first, it let glibc trim the
        # heap after each fold, and each next QR faulted its 2.2 MB of buffers back in
        R = np.linalg.qr(work[:stop], mode="r")
        work[:len(R)] = R
        return len(R)

    for X, U, Xnext in snapshots:
        if work is None:
            p, m = X.shape[1], U.shape[1]
            work = np.empty((2 * p + m + _BLOCK_ROWS, 2 * p + m), order="F")
        done = 0
        while done < len(X):
            take = min(len(X) - done, _BLOCK_ROWS - filled)
            block = work[rows + filled:rows + filled + take]
            block[:, :p] = X[done:done + take]
            block[:, p:p + m] = U[done:done + take]
            block[:, p + m:] = Xnext[done:done + take]
            done, filled = done + take, filled + take
            if filled == _BLOCK_ROWS:
                rows, filled = fold(rows + filled), 0
    if filled:
        rows = fold(rows + filled)
    if R is None:
        raise FitError("no snapshots to fit")
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
    return A_d, B_d, U_out.T.copy()


def to_continuous(A_d: np.ndarray, B_d: np.ndarray, Phi: np.ndarray, dt: float) -> ReducedModel:
    """The continuous-time model of :func:`fit_dmdc`'s triple at sampling step dt.

    A = log(A_d)/dt, and B solves the step integral.

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
    mu, V = np.linalg.eig(A_d)
    on_neg_axis = (mu.real <= 0) & (np.abs(mu.imag) <= 1e-12 * np.maximum(1.0, np.abs(mu)))
    if np.any(on_neg_axis):
        raise ConversionError(
            "discrete matrix has eigenvalues on the closed negative real axis; "
            "no principal logarithm"
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
        raise ConversionError("matrix logarithm is not real")
    A = A_log.real / dt
    B = (V * (factor / dt)) @ (V_inv @ B_d)
    return ReducedModel(A=A, B=B.real, Phi=Phi)


def reduce_state(model: ReducedModel, z: np.ndarray) -> np.ndarray:
    """x = Phi z."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != model.p:
        raise ValueError(f"state length {z.shape[-1]} != full dimension {model.p}")
    return z @ model.Phi.T
