"""Robust control law: u = (optimal learning control) + (robust term).

With g = P x the learned value gradient, B the input matrix and R > 0 the
scalar input weight of the running cost R |u|^2, the optimal learning
control minimizes the control Hamiltonian, an exact quadratic in u, at

    u_bar = -B' g / R,

and the Lyapunov-redesign term opposes norm-bounded matched disturbances
along the value gradient:

    u_d = -lambda * B^+ g / max(|g|, r),

with B^+ the least-squares pseudo-inverse.  The regularization floor r trades
asymptotic for practical stability (the state settles into the ball |g| < r
instead of reaching the origin).  lambda is given at evaluation, so one law
serves every disturbance bound that shares the gain.

:class:`ControlLaw` carries the B of its linear design model, so the law
is always a fixed linear feedback plus a normalized projection.  The
per-state functions evaluate it at one state and are the tests' reference;
:func:`compile_law` checks B's column rank and solves the law once into one
matrix from one SVD of B, folding the reduction Phi, P, K = B'P / R and B^+
together, in the plant's state coordinates or any orthonormal basis of
them, and :meth:`CompiledLaw.bind` binds it once to a stack of states,
which it then evaluates with one GEMM a call.  The closed loop always uses
the compiled law; its lambda = 0 rows (the optimal learning control) use
the K block alone and never read g or B^+.

Lyapunov redesign assumes a nominal stabilizing law plus a matched
uncertainty (Khalil, *Nonlinear Systems*, 3rd ed., 2002, section 14.2).
On Burgers with ``model=full`` the gain is designed on the linearization
nu D2, and the advection -z D1 z is a state-dependent mismatch that the
robust term does not bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dmdc import ReducedModel, reduce_state
from .enkf import GainApprox
from .pde import Simulator

class RankDeficientError(RuntimeError):
    pass


@dataclass(frozen=True)
class ControlLaw:
    """The law but its lambda: gain, design B (:func:`compile_law` checks its rank), R > 0, r > 0, reduction."""

    gain: GainApprox
    B: np.ndarray
    R: float
    r: float
    reduction: ReducedModel | None = None


def estimate_b(sim: Simulator, x: np.ndarray, m: int) -> np.ndarray:
    """Probe the input matrix B columnwise at x: column j = S(x, e_j) - S(x, 0).

    Nothing in the package calls it: the law reads B from its linear design
    model, where this probe gives the same bits.  It stays until a benchmark
    change retires the span the benchmark's tracer keeps on it.
    """
    x = np.asarray(x, dtype=float)
    base = sim.rhs(x, np.zeros(m))
    cols = [sim.rhs(x, np.eye(m)[j]) - base for j in range(m)]
    return np.column_stack(cols)


def minimize_hamiltonian(law: ControlLaw, x: np.ndarray) -> np.ndarray:
    """Global minimizer -B' g / R of the control Hamiltonian at x."""
    return -(law.B.T @ (law.gain.P @ x)) / law.R


def robust_term(law: ControlLaw, x: np.ndarray, lam: float) -> np.ndarray:
    """Lyapunov-redesign term u_d = -lambda * B^+ g / max(|g|, r)."""
    g = law.gain.P @ x
    r1 = max(float(np.linalg.norm(g)), law.r)
    v, *_ = np.linalg.lstsq(law.B, g / r1, rcond=None)
    return -lam * v


def robust_control(law: ControlLaw, z: np.ndarray, lam: float) -> np.ndarray:
    """Full control u = u_bar + u_d at state z (reduced first if applicable)."""
    x = reduce_state(law.reduction, z) if law.reduction is not None else np.asarray(z, dtype=float)
    return minimize_hamiltonian(law, x) + robust_term(law, x, lam)


@dataclass(frozen=True)
class CompiledLaw:
    """The law of :func:`robust_control` as one matrix, for a stack of states.

    With x = Phi z (Phi = I without a reduction), g = P x and K = B'P / R,

        u = -K x - lambda B^+ g / max(|g|, r),

    and a row z of the stack gives g, -K x and -B^+ g at once as the row
    z H, H = [Phi'P' | -Phi'K' | -Phi'P'B^+'] with n + m + m columns: the
    last two blocks are stored negated, so an evaluation adds them and
    negates nothing, with the bits of the unnegated form.  lambda is
    supplied per row when the law is bound to its rows, so one compiled law
    serves every lambda that shares the gain.  A row with lambda = 0 reads
    K x alone, from H's m feedback columns.
    """

    H: np.ndarray
    n: int
    r: float

    def bind(self, Z: np.ndarray, lam: np.ndarray, U: np.ndarray) -> Callable[[], None]:
        """``control()``: adds the controls of the rows of Z, row i under lam[i], into U.

        Like the step of :func:`pde.rk4_stepper`, the law is bound once: Z
        and U are views the caller keeps (a stack stepped in place), and the
        work array for Z H and its g, -K x and -B^+ g column blocks are made
        here, so a call reads whatever Z then holds and allocates nothing.
        Rows that all have lambda = 0 read -K x alone, Z times H's feedback
        columns.
        """
        H, n, r = self.H, self.n, self.r
        m = (H.shape[1] - n) // 2
        if not np.any(lam):
            minus_K = np.ascontiguousarray(H[:, n:n + m])
            FK = np.empty((len(Z), m))

            def feedback():
                np.add(U, np.matmul(Z, minus_K, out=FK), out=U)

            return feedback
        F, scale = np.empty((len(Z), H.shape[1])), np.empty(len(Z))
        G, FK, FB, column = F[:, :n], F[:, n:n + m], F[:, n + m:], scale[:, None]

        def control():
            np.matmul(Z, H, out=F)
            np.sqrt(np.einsum("ij,ij->i", G, G, out=scale), out=scale)  # |g|
            np.divide(lam, np.maximum(scale, r, out=scale), out=scale)
            np.multiply(FB, column, out=FB)
            np.add(FK, FB, out=FK)
            np.add(U, FK, out=U)

        return control


def compile_law(law: ControlLaw, Q: np.ndarray | None = None) -> CompiledLaw:
    """Solve the law once, on the states z, or on y = z Q for Q orthogonal (z = y Q', so H becomes Q'H).

    One thin SVD B = U diag(s) V' checks B's column rank (every s above max(B.shape) eps s_0) and gives
    B^+ = V diag(1 / s) U' in :func:`numpy.linalg.pinv`'s operation order, without its 1e-15 s_0 cutoff.
    """
    P, B = law.gain.P, law.B
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    m = B.shape[1]
    rank = int(np.sum(s > max(B.shape) * np.finfo(float).eps * s[0]))
    if rank < m:  # the rows of the full V' past the rank span the null space, also for m > rows of B
        _, _, Vt = np.linalg.svd(B)
        bad = np.nonzero(np.abs(Vt[rank:]).sum(axis=0) > 1e-8)[0].tolist()
        raise RankDeficientError(f"input matrix has column rank {rank} < m={m}; null space involves columns {bad}")
    B_pinv = Vt.T @ ((1.0 / s)[:, None] * U.T)
    K = B.T @ P / law.R
    H = np.hstack([P.T, -K.T, -(P.T @ B_pinv.T)])
    H = H if law.reduction is None else law.reduction.Phi.T @ H
    return CompiledLaw(H=H if Q is None else Q.T @ H, n=P.shape[0], r=law.r)
