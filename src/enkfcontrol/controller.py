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

:func:`input_matrix` is the one place B is obtained: read from the
simulator, or probed from it at the origin with :func:`estimate_b`, then
checked for full column rank.  The law compiles against a linear design
model, so the probe is exact and the law is always a fixed linear
feedback plus a normalized projection.  The per-state functions re-solve it
at every call and are the reference the tests compare against;
:func:`compile_law` solves it once into one matrix, which folds the
reduction Phi, P, K = B'P / R and B^+ together, and
:meth:`CompiledLaw.bind` binds it once to a stack of states, which it then
evaluates with one GEMM a call, in the plant's state coordinates or any
orthonormal basis of them.  The closed loop always uses the compiled law;
its lambda = 0 rows (the optimal learning control) use the K block alone
and never read g or B^+.

Lyapunov redesign assumes a nominal stabilizing law plus a matched
uncertainty (Khalil, *Nonlinear Systems*, 3rd ed., 2002, section 14.2).
On Burgers with ``model=full`` the gain is designed on the linearization
nu D2, and the advection -z D1 z is a state-dependent mismatch that the
robust term does not bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dmdc import ReducedModel, reduce_state
from .enkf import GainApprox
from .pde import Simulator

class RankDeficientError(RuntimeError):
    pass


@dataclass(frozen=True)
class ControlLaw:
    """The law but its lambda: gain, scalar input weight R > 0, floor r > 0 and B access."""

    gain: GainApprox
    R: float
    r: float
    b_access: str = "known"
    reduction: ReducedModel | None = None


def estimate_b(sim: Simulator, x: np.ndarray, m: int) -> np.ndarray:
    """Probe the input matrix B columnwise at x: column j = S(x, e_j) - S(x, 0)."""
    x = np.asarray(x, dtype=float)
    base = sim.rhs(x, np.zeros(m))
    cols = [sim.rhs(x, np.eye(m)[j]) - base for j in range(m)]
    return np.column_stack(cols)


def _check_column_rank(B: np.ndarray) -> None:
    m = B.shape[1]
    s = np.linalg.svd(B, compute_uv=False)
    tol = max(B.shape) * np.finfo(float).eps * s[0] if s[0] > 0 else 0.0
    rank = int(np.sum(s > tol)) if s[0] > 0 else 0
    if rank < m:
        _, _, Vt = np.linalg.svd(B)
        null_weight = np.abs(Vt[rank:]).sum(axis=0)
        bad = np.nonzero(null_weight > 1e-8)[0].tolist()
        raise RankDeficientError(
            f"input matrix has column rank {rank} < m={m}; "
            f"null space involves columns {bad}"
        )


def input_matrix(law: ControlLaw, sim: Simulator) -> np.ndarray:
    """B read from ``sim`` or probed from it at the origin, of full column rank."""
    if law.b_access == "known":
        B = sim.control_matrix
    else:
        B = estimate_b(sim, np.zeros(sim.n), sim.m)
    _check_column_rank(B)
    return B


def minimize_hamiltonian(law: ControlLaw, x: np.ndarray, sim: Simulator) -> np.ndarray:
    """Global minimizer -B' g / R of the control Hamiltonian at x."""
    B = input_matrix(law, sim)
    return -(B.T @ (law.gain.P @ x)) / law.R


def robust_term(law: ControlLaw, x: np.ndarray, sim: Simulator, lam: float) -> np.ndarray:
    """Lyapunov-redesign term u_d = -lambda * B^+ g / max(|g|, r)."""
    g = law.gain.P @ x
    r1 = max(float(np.linalg.norm(g)), law.r)
    v, *_ = np.linalg.lstsq(input_matrix(law, sim), g / r1, rcond=None)
    return -lam * v


def robust_control(law: ControlLaw, z: np.ndarray, sim: Simulator, lam: float) -> np.ndarray:
    """Full control u = u_bar + u_d at state z (reduced first if applicable)."""
    x = reduce_state(law.reduction, z) if law.reduction is not None else np.asarray(z, dtype=float)
    return minimize_hamiltonian(law, x, sim) + robust_term(law, x, sim, lam)


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
    K x alone: ``-z @ law.K`` is its whole feedback, from H's m feedback
    columns.
    """

    H: np.ndarray
    n: int
    r: float

    @property
    def m(self) -> int:
        return (self.H.shape[1] - self.n) // 2

    @property
    def K(self) -> np.ndarray:
        """Phi'K', H's feedback columns negated back, as a new array: u = -z Phi'K' at lambda = 0."""
        return -self.H[:, self.n:self.n + self.m]

    def bind(self, Z: np.ndarray, lam: np.ndarray, U: np.ndarray) -> Callable[[], None]:
        """``control()``: adds the controls of the rows of Z, row i under lam[i], into U.

        Like the step of :func:`pde.rk4_stepper`, the law is bound once: Z
        and U are views the caller keeps (a stack stepped in place), and the
        work array for Z H and its g, -K x and -B^+ g column blocks are made
        here, so a call reads whatever Z then holds and allocates nothing.
        Rows that all have lambda = 0 read -K x alone, Z times H's feedback
        columns.
        """
        if not np.any(lam):
            minus_K = np.ascontiguousarray(self.H[:, self.n:self.n + self.m])
            FK = np.empty((len(Z), self.m))

            def feedback():
                np.add(U, np.matmul(Z, minus_K, out=FK), out=U)

            return feedback
        H, n, m, r = self.H, self.n, self.m, self.r
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

    def in_basis(self, Q: np.ndarray) -> "CompiledLaw":
        """The same law on y = z Q, Q orthogonal: z = y Q', so H becomes Q'H."""
        return replace(self, H=Q.T @ self.H)


def compile_law(law: ControlLaw, sim: Simulator) -> CompiledLaw:
    """Solve the law once, with B from :func:`input_matrix`."""
    B = input_matrix(law, sim)
    P = law.gain.P
    K = B.T @ P / law.R
    Phi = np.eye(P.shape[0]) if law.reduction is None else law.reduction.Phi
    H = Phi.T @ np.hstack([P.T, -K.T, -(P.T @ np.linalg.pinv(B).T)])
    return CompiledLaw(H=H, n=P.shape[0], r=law.r)
