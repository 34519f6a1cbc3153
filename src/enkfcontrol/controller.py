"""Robust control assembly: u = (Hamiltonian minimizer) + (robust term).

The stabilizing part minimizes the control Hamiltonian

    H(x, u) = g(x)' S(x, u) + (x' Q x + u' R u) / 2,

where g(x) is the learned value gradient (P x).  For fixed x the Hamiltonian
is an exact quadratic in u, so its minimizer can be written either in closed
form -R^-1 B' g(x) when the input matrix is known, or recovered exactly
from m+1 Hamiltonian evaluations when only the simulator is available.  The
finite-difference identity evaluates to +R^-1 B' g, i.e. the negative of the
minimizer; the sign is corrected here so both branches coincide.

The robust term opposes norm-bounded matched disturbances along the value
gradient:

    u_d = -lambda * B^+ g / max(|g|, r),

with B^+ the least-squares pseudo-inverse.  The regularization floor r trades
asymptotic for practical stability (the state settles into the ball |g| < r
instead of reaching the origin).  With unknown B the same least-squares
problem is solved against an input matrix probed from the simulator at the
origin.

Every simulator enters the input as a constant B u, so the law is always a
fixed linear feedback plus a normalized projection.  The per-state functions
above re-solve it at every call and are the reference the tests compare
against; :func:`compile_law` solves it once into matrices (K = R^-1 B' P,
B^+, and the reduction Phi) and :class:`CompiledLaw` evaluates it for a
whole stack of states.  The closed loop always uses the compiled law.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .dmdc import ReducedModel, reduce_state
from .enkf import GainApprox
from .pde import Simulator

B_ACCESS_MODES = ("known", "simulator")


class RankDeficientError(RuntimeError):
    pass


@dataclass(frozen=True)
class Weights:
    """Quadratic cost weights: running cost x'Qx + u'Ru."""

    R: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if not np.allclose(R, R.T, atol=1e-10):
            raise ValueError("R must be symmetric")
        try:
            np.linalg.cholesky(R)
        except np.linalg.LinAlgError:
            raise ValueError("R must be positive definite") from None
        if not np.allclose(Q, Q.T, atol=1e-10):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True)
class RobustConfig:
    """Disturbance bound lambda >= 0 and regularization floor r > 0."""

    lam: float
    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"regularization r must be positive, got {self.r}")
        if not self.lam >= 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class ControlLaw:
    """Immutable bundle of everything needed to evaluate the control."""

    gain: GainApprox
    weights: Weights
    robust: RobustConfig
    b_access: str = "known"
    reduction: ReducedModel | None = None

    def __post_init__(self):
        if self.b_access not in B_ACCESS_MODES:
            raise ValueError(f"unknown b_access {self.b_access!r}")
        if self.reduction is not None and self.reduction.n != self.gain.n:
            raise ValueError(
                f"gain dimension {self.gain.n} != reduced dimension {self.reduction.n}"
            )


def hamiltonian(law: ControlLaw, x: np.ndarray, u: np.ndarray, sim: Simulator) -> float:
    """Evaluate H(x, u) with exactly one simulator call."""
    g = law.gain.value_gradient(x)
    running = float(x @ law.weights.Q @ x) + float(u @ law.weights.R @ u)
    return float(g @ sim.rhs(x, u)) + 0.5 * running


def estimate_b(sim: Simulator, x: np.ndarray, m: int) -> np.ndarray:
    """Probe the input matrix B columnwise at x: column j = S(x, e_j) - S(x, 0)."""
    x = np.asarray(x, dtype=float)
    if m == 0:
        return np.zeros((x.shape[0], 0))
    base = sim.rhs(x, np.zeros(m))
    cols = [sim.rhs(x, np.eye(m)[j]) - base for j in range(m)]
    return np.column_stack(cols)


def minimize_hamiltonian(law: ControlLaw, x: np.ndarray, sim: Simulator) -> np.ndarray:
    """Global minimizer of H(x, .).

    Known-B branch: -R^-1 B' g.  Simulator-only branch: per-coordinate
    Hamiltonian differences, negated (the raw identity yields +R^-1 B' g);
    exact for the quadratic Hamiltonian, m+1 simulator calls.
    """
    x = np.asarray(x, dtype=float)
    R = law.weights.R
    if law.b_access == "known":
        g = law.gain.value_gradient(x)
        return -np.linalg.solve(R, sim.control_matrix.T @ g)
    Rinv = np.linalg.inv(R)
    H0 = hamiltonian(law, x, np.zeros(sim.m), sim)
    u = np.empty(sim.m)
    for i in range(sim.m):
        u[i] = -(hamiltonian(law, x, Rinv[:, i], sim) - H0 - 0.5 * Rinv[i, i])
    return u


def _check_column_rank(B: np.ndarray) -> None:
    m = B.shape[1]
    if m == 0:
        return
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


def robust_term(law: ControlLaw, x: np.ndarray, sim: Simulator) -> np.ndarray:
    """Lyapunov-redesign term u_d = -lambda * B^+ g / max(|g|, r)."""
    x = np.asarray(x, dtype=float)
    lam = float(law.robust.lam)
    if lam == 0.0:
        return np.zeros(sim.m)
    g = law.gain.value_gradient(x)
    r1 = max(float(np.linalg.norm(g)), law.robust.r)
    if law.b_access == "known":
        B = sim.control_matrix
        _check_column_rank(B)
        v = np.linalg.solve(B.T @ B, B.T @ (g / r1))
    else:
        B = estimate_b(sim, np.zeros_like(x), sim.m)
        _check_column_rank(B)
        v, *_ = np.linalg.lstsq(B, g / r1, rcond=None)
    return -lam * v


def robust_control(law: ControlLaw, z: np.ndarray, sim: Simulator) -> np.ndarray:
    """Full control u = u_bar + u_d at state z (reduced first if applicable)."""
    x = reduce_state(law.reduction, z) if law.reduction is not None else np.asarray(z, dtype=float)
    return minimize_hamiltonian(law, x, sim) + robust_term(law, x, sim)


@dataclass(frozen=True)
class CompiledLaw:
    """The law of :func:`robust_control` as matrices, for a stack of states.

    With x = Phi z (x = z without a reduction) and g = P x,

        u = -K x - lambda B^+ g / max(|g|, r),   K = R^-1 B' P.

    lambda is supplied per row at evaluation, so one compiled law serves
    every lambda that shares the gain.
    """

    Phi: np.ndarray | None
    P: np.ndarray
    K: np.ndarray
    B_pinv: np.ndarray
    r: float

    def __call__(self, Z: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """(batch, m) controls for the rows of Z, row i under lambda lam[i]."""
        X = Z if self.Phi is None else Z @ self.Phi.T
        G = X @ self.P.T
        r1 = np.maximum(np.linalg.norm(G, axis=1), self.r)
        return -(X @ self.K.T) - (lam / r1)[:, None] * (G @ self.B_pinv.T)


def compile_law(law: ControlLaw, sim: Simulator) -> CompiledLaw:
    """Solve the law once: B read from ``sim`` or probed from it at x = 0.

    The probe at the origin is exact for the constant B of every
    :class:`Simulator`, as in :func:`robust_term`.  The law's own lambda is
    not compiled in.
    """
    if law.b_access == "known":
        B = sim.control_matrix
    else:
        B = estimate_b(sim, np.zeros(sim.n), sim.m)
    _check_column_rank(B)
    P = law.gain.P
    return CompiledLaw(
        Phi=None if law.reduction is None else law.reduction.Phi,
        P=P,
        K=np.linalg.solve(law.weights.R, B.T @ P),
        B_pinv=np.linalg.pinv(B),
        r=law.robust.r,
    )
