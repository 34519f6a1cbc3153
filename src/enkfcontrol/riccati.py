"""Reference solvers for continuous-time Riccati equations.

These are the trusted oracles the particle-based gain estimates are tested
against: a Runge-Kutta integrator for the differential Riccati equation (the
finite-horizon P(0) the ensemble approximates) and scipy's Schur-form solver
for the algebraic equation.  Before the algebraic solve the system passes the
PBH rank test at every eigenvalue with Re lambda >= 0: (A, B) stabilizable
and (A, C) detectable, the conditions for a unique stabilizing solution.  A
system with uncontrollable but stable modes is therefore accepted, as the
paper's periodic heat equation needs (only its constant mode is marginal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class AssumptionError(ValueError):
    """System fails the stabilizability/detectability/definiteness checks."""


class FiniteEscapeError(RuntimeError):
    def __init__(self, t_escape: float):
        self.t_escape = t_escape
        super().__init__(f"Riccati flow blew up near t={t_escape:g}")


class ConvergenceError(RuntimeError):
    pass


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class LtiSystem:
    """LTI plant with quadratic cost weights.

    The running state cost is |C x|^2 (so Q = C' C), the input cost u' R u,
    and the terminal weight G.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    R: np.ndarray
    G: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        G = self.G if self.G is not None else np.eye(A.shape[0])
        G = np.atleast_2d(np.asarray(G, dtype=float))
        if B.shape[0] != A.shape[0] or C.shape[1] != A.shape[0]:
            raise ValueError("A, B, C dimensions inconsistent")
        if R.shape != (B.shape[1], B.shape[1]):
            raise ValueError("R must be m-by-m")
        if G.shape != A.shape:
            raise ValueError("G must be n-by-n")
        for name, val in (("A", A), ("B", B), ("C", C), ("R", R), ("G", G)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def Q(self) -> np.ndarray:
        return self.C.T @ self.C


def _is_spd(M: np.ndarray) -> bool:
    if not np.allclose(M, M.T, atol=1e-10):
        return False
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return False


def _pbh_full_rank(A: np.ndarray, M: np.ndarray) -> bool:
    """rank [A - lambda I, M] = n at every eigenvalue lambda with Re lambda >= 0.

    Eigenvalues within 1e-9 ||A|| of the imaginary axis count as marginal:
    the periodic heat operator's constant mode computes as about -1e-14.
    """
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    for lam in eigs[eigs.real >= -1e-9 * max(1.0, np.linalg.norm(A, 2))]:
        s = np.linalg.svd(np.hstack([A - lam * np.eye(n), M]), compute_uv=False)
        if np.sum(s > 1e-9 * s[0]) < n:
            return False
    return True


def validate_system(sys: LtiSystem) -> None:
    """Check (A, B) stabilizable, (A, C) detectable (PBH tests) and R, G > 0."""
    if not _pbh_full_rank(sys.A, sys.B):
        raise AssumptionError("(A, B) is not stabilizable")
    if not _pbh_full_rank(sys.A.T, sys.C.T):
        raise AssumptionError("(A, C) is not detectable")
    if not _is_spd(sys.R):
        raise AssumptionError("R is not symmetric positive definite")
    if not _is_spd(sys.G):
        raise AssumptionError("G is not symmetric positive definite")


def riccati_residual(sys: LtiSystem, P: np.ndarray) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    BRinvBt = sys.B @ np.linalg.solve(sys.R, sys.B.T)
    res = sys.A.T @ P + P @ sys.A - P @ BRinvBt @ P + sys.Q
    return float(np.linalg.norm(res, "fro"))


def _dre_rhs(P: np.ndarray, A: np.ndarray, BRinvBt: np.ndarray, Q: np.ndarray) -> np.ndarray:
    return A.T @ P + P @ A - P @ BRinvBt @ P + Q


def solve_dre(sys: LtiSystem, T: float, dt: float) -> np.ndarray:
    """Integrate -dP/dt = A'P + PA - P B R^-1 B' P + Q back from P(T) = G.

    Returns P(0).  RK4 on the reversed clock, symmetrizing every step.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    BRinvBt = sys.B @ np.linalg.solve(sys.R, sys.B.T)
    Q = sys.Q
    n_steps = max(1, int(round(T / dt)))
    h = T / n_steps
    P = sys.G.copy()
    for k in range(n_steps):
        k1 = _dre_rhs(P, sys.A, BRinvBt, Q)
        k2 = _dre_rhs(P + 0.5 * h * k1, sys.A, BRinvBt, Q)
        k3 = _dre_rhs(P + 0.5 * h * k2, sys.A, BRinvBt, Q)
        k4 = _dre_rhs(P + h * k3, sys.A, BRinvBt, Q)
        P = P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        P = 0.5 * (P + P.T)
        if not np.all(np.isfinite(P)) or np.linalg.norm(P, "fro") > 1e12:
            raise FiniteEscapeError(T - (k + 1) * h)
    return P


def solve_are(sys: LtiSystem, residual_tol: float = 1e-8) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    scipy's Schur-form solver, symmetrized; raises :class:`ConvergenceError`
    unless the residual is at most ``residual_tol * max(1, ||Q||_F)``.
    """
    from scipy.linalg import solve_continuous_are  # here: training imports riccati, not scipy

    validate_system(sys)
    P = solve_continuous_are(sys.A, sys.B, sys.Q, sys.R)
    P = 0.5 * (P + P.T)
    tol = residual_tol * max(1.0, np.linalg.norm(sys.Q, "fro"))
    residual = riccati_residual(sys, P)
    if residual > tol:
        raise ConvergenceError(f"Riccati residual {residual:.3e} exceeds {tol:.3e}")
    return P


def lqr_gain(sys: LtiSystem, P: np.ndarray) -> np.ndarray:
    """Optimal feedback gain K = R^-1 B' P; checks A - B K is Hurwitz."""
    K = np.linalg.solve(sys.R, sys.B.T @ P)
    eigs = np.linalg.eigvals(sys.A - sys.B @ K)
    if np.max(eigs.real) >= 0:
        raise OracleError(
            f"closed loop is not Hurwitz (max Re eig = {np.max(eigs.real):.3e})"
        )
    return K


def invert_spd(M: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix: L^-T L^-1 with M = LL'."""
    L_inv = np.linalg.inv(np.linalg.cholesky(M))
    return L_inv.T @ L_inv
