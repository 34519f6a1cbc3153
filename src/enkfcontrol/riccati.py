"""The differential Riccati equation's reference solver, and an SPD inverse.

:func:`solve_dre` is the trusted oracle the particle-based gain estimates
are tested against: a Runge-Kutta integrator for the differential Riccati
equation, whose P(0) is the finite-horizon gain the ensemble approximates.
No verb calls it; the tests and the benchmark's quality checks do.
:func:`invert_spd` is the Cholesky inverse the dual EnKF takes of its
ensemble covariance.  The algebraic equation's reference is the tests'
own, scipy's ``solve_continuous_are``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FiniteEscapeError(RuntimeError):
    def __init__(self, t_escape: float):
        self.t_escape = t_escape
        super().__init__(f"Riccati flow blew up near t={t_escape:g}")


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
    def Q(self) -> np.ndarray:
        return self.C.T @ self.C


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


def invert_spd(M: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix: L^-T L^-1 with M = LL'."""
    L_inv = np.linalg.inv(np.linalg.cholesky(M))
    return L_inv.T @ L_inv
