"""Finite-difference simulators for 1-D heat and Burgers equations.

The PDEs are discretized in space on a uniform grid of cell centers and
written in affine-in-control form

    dz/dt = a(z) + B u,

where the columns of B are discretized indicator functions of a uniform
partition of the domain.  Both periodic and homogeneous Dirichlet boundary
conditions are supported; periodic is the default (difference operators are
circulant, constants lie in their kernel).

A :class:`Simulator` evaluates ``rhs(x, u)`` and exposes its input matrix
as ``control_matrix``; training and the compiled control law read the
design model's A and B directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARY_CONDITIONS = ("periodic", "dirichlet")


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid on [0, L] with p cell-centered points."""

    p: int
    L: float = 1.0

    def __post_init__(self):
        if self.p < 3:
            raise ValueError(f"grid needs at least 3 points, got p={self.p}")
        if not self.L > 0:
            raise ValueError(f"domain length must be positive, got L={self.L}")

    @property
    def dy(self) -> float:
        return self.L / self.p

    @property
    def points(self) -> np.ndarray:
        """Cell centers y_i = (i + 1/2) dy."""
        return (np.arange(self.p) + 0.5) * self.dy


class InvalidBasisError(ValueError):
    pass


def build_control_matrix(grid: GridSpec, m: int) -> np.ndarray:
    """Discretize m indicator basis functions into a p-by-m 0/1 matrix.

    Basis function j is the indicator of the half-open cell
    [j L/m, (j+1) L/m); entry (i, j) is 1 iff grid point y_i lies in that
    cell.  The columns therefore have disjoint supports that cover the grid.
    """
    if not 1 <= m <= grid.p:
        raise InvalidBasisError(f"control dimension m={m} outside [1, p={grid.p}]")
    cell = np.floor(grid.points * m / grid.L).astype(int)
    cell = np.clip(cell, 0, m - 1)
    B = np.zeros((grid.p, m))
    B[np.arange(grid.p), cell] = 1.0
    return B


def _check_bc(bc: str) -> None:
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")


def _neighbours(z: np.ndarray, bc: str) -> tuple[np.ndarray, np.ndarray]:
    """(z_{i+1}, z_{i-1}) along the last axis, built by slicing.

    Periodic boundaries wrap around; Dirichlet ghost cells mirror with a sign
    flip, so the wall value interpolates to 0.
    """
    _check_bc(bc)
    if bc == "periodic":
        after, before = z[..., :1], z[..., -1:]
    else:
        after, before = -z[..., -1:], -z[..., :1]
    return (
        np.concatenate((z[..., 1:], after), axis=-1),
        np.concatenate((before, z[..., :-1]), axis=-1),
    )


def first_difference(z: np.ndarray, grid: GridSpec, bc: str = "periodic") -> np.ndarray:
    """Central first difference (z_{i+1} - z_{i-1}) / (2 dy) along the last axis."""
    zp, zm = _neighbours(z, bc)
    return (zp - zm) / (2.0 * grid.dy)


def second_difference(z: np.ndarray, grid: GridSpec, bc: str = "periodic") -> np.ndarray:
    """Second difference (z_{i+1} - 2 z_i + z_{i-1}) / dy^2 along the last axis."""
    zp, zm = _neighbours(z, bc)
    return (zp - 2.0 * z + zm) / grid.dy**2


def second_difference_matrix(grid: GridSpec, bc: str = "periodic") -> np.ndarray:
    """Dense matrix form of :func:`second_difference` (used by linear solvers)."""
    return np.asarray(second_difference(np.eye(grid.p), grid, bc)).T.copy()


def _apply_control(B: np.ndarray, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim <= 1:
        return B @ u
    return u @ B.T


def burgers_rhs(
    z: np.ndarray,
    u: np.ndarray,
    nu: float,
    grid: GridSpec,
    B: np.ndarray,
    bc: str = "periodic",
) -> np.ndarray:
    """Right-hand side of forced Burgers: -z * D1 z + nu * D2 z + B u.

    The advection term uses the non-conservative form with the central first
    difference; both difference operators annihilate constants under periodic
    boundary conditions.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != grid.p:
        raise ValueError(f"state length {z.shape[-1]} != grid p={grid.p}")
    if not nu > 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    adv = -z * first_difference(z, grid, bc)
    return adv + nu * second_difference(z, grid, bc) + _apply_control(B, u)


class Simulator:
    """An affine-in-control system dx/dt = a(x) + B u.

    Subclasses implement :meth:`rhs` for one state or a stack of states (rows
    of x, with the inputs as rows of u).  The input matrix B is constant: it
    does not depend on x, so probing it once (at the origin) from ``rhs``
    recovers it exactly, and the control law is compiled on that contract.
    ``control_matrix`` is B; ``rhs`` holds its own reference to B and never
    reads the attribute.
    """

    n: int
    m: int
    control_matrix: np.ndarray

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearSimulator(Simulator):
    """dx/dt = A x + B u; a stack of states as x A' + u B', with A' and B' stored contiguous."""

    def __init__(self, A: np.ndarray, B: np.ndarray):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.shape[0] != A.shape[0]:
            raise ValueError("A and B row counts differ")
        self.A = A
        self._B = self.control_matrix = B
        self._AT = np.ascontiguousarray(A.T)
        self._BT = np.ascontiguousarray(B.T)
        self.n, self.m = B.shape

    def rhs(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim <= 1:
            return self.A @ x + self._B @ u
        out = x @ self._AT
        out += u @ self._BT
        return out


class HeatSimulator(LinearSimulator):
    """Discretized heat equation as a linear simulator."""

    def __init__(self, grid: GridSpec, nu: float, m: int, bc: str = "periodic"):
        if not nu > 0:
            raise ValueError(f"viscosity must be positive, got {nu}")
        B = build_control_matrix(grid, m)
        super().__init__(nu * second_difference_matrix(grid, bc), B)
        self.grid = grid
        self.nu = nu
        self.bc = bc


class BurgersSimulator(Simulator):
    """Discretized Burgers equation."""

    def __init__(self, grid: GridSpec, nu: float, m: int, bc: str = "periodic"):
        if not nu > 0:
            raise ValueError(f"viscosity must be positive, got {nu}")
        self.grid = grid
        self.nu = nu
        self.bc = bc
        self._B = self.control_matrix = build_control_matrix(grid, m)
        self.n = grid.p
        self.m = m

    def rhs(self, x, u):
        return burgers_rhs(x, u, self.nu, self.grid, self._B, self.bc)


def rk4_step(sim: Simulator, x: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step with the input held constant."""
    k1 = sim.rhs(x, u)
    k2 = sim.rhs(x + 0.5 * h * k1, u)
    k3 = sim.rhs(x + 0.5 * h * k2, u)
    k4 = sim.rhs(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def sample_initial_condition(rng: np.random.Generator, grid: GridSpec) -> np.ndarray:
    """Random bump initial condition alpha * sech((y - 1/(2L)) / beta).

    alpha ~ unif(0.9, 1.1) and beta ~ unif(0.04, 0.06); with the default
    L = 1 domain the bump is centered at y = 1/2.
    """
    alpha = rng.uniform(0.9, 1.1)
    beta = rng.uniform(0.04, 0.06)
    center = 1.0 / (2.0 * grid.L)
    return alpha / np.cosh((grid.points - center) / beta)


def l2_norm(z: np.ndarray, grid: GridSpec):
    """Rectangle-rule L2 norm sqrt(sum_i z_i^2 * dy) along the last axis."""
    z = np.asarray(z, dtype=float)
    return np.sqrt(np.sum(z * z, axis=-1) * grid.dy)
