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
design model's A and B directly.  :func:`rk4_stepper` compiles the RK4
step of a symmetric linear simulator once, in the eigenbasis of its A, into
an elementwise product and one small GEMM.
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
    return adv + nu * second_difference(z, grid, bc) + np.asarray(u, dtype=float) @ B.T


class Simulator:
    """An affine-in-control system dx/dt = a(x) + B u.

    Subclasses implement :meth:`rhs` for one state or a stack of states (rows
    of x, with the inputs as rows of u).  The input matrix B is constant: it
    does not depend on x.  ``control_matrix`` is B; ``rhs`` holds its own
    reference to B and never reads the attribute.  Training and the control
    law read a linear design model (:class:`LinearSimulator`), never a
    nonlinear plant.
    """

    n: int
    m: int
    control_matrix: np.ndarray

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearSimulator(Simulator):
    """dx/dt = A x + B u, as x A' + u B' for one state or a stack, with A' and B' stored contiguous."""

    def __init__(self, A: np.ndarray, B: np.ndarray):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.shape[0] != A.shape[0]:
            raise ValueError("A and B row counts differ")
        self.A = A
        self.control_matrix = B
        self._AT = np.ascontiguousarray(A.T)
        self._BT = np.ascontiguousarray(B.T)
        self.n, self.m = B.shape

    def rhs(self, x, u):
        out = np.asarray(x, dtype=float) @ self._AT
        out += np.asarray(u, dtype=float) @ self._BT
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


def rk4_stepper(sim: Simulator, h: float):
    """(Q, step): :func:`rk4_step` of ``sim`` with step h on y = z Q, for one state or a stack.

    ``step(y, u, out)`` writes the next state into ``out`` and returns it;
    ``out`` may be ``y`` itself, which steps the stack in place.
    A linear simulator whose A is exactly symmetric has A = Q diag Q' with Q
    orthogonal (``eigh``), so its step z M' + u N', M = R(hA) and
    N = h phi(hA) B with R and phi RK4's polynomials, is diagonal in that
    basis: y -> y * mu + u N' Q, mu = diag(Q'MQ).  Both are read off one
    ``rk4_step`` of the stacked [Q' | 0; 0 | I], and the step matches
    ``rk4_step`` mapped back by ``y Q'`` to rounding.  Every other simulator
    takes ``rk4_step`` itself on the state, and Q is None.
    """
    if not (isinstance(sim, LinearSimulator) and np.array_equal(sim.A, sim.A.T)):
        def step(x, u, out):
            out[...] = rk4_step(sim, x, u, h)
            return out

        return None, step
    _, Q = np.linalg.eigh(sim.A)
    n, m = sim.n, sim.m
    X, U = np.zeros((n + m, n)), np.zeros((n + m, m))
    X[:n], U[n:] = Q.T, np.eye(m)
    compiled = rk4_step(sim, X, U, h)
    mu = np.einsum("ij,ji->i", compiled[:n], Q)
    NQ = compiled[n:] @ Q

    def step(y, u, out):
        np.multiply(y, mu, out=out)
        out += u @ NQ
        return out

    return Q, step


def sample_initial_condition(rng: np.random.Generator, grid: GridSpec) -> np.ndarray:
    """Random bump initial condition alpha * sech((y - 1/(2L)) / beta).

    alpha ~ unif(0.9, 1.1) and beta ~ unif(0.04, 0.06); with the default
    L = 1 domain the bump is centered at y = 1/2.
    """
    return sample_initial_conditions([rng], grid)[0]


def sample_initial_conditions(rngs: list[np.random.Generator], grid: GridSpec) -> np.ndarray:
    """One bump per generator, as rows: row i is sample_initial_condition(rngs[i], grid).

    Each generator draws its (alpha, beta); the bumps are then one broadcast.
    """
    alpha, beta = np.array([(rng.uniform(0.9, 1.1), rng.uniform(0.04, 0.06)) for rng in rngs]).T
    center = 1.0 / (2.0 * grid.L)
    return alpha[:, None] / np.cosh((grid.points - center) / beta[:, None])


def l2_norm(z: np.ndarray, grid: GridSpec, out: np.ndarray | None = None):
    """Rectangle-rule L2 norm sqrt(sum_i z_i^2 * dy) along the last axis, into ``out`` if given."""
    z = np.asarray(z, dtype=float)
    squares = np.einsum("...i,...i->...", z, z, out=out)
    return np.sqrt(np.multiply(squares, grid.dy, out=out), out=out)
