"""Finite-difference simulators for 1-D heat and Burgers equations.

The PDEs are discretized in space on a uniform grid of cell centers and
written in affine-in-control form

    dz/dt = a(z) + B u,

where the columns of B are discretized indicator functions of a uniform
partition of the domain.  Both periodic and homogeneous Dirichlet boundary
conditions are supported; periodic is the default (difference operators are
circulant, constants lie in their kernel).

A :class:`Simulator` evaluates ``rhs(x, u)`` and exposes its input matrix
as ``control_matrix`` and its Jacobian at the origin as ``A``; training and
the compiled control law read the design model's A and B directly.

The second difference with periodic or mirrored (Dirichlet) ghost cells has
a known orthonormal eigenbasis: the real Fourier basis and the DST-II basis
(Strang, "The Discrete Cosine Transform", SIAM Review 41(1), 1999), given
by :func:`second_difference_eigenbasis`.  :func:`rk4_stepper` compiles the
heat plant's RK4 step once in that basis, into an elementwise product and
one small GEMM; every other simulator takes :func:`rk4_step`.
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

    @property
    def dy(self) -> float:
        return self.L / self.p

    @property
    def points(self) -> np.ndarray:
        """Cell centers y_i = (i + 1/2) dy."""
        return (np.arange(self.p) + 0.5) * self.dy


def build_control_matrix(grid: GridSpec, m: int) -> np.ndarray:
    """Discretize m indicator basis functions into a p-by-m 0/1 matrix.

    Basis function j is the indicator of the half-open cell
    [j L/m, (j+1) L/m); entry (i, j) is 1 iff grid point y_i lies in that
    cell.  The columns therefore have disjoint supports that cover the grid.
    """
    cell = np.floor(grid.points * m / grid.L).astype(int)
    cell = np.clip(cell, 0, m - 1)
    B = np.zeros((grid.p, m))
    B[np.arange(grid.p), cell] = 1.0
    return B


def _neighbours(z: np.ndarray, bc: str) -> tuple[np.ndarray, np.ndarray]:
    """(z_{i+1}, z_{i-1}) along the last axis, built by slicing.

    Periodic boundaries wrap around; Dirichlet ghost cells mirror with a sign
    flip, so the wall value interpolates to 0.
    """
    if bc == "periodic":
        after, before = z[..., :1], z[..., -1:]
    else:
        after, before = -z[..., -1:], -z[..., :1]
    return (
        np.concatenate((z[..., 1:], after), axis=-1),
        np.concatenate((before, z[..., :-1]), axis=-1),
    )


def second_difference(z: np.ndarray, grid: GridSpec, bc: str = "periodic") -> np.ndarray:
    """Second difference (z_{i+1} - 2 z_i + z_{i-1}) / dy^2 along the last axis."""
    zp, zm = _neighbours(z, bc)
    return (zp - 2.0 * z + zm) / grid.dy**2


def second_difference_matrix(grid: GridSpec, bc: str = "periodic") -> np.ndarray:
    """Dense matrix form of :func:`second_difference` (used by linear solvers)."""
    return np.asarray(second_difference(np.eye(grid.p), grid, bc)).T.copy()


def second_difference_eigenbasis(grid: GridSpec, bc: str = "periodic") -> tuple[np.ndarray, np.ndarray]:
    """(lam, Q): D2 = Q diag(lam) Q' with Q orthogonal, both in closed form.

    Periodic: column k of Q (k = 0..p-1) is cos(2 pi k j / p) for k <= p/2
    and sin(2 pi k j / p) = -sin(2 pi (p - k) j / p) above, the real Fourier
    basis.  Dirichlet, whose ghost cells mirror with a sign flip: column k is
    sin(pi k (j + 1/2) / p), k = 1..p, the DST-II basis.  Columns scale by
    sqrt(2 / p), except the constant and alternating ones, by sqrt(1 / p).
    Each angle is reduced exactly in integers, so Q gathers its entries
    from one table of the p (periodic) or 4p (Dirichlet) angles.
    lam_k = -4 sin^2(theta_k / 2) / dy^2, with theta_k = 2 pi k / p
    (periodic) or pi k / p (Dirichlet).
    """
    p, j = grid.p, np.arange(grid.p)[:, None]
    if bc == "periodic":
        k = np.arange(p)
        angle, turn = k * (2.0 * np.pi / p), j * k % p
        Q = np.where(2 * k <= p, np.cos(angle)[turn], np.sin(angle)[turn])
        single = (k == 0) | (2 * k == p)
        half_angle = np.pi * k / p
    else:
        k = np.arange(1, p + 1)
        Q = np.sin(np.arange(4 * p) * (np.pi / (2 * p)))[(2 * j + 1) * k % (4 * p)]
        single = k == p
        half_angle = np.pi * k / (2 * p)
    Q *= np.where(single, np.sqrt(1.0 / p), np.sqrt(2.0 / p))
    return -4.0 * np.sin(half_angle) ** 2 / grid.dy**2, Q


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
    difference (z_{i+1} - z_{i-1}) / (2 dy); both difference operators
    annihilate constants under periodic boundary conditions, and both read
    one :func:`_neighbours` pass.
    """
    z = np.asarray(z, dtype=float)
    zp, zm = _neighbours(z, bc)
    adv = -z * ((zp - zm) / (2.0 * grid.dy))
    return adv + nu * ((zp - 2.0 * z + zm) / grid.dy**2) + np.asarray(u, dtype=float) @ B.T


class Simulator:
    """An affine-in-control system dx/dt = a(x) + B u.

    Subclasses implement :meth:`rhs` for one state or a stack of states (rows
    of x, with the inputs as rows of u).  The input matrix B is constant: it
    does not depend on x.  ``control_matrix`` is B; ``rhs`` holds its own
    reference to B and never reads the attribute.  ``A`` is the Jacobian of
    a at the origin: the operator itself for the heat plant, the
    linearization nu D2 for Burgers.  Training and the control law read the
    (A, B) arrays of a linear design model, never a nonlinear plant: with
    ``model = full`` that model is this (A, control_matrix).
    """

    n: int
    m: int
    A: np.ndarray
    control_matrix: np.ndarray

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearSimulator(Simulator):
    """dx/dt = A x + B u, as x A' + u B' for one state or a stack, with A' and B' stored contiguous."""

    def __init__(self, A: np.ndarray, B: np.ndarray):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
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
        B = build_control_matrix(grid, m)
        super().__init__(nu * second_difference_matrix(grid, bc), B)
        self.grid = grid
        self.nu = nu
        self.bc = bc


class BurgersSimulator(Simulator):
    """Discretized Burgers equation."""

    def __init__(self, grid: GridSpec, nu: float, m: int, bc: str = "periodic"):
        self.grid = grid
        self.nu = nu
        self.bc = bc
        self._B = self.control_matrix = build_control_matrix(grid, m)
        self.A = nu * second_difference_matrix(grid, bc)  # the Jacobian at the origin; rhs never reads it
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

    ``step(y, u, out, work=None)`` writes the next state into ``out`` and
    returns it; ``out`` may be ``y`` itself, which steps the stack in place.
    Only the heat plant is diagonal: its A = nu D2 = Q diag(nu lam) Q' with
    (lam, Q) the closed-form :func:`second_difference_eigenbasis`, so its
    step z M' + u N', M = R(hA) and N = h phi(hA) B with R and phi RK4's
    polynomials, is y -> y * mu + u N' Q in that basis, mu = R(h nu lam).
    Both are read off one ``rk4_step`` of the plant in that basis, the
    linear simulator (diag(nu lam), Q'B), on the stacked [1 | 0; 0 | I]:
    the row of ones gives mu and the identity rows N' Q.  The step matches
    ``rk4_step`` mapped back by ``y Q'`` to rounding.
    ``u N' Q`` goes into ``work`` when the caller passes a (rows, n) buffer,
    else into a new array.  Every other simulator takes ``rk4_step`` itself
    on the state, ignores ``work``, and Q is None.
    """
    if not isinstance(sim, HeatSimulator):
        def step(x, u, out, work=None):
            out[...] = rk4_step(sim, x, u, h)
            return out

        return None, step
    lam, Q = second_difference_eigenbasis(sim.grid, sim.bc)
    n, m = sim.n, sim.m
    X, U = np.zeros((1 + m, n)), np.zeros((1 + m, m))
    X[0], U[1:] = 1.0, np.eye(m)
    compiled = rk4_step(LinearSimulator(np.diag(sim.nu * lam), Q.T @ sim.control_matrix), X, U, h)
    mu, NQ = compiled[0], compiled[1:]

    def step(y, u, out, work=None):
        np.multiply(y, mu, out=out)
        out += np.matmul(u, NQ, out=work)
        return out

    return Q, step


def sample_initial_conditions(rngs: list[np.random.Generator], grid: GridSpec) -> np.ndarray:
    """One random bump alpha * sech((y - 1/(2L)) / beta) per generator, as rows.

    Generator i draws alpha ~ unif(0.9, 1.1), then beta ~ unif(0.04, 0.06);
    the bumps are then one broadcast.  With the default L = 1 domain the
    bump is centered at y = 1/2.  On a long domain cosh overflows far from
    the bump, where alpha / inf = 0 is the right value.
    """
    alpha, beta = np.array([(rng.uniform(0.9, 1.1), rng.uniform(0.04, 0.06)) for rng in rngs]).T
    center = 1.0 / (2.0 * grid.L)
    with np.errstate(over="ignore"):
        return alpha[:, None] / np.cosh((grid.points - center) / beta[:, None])


def l2_norm(z: np.ndarray, grid: GridSpec):
    """Rectangle-rule L2 norm sqrt(sum_i z_i^2 * dy) along the last axis."""
    z = np.asarray(z, dtype=float)
    return np.sqrt(np.einsum("...i,...i->...", z, z) * grid.dy)
