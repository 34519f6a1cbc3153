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
by :func:`second_difference_eigenbasis`.  :func:`rk4_step` is the one RK4
definition.  :func:`rk4_stepper` compiles the heat plant's RK4 step once in
that basis, into an elementwise product against mu held at the stack's
shape and one small GEMM; every other simulator takes :func:`rk4_step`,
_RK4_ROWS rows at a time.  Either step owns every array it writes through:
for Burgers the stage buffers, the padded neighbour buffer and the input
term B u, formed once a step and held over its four stages.  The chunk
height is a constant, not a setting: the rows are independent, so no
height moves a bit, and a fixed one keeps the split the same on every
machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARY_CONDITIONS = ("periodic", "dirichlet")

_RK4_ROWS = 200  # rows per rk4_step in rk4_stepper's chunked step, whose buffers (200 KB each at p = 128) stay in cache


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


def _neighbours(z: np.ndarray, bc: str, padded: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(z_{i+1}, z_{i-1}) along the last axis: views of z copied between a ghost cell at each end.

    The padded copy is written into ``padded`` (z's shape, one wider along
    the last axis at each end) when given, else into a new array.  Periodic
    boundaries wrap around; Dirichlet ghost cells mirror with a sign flip,
    so the wall value interpolates to 0.
    """
    if padded is None:
        padded = np.empty(z.shape[:-1] + (z.shape[-1] + 2,))
    padded[..., 1:-1] = z
    if bc == "periodic":
        padded[..., :1], padded[..., -1:] = z[..., -1:], z[..., :1]
    else:
        np.negative(z[..., :1], out=padded[..., :1])
        np.negative(z[..., -1:], out=padded[..., -1:])
    return padded[..., 2:], padded[..., :-2]


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
    out: np.ndarray | None = None,
    work: RK4Work | None = None,
) -> np.ndarray:
    """Right-hand side of forced Burgers: -z * D1 z + nu * D2 z + B u.

    The advection term uses the non-conservative form with the central first
    difference (z_{i+1} - z_{i-1}) / (2 dy); both difference operators
    annihilate constants under periodic boundary conditions, and both read
    one :func:`_neighbours` pass.  With ``work``, an :class:`RK4Work` of z's
    shape whose ``forcing`` holds u B' already, the result goes into ``out``
    through work's padded and scratch arrays, u is not read again, and
    nothing is allocated; else the arrays are new, and u B' is formed here.
    Without ``out`` the result is a new array.
    """
    z = np.asarray(z, dtype=float)
    if work is None:
        work = RK4Work(z.shape)
        np.matmul(u, B.T, out=work.forcing)
    out = np.empty_like(z) if out is None else out
    scratch = work.scratch
    zp, zm = _neighbours(z, bc, work.padded)
    np.subtract(zp, zm, out=out)
    out /= 2.0 * grid.dy
    out *= z  # z D1 z
    np.multiply(z, 2.0, out=scratch)
    np.subtract(zp, scratch, out=scratch)
    scratch += zm
    scratch /= grid.dy**2
    scratch *= nu  # nu D2 z
    np.subtract(scratch, out, out=out)
    out += work.forcing
    return out


class Simulator:
    """An affine-in-control system dx/dt = a(x) + B u.

    Subclasses implement :meth:`rhs` for one state or a stack of states (rows
    of x, with the inputs as rows of u).  ``rhs(x, u, out, work)`` with an
    :class:`RK4Work` writes into ``out`` and reads the input term u B' from
    ``work.forcing``, which :func:`rk4_step` forms once a step with ``_BT``,
    B' stored contiguous.  The input matrix B is constant: it does not
    depend on x.  ``control_matrix`` is B; ``rhs`` holds its own reference
    to B and never reads the attribute.  ``A`` is the Jacobian of a at the
    origin: the operator itself for the heat plant, the linearization nu D2
    for Burgers.  Training and the control law read the (A, B) arrays of a
    linear design model, never a nonlinear plant: with ``model = full``
    that model is this (A, control_matrix).
    """

    n: int
    m: int
    A: np.ndarray
    control_matrix: np.ndarray
    _BT: np.ndarray

    def rhs(self, x: np.ndarray, u: np.ndarray, out: np.ndarray | None = None,
            work: RK4Work | None = None) -> np.ndarray:
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

    def rhs(self, x, u, out=None, work=None):
        forcing = np.asarray(u, dtype=float) @ self._BT if work is None else work.forcing
        out = np.matmul(np.asarray(x, dtype=float), self._AT, out=out)
        out += forcing
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
        self._BT = np.ascontiguousarray(self._B.T)
        self.A = nu * second_difference_matrix(grid, bc)  # the Jacobian at the origin; rhs never reads it
        self.n = grid.p
        self.m = m

    def rhs(self, x, u, out=None, work=None):
        return burgers_rhs(x, u, self.nu, self.grid, self._B, self.bc, out, work)


class RK4Work:
    """The arrays one :func:`rk4_step` of a state of one shape writes through.

    ``stage`` takes each stage's state, ``slope`` its slope and ``total``
    the weighted sum of the slopes.  ``forcing`` is the input term u B',
    formed once a step, as the input is held over it.  ``padded`` (the
    state with one ghost cell at each end) and ``scratch`` are
    :func:`burgers_rhs`'s.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.stage, self.slope, self.total, self.forcing, self.scratch = (np.empty(shape) for _ in range(5))
        self.padded = np.empty(shape[:-1] + (shape[-1] + 2,))


def rk4_step(sim: Simulator, x: np.ndarray, u: np.ndarray, h: float,
             out: np.ndarray | None = None, work: RK4Work | None = None) -> np.ndarray:
    """One classical Runge-Kutta step with the input held constant; u has a row per row of x.

    The step is x + h/6 (k1 + 2 k2 + 2 k3 + k4), operation for operation,
    with k1 = f(x), k2 = f(x + h/2 k1), k3 = f(x + h/2 k2), k4 = f(x + h k3).
    Each stage is ``sim.rhs(state, u, slope, work)``, into the buffers of
    ``work``, an :class:`RK4Work` of x's shape (else a new one), and the
    input term u B' is formed once, into ``work.forcing``.  The next state
    goes into ``out``, which may be x, else into a new array.  Given both,
    the step allocates nothing.
    """
    x = np.asarray(x, dtype=float)
    work = RK4Work(x.shape) if work is None else work
    out = np.empty_like(x) if out is None else out
    stage, slope, total = work.stage, work.slope, work.total
    np.matmul(u, sim._BT, out=work.forcing)
    sim.rhs(x, u, total, work)
    np.multiply(total, 0.5 * h, out=stage)
    stage += x
    sim.rhs(stage, u, slope, work)
    for weight in (0.5 * h, h):  # k2, then k3: the next stage's state, then 2 k into the total
        np.multiply(slope, weight, out=stage)
        stage += x
        slope *= 2.0
        total += slope
        sim.rhs(stage, u, slope, work)
    total += slope  # k4
    total *= h / 6.0
    return np.add(x, total, out=out)


def rk4_stepper(sim: Simulator, h: float):
    """(Q, step): :func:`rk4_step` of ``sim`` with step h on y = z Q, for one state or a stack.

    ``step(y, u, out, work=None)`` writes the next state into ``out`` and
    returns it; ``out`` may be ``y`` itself, which steps the stack in place.
    The step owns every array it writes through, made when it first meets
    a state of that shape, so repeated calls allocate no state-sized array.
    Only the heat plant is diagonal: its A = nu D2 = Q diag(nu lam) Q' with
    (lam, Q) the closed-form :func:`second_difference_eigenbasis`, so its
    step z M' + u N', M = R(hA) and N = h phi(hA) B with R and phi RK4's
    polynomials, is y -> y * mu + u N' Q in that basis, mu = R(h nu lam).
    Both are read off one ``rk4_step`` of the plant in that basis, the
    linear simulator (diag(nu lam), Q'B), on the stacked [1 | 0; 0 | I]:
    the row of ones gives mu and the identity rows N' Q.  The step matches
    ``rk4_step`` mapped back by ``y Q'`` to rounding.  It holds mu tiled to
    the shape of the last state it stepped, since numpy runs a product
    broadcast along rows as one inner loop per row; the bits are the same.
    ``u N' Q`` goes into ``work`` when the caller passes a (rows, n) buffer,
    else into a new array.
    Every other simulator takes ``rk4_step`` itself on the state, _RK4_ROWS
    rows at a time, each chunk through an :class:`RK4Work` the step holds
    per chunk shape; it ignores ``work``, and Q is None.  A chunk's buffers
    stay in cache, where a whole-stack step's dozen state-sized temporaries
    page in anew each time.  The rows are independent, so the bits are
    those of ``rk4_step`` on the whole stack; the chunk height is a
    constant, so the split depends on the stack's height alone, never on
    the machine.
    """
    if not isinstance(sim, HeatSimulator):
        buffers = {}

        def step(x, u, out, work=None):
            chunks = [...] if x.ndim == 1 else [  # a 1-D state is one chunk
                slice(start, start + _RK4_ROWS) for start in range(0, len(x), _RK4_ROWS)]
            for rows in chunks:
                shape = x[rows].shape
                if shape not in buffers:
                    buffers[shape] = RK4Work(shape)
                rk4_step(sim, x[rows], u[rows], h, out[rows], buffers[shape])
            return out

        return None, step
    lam, Q = second_difference_eigenbasis(sim.grid, sim.bc)
    n, m = sim.n, sim.m
    X, U = np.zeros((1 + m, n)), np.zeros((1 + m, m))
    X[0], U[1:] = 1.0, np.eye(m)
    compiled = rk4_step(LinearSimulator(np.diag(sim.nu * lam), Q.T @ sim.control_matrix), X, U, h)
    mu, NQ = compiled[0], compiled[1:]
    tiled = mu

    def step(y, u, out, work=None):
        nonlocal tiled
        if tiled.shape != y.shape:
            tiled = np.tile(mu, y.shape[:-1] + (1,))
        np.multiply(y, tiled, out=out)
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
