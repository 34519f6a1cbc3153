import warnings

import numpy as np
import pytest

from enkfcontrol import pde
from enkfcontrol.config import ConfigError, default_config
from enkfcontrol.enkf import GainApprox
from enkfcontrol.harness import Case, build_artifacts, grid_of, simulate_closed_loop
from enkfcontrol.pde import (
    BurgersSimulator,
    GridSpec,
    HeatSimulator,
    LinearSimulator,
    build_control_matrix,
    burgers_rhs,
    l2_norm,
    rk4_step,
    rk4_stepper,
    sample_initial_conditions,
    second_difference_matrix,
)


def rk4_run(sim, x0, u, h, n_steps):
    """The n_steps + 1 states of an RK4 run with step h (h < 0 runs backward)."""
    xs = [np.array(x0, dtype=float)]
    for _ in range(n_steps):
        xs.append(rk4_step(sim, xs[-1], u, h))
    return np.array(xs)


class TestGridSpec:
    def test_spacing(self):
        grid = GridSpec(p=100, L=1.0)
        assert grid.dy == pytest.approx(0.01)
        assert grid.points[0] == pytest.approx(0.005)
        assert grid.points[-1] == pytest.approx(0.995)

    def test_invalid(self):
        # the grid is built from a validated config, which checks p and L
        with pytest.raises(ConfigError, match=r"\[experiment\] p must be at least 3, got 2"):
            default_config("heat", p=2, m=1)
        with pytest.raises(ConfigError, match=r"\[experiment\] L must be positive, got 0"):
            default_config("heat", L=0.0)


class TestControlMatrix:
    def test_p4_m2_halves(self):
        B = build_control_matrix(GridSpec(p=4), 2)
        assert np.array_equal(B[:, 0], [1, 1, 0, 0])
        assert np.array_equal(B[:, 1], [0, 0, 1, 1])

    def test_single_channel_all_ones(self):
        B = build_control_matrix(GridSpec(p=100), 1)
        assert np.array_equal(B, np.ones((100, 1)))

    def test_p128_m10_partition(self):
        grid = GridSpec(p=128)
        B = build_control_matrix(grid, 10)
        # oracle: direct membership of each cell center in [j/10, (j+1)/10)
        for i, y in enumerate(grid.points):
            expected = np.zeros(10)
            for j in range(10):
                if j / 10 <= y < (j + 1) / 10:
                    expected[j] = 1.0
            assert np.array_equal(B[i], expected), f"row {i}"
        sizes = B.sum(axis=0)
        assert sizes.sum() == 128  # disjoint and covering
        assert np.array_equal(np.sort(sizes)[::-1], sorted(sizes, reverse=True))
        assert np.all(B.sum(axis=1) == 1)

    def test_m_exceeds_p(self):
        with pytest.raises(ConfigError, match=r"\[experiment\] m must be between 1 and \[experiment\] p = 4, got 5"):
            default_config("heat", p=4, m=5)


class TestHeatRhs:
    def test_zero_state(self):
        sim = HeatSimulator(GridSpec(p=16), 0.01, 2)
        out = sim.rhs(np.zeros(16), np.zeros(2))
        assert np.array_equal(out, np.zeros(16))

    def test_constant_in_kernel_periodic(self):
        sim = HeatSimulator(GridSpec(p=16), 0.01, 2)
        out = sim.rhs(np.full(16, 3.7), np.zeros(2))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_delta_stencil(self):
        grid = GridSpec(p=16)
        sim = HeatSimulator(grid, 1.0, 2)
        k = 5
        z = np.eye(16)[k]
        out = sim.rhs(z, np.zeros(2))
        expected = (np.eye(16)[k - 1] - 2 * z + np.eye(16)[k + 1]) / grid.dy**2
        assert np.allclose(out, expected)

    def test_dimension_mismatch(self):
        sim = HeatSimulator(GridSpec(p=16), 0.01, 2)
        with pytest.raises(ValueError):
            sim.rhs(np.zeros(15), np.zeros(2))


class TestBurgersRhs:
    def test_zero_and_constant(self):
        grid = GridSpec(p=16)
        B = build_control_matrix(grid, 2)
        assert np.array_equal(
            burgers_rhs(np.zeros(16), np.zeros(2), 0.01, grid, B), np.zeros(16)
        )
        out = burgers_rhs(np.full(16, -1.3), np.zeros(2), 0.01, grid, B)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_sine_field_matches_analytic(self):
        nu = 0.01
        grid = GridSpec(p=256)
        B = build_control_matrix(grid, 4)
        y = grid.points
        w = 2 * np.pi / grid.L
        z = np.sin(w * y)
        out = burgers_rhs(z, np.zeros(4), nu, grid, B)
        analytic = -z * w * np.cos(w * y) + nu * (-(w**2)) * z
        # second-order stencils: error bounded by C dy^2 with C ~ w^3/6
        assert np.max(np.abs(out - analytic)) < (w**3 / 6 + 5.0) * grid.dy**2

    def test_second_order_convergence(self):
        nu = 0.01

        def err(p):
            grid = GridSpec(p=p)
            B = build_control_matrix(grid, 4)
            y = grid.points
            w = 2 * np.pi
            z = np.sin(w * y)
            out = burgers_rhs(z, np.zeros(4), nu, grid, B)
            analytic = -z * w * np.cos(w * y) - nu * w**2 * z
            return np.max(np.abs(out - analytic))

        ratio = err(128) / err(256)
        assert 3.5 < ratio < 4.5  # halving dy quarters the error


class TestAffinity:
    @pytest.mark.parametrize("make", ["heat", "burgers", "linear"])
    def test_affine_in_control(self, make):
        rng = np.random.default_rng(3)
        grid = GridSpec(p=24)
        if make == "heat":
            sim = HeatSimulator(grid, 0.01, 4)
        elif make == "burgers":
            sim = BurgersSimulator(grid, 0.01, 4)
        else:
            sim = LinearSimulator(rng.normal(size=(24, 24)), rng.normal(size=(24, 4)))
        x = rng.normal(size=24)
        u1, u2 = rng.normal(size=4), rng.normal(size=4)
        a, b = 0.7, -2.1
        base = sim.rhs(x, np.zeros(4))
        lhs = sim.rhs(x, a * u1 + b * u2) - base
        rhs = a * (sim.rhs(x, u1) - base) + b * (sim.rhs(x, u2) - base)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_linear_stack_matches_rows():
    rng = np.random.default_rng(4)
    sim = LinearSimulator(rng.normal(size=(24, 24)), rng.normal(size=(24, 4)))
    x, u = rng.normal(size=(7, 24)), rng.normal(size=(7, 4))
    rows = np.array([sim.rhs(xi, ui) for xi, ui in zip(x, u)])
    assert np.max(np.abs(sim.rhs(x, u) - rows)) <= 1e-13 * np.max(np.abs(rows))
    # one input shared by every row
    shared = np.array([sim.rhs(xi, u[0]) for xi in x])
    assert np.max(np.abs(sim.rhs(x, u[0]) - shared)) <= 1e-13 * np.max(np.abs(shared))


class TestIntegrate:
    def test_constant_trajectory(self):
        sim = LinearSimulator(np.zeros((3, 3)), np.zeros((3, 1)))
        xs = rk4_run(sim, [1.0, -2.0, 0.5], np.zeros(1), 0.1, 10)
        assert np.allclose(xs, xs[0])

    def test_scalar_exponential(self):
        sim = LinearSimulator(np.array([[-1.0]]), np.zeros((1, 1)))
        xs = rk4_run(sim, [1.0], np.zeros(1), 1e-3, 1000)
        assert xs[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_backward_forward_roundtrip_heat(self):
        grid = GridSpec(p=32)
        sim = HeatSimulator(grid, 0.002, 4)
        rng = np.random.default_rng(0)
        z0 = sample_initial_conditions([rng], grid)[0]
        back = rk4_run(sim, z0, np.zeros(4), -1e-3, 100)
        forth = rk4_run(sim, back[-1], np.zeros(4), 1e-3, 100)
        rel = np.linalg.norm(forth[-1] - z0) / np.linalg.norm(z0)
        assert rel < 1e-6


class TestEigenbasis:
    @pytest.mark.parametrize("p", [3, 4, 7, 100, 128])
    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    def test_closed_form_diagonalizes_the_second_difference(self, bc, p):
        # D2 = Q diag(lam) Q' with Q orthogonal, to rounding, for odd and even p
        grid = GridSpec(p=p, L=2.0)
        lam, Q = pde.second_difference_eigenbasis(grid, bc)
        D2 = second_difference_matrix(grid, bc)
        assert np.linalg.norm(Q.T @ Q - np.eye(p), 2) <= 1e-13
        assert np.linalg.norm(D2 @ Q - Q * lam, 2) <= 1e-13 * np.linalg.norm(D2, 2)

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    def test_heat_step_tracks_rk4_step_over_300_steps(self, bc):
        rng = np.random.default_rng(5)
        sim = HeatSimulator(GridSpec(p=100), 0.01, 10, bc=bc)
        Q, step = rk4_stepper(sim, 1e-3)
        z, u = rng.normal(size=(4, sim.n)), rng.normal(size=(4, sim.m))
        y, work = z @ Q, np.empty_like(z)
        for _ in range(300):
            z = rk4_step(sim, z, u, 1e-3)
            step(y, u, y, work)
        assert np.max(np.abs(y @ Q.T - z)) <= 1e-12 * np.max(np.abs(z))


class TestCompiledStep:
    @pytest.mark.parametrize("make,diagonal", [
        # the periodic operator has repeated eigenvalues
        (lambda rng: HeatSimulator(GridSpec(p=48), 0.01, 4, bc="periodic"), True),
        (lambda rng: HeatSimulator(GridSpec(p=48), 0.01, 4, bc="dirichlet"), True),
        # a nonsymmetric A and a dense B, as a DMDc reduced model has
        (lambda rng: LinearSimulator(rng.normal(size=(10, 10)), rng.normal(size=(10, 3))), False),
        # the heat operator, not as the heat plant
        (lambda rng: LinearSimulator(0.01 * second_difference_matrix(GridSpec(p=48)), np.ones((48, 2))), False),
    ], ids=["heat-periodic", "heat-dirichlet", "random-linear", "symmetric-linear"])
    def test_linear_matches_rk4_step(self, make, diagonal):
        # the heat plant is stepped in its closed-form eigenbasis, y = z Q, and
        # matches rk4_step mapped back to rounding; any other simulator takes
        # rk4_step itself
        rng = np.random.default_rng(6)
        sim = make(rng)
        Q, step = rk4_stepper(sim, 1e-2)
        assert (Q is not None) == diagonal
        x, u = rng.normal(size=(5, sim.n)), rng.normal(size=(5, sim.m))
        for xi, ui in ((x, u), (x[0], u[0])):  # a stack and a 1-D state
            want = rk4_step(sim, xi, ui, 1e-2)
            if not diagonal:
                assert np.array_equal(step(xi, ui, np.empty_like(xi)), want)
                continue
            np.testing.assert_allclose(Q.T @ Q, np.eye(sim.n), rtol=0, atol=1e-13)
            got = step(xi @ Q, ui, np.empty_like(xi)) @ Q.T
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_burgers_is_rk4_step(self):
        rng = np.random.default_rng(7)
        sim = BurgersSimulator(GridSpec(p=32), 0.01, 4)
        Q, step = rk4_stepper(sim, 1e-3)
        assert Q is None
        x, u = rng.normal(size=(5, 32)), rng.normal(size=(5, 4))
        assert np.array_equal(step(x, u, np.empty_like(x)), rk4_step(sim, x, u, 1e-3))
        assert np.array_equal(step(x[0], u[0], np.empty_like(x[0])), rk4_step(sim, x[0], u[0], 1e-3))

    @pytest.mark.parametrize("make", [
        lambda: HeatSimulator(GridSpec(p=24), 0.01, 4),
        lambda: BurgersSimulator(GridSpec(p=24), 0.01, 4),
    ], ids=["heat", "burgers"])
    def test_in_place_step_matches_a_fresh_one(self, make):
        # out = y steps the stack in place, bit for bit as into a new array
        rng = np.random.default_rng(8)
        _, step = rk4_stepper(make(), 1e-3)
        y, u = rng.normal(size=(5, 24)), rng.normal(size=(5, 4))
        want = step(y, u, np.empty_like(y))
        assert step(y, u, y) is y
        assert np.array_equal(y, want)

    @pytest.mark.parametrize("pde_name,compiled", [("heat", True), ("burgers", False)])
    def test_closed_loop_compiles_once(self, pde_name, compiled, monkeypatch):
        # the heat plant runs one rk4_step for the whole rollout, its compile
        # on the plant's diagonal form, and never calls the plant's rhs;
        # Burgers runs one rk4_step per time step, on the plant.  The plant's
        # rhs is counted, so a step taken by any other route shows.
        cfg = default_config(pde_name, model="full", p=16, m=2, n_trials=2, T_sim=0.01)
        art = build_artifacts(cfg, gain=GainApprox(P=np.eye(cfg.p)))
        steps, rhs_calls = [], []
        step, rhs = pde.rk4_step, art.sim.rhs
        monkeypatch.setattr(pde, "rk4_step", lambda *a: steps.append(a) or step(*a))
        monkeypatch.setattr(art.sim, "rhs", lambda *a: rhs_calls.append(a) or rhs(*a))
        robust, = simulate_closed_loop(cfg, art, [Case("robust", "sin", 0.1, 0.2)], cfg.n_trials)
        n_steps = len(robust.t) - 1
        assert n_steps > 1
        assert len(steps) == (1 if compiled else n_steps)
        assert all((a[0] is art.sim) != compiled for a in steps)
        assert len(rhs_calls) == (0 if compiled else 4 * n_steps)


class TestInitialCondition:
    def test_peak_at_center(self):
        # odd p puts a grid point exactly at y = 1/2
        grid = GridSpec(p=101)
        rng = np.random.default_rng(0)
        z = sample_initial_conditions([rng], grid)[0]
        assert np.argmax(z) == 50

    def test_range_and_symmetry(self):
        grid = GridSpec(p=101)
        for seed in range(100):
            z = sample_initial_conditions([np.random.default_rng(seed)], grid)[0]
            assert np.all(z > 0) and np.all(z <= 1.1)
            assert np.allclose(z, z[::-1], atol=1e-12)  # symmetric about 1/2

    def test_determinism(self):
        grid = GridSpec(p=64)
        z1 = sample_initial_conditions([np.random.default_rng(42)], grid)[0]
        z2 = sample_initial_conditions([np.random.default_rng(42)], grid)[0]
        assert np.array_equal(z1, z2)

    def test_stack_is_one_bump_per_generator_bit_for_bit(self):
        # each generator draws alpha then beta; the row is the per-bump formula exactly
        grid = GridSpec(p=64, L=2.0)
        Z = sample_initial_conditions([np.random.default_rng(seed) for seed in range(5)], grid)
        for seed, z in enumerate(Z):
            rng = np.random.default_rng(seed)
            alpha, beta = rng.uniform(0.9, 1.1), rng.uniform(0.04, 0.06)
            want = alpha / np.cosh((grid.points - 0.25) / beta)
            assert np.array_equal(z.view(np.int64), want.view(np.int64))

    def test_long_domain_overflow_is_silent_and_default_rows_keep_their_bits(self):
        # at [experiment] L = 200 cosh overflows far from the bump, where alpha / inf = 0 is right
        def rngs():
            return [np.random.default_rng(seed) for seed in range(4)]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = sample_initial_conditions(rngs(), grid_of(default_config("heat", L=200.0, p=50, m=5)))
        assert np.all(np.isfinite(Z)) and np.any(Z == 0.0)
        grid = grid_of(default_config("heat"))
        for seed, z in enumerate(sample_initial_conditions(rngs(), grid)):
            rng = np.random.default_rng(seed)
            alpha, beta = rng.uniform(0.9, 1.1), rng.uniform(0.04, 0.06)
            want = alpha / np.cosh((grid.points - 0.5) / beta)
            assert np.array_equal(z.view(np.int64), want.view(np.int64))


class TestL2Norm:
    def test_zero_and_unit(self):
        grid = GridSpec(p=64)
        assert l2_norm(np.zeros(64), grid) == 0.0
        assert l2_norm(np.ones(64), grid) == pytest.approx(1.0)

    def test_sine(self):
        grid = GridSpec(p=256)
        z = np.sin(2 * np.pi * grid.points)
        assert l2_norm(z, grid) == pytest.approx(np.sqrt(0.5), abs=1e-3)


class TestHeatDissipation:
    def test_uncontrolled_l2_nonincreasing(self):
        grid = GridSpec(p=64)
        sim = HeatSimulator(grid, 0.002, 4)
        for seed in range(100):
            z0 = sample_initial_conditions([np.random.default_rng(seed)], grid)[0]
            xs = rk4_run(sim, z0, np.zeros(4), 1e-3, 50)
            norms = np.array([l2_norm(x, grid) for x in xs])
            assert np.all(np.diff(norms) <= 1e-12)


class TestDirichlet:
    def test_constant_not_in_kernel(self):
        grid = GridSpec(p=16)
        out = HeatSimulator(grid, 0.01, 2, bc="dirichlet").rhs(np.ones(16), np.zeros(2))
        assert not np.allclose(out, 0.0)
        # interior rows are unchanged from the periodic stencil
        out_per = HeatSimulator(grid, 0.01, 2).rhs(np.ones(16), np.zeros(2))
        assert np.allclose(out[1:-1], out_per[1:-1])

    def test_dissipation(self):
        grid = GridSpec(p=32)
        sim = HeatSimulator(grid, 0.01, 2, bc="dirichlet")
        z0 = sample_initial_conditions([np.random.default_rng(1)], grid)[0]
        xs = rk4_run(sim, z0, np.zeros(2), 1e-3, 200)
        norms = [l2_norm(x, grid) for x in xs]
        assert norms[-1] < norms[0]

    def test_first_difference_of_a_stack(self):
        # ghost cells z_{-1} = -z_0 and z_p = -z_{p-1}, row by row, in both stencils of burgers_rhs
        grid, nu = GridSpec(p=9), 0.3
        B = build_control_matrix(grid, 3)
        Z = np.random.default_rng(2).normal(size=(4, 9))
        out = burgers_rhs(Z, np.zeros((4, 3)), nu, grid, B, "dirichlet")
        assert out.shape == Z.shape
        for z, row in zip(Z, out):
            ghost = np.concatenate(([-z[0]], z, [-z[-1]]))
            for i in range(9):
                d1 = (ghost[i + 2] - ghost[i]) / (2 * grid.dy)
                d2 = (ghost[i + 2] - 2 * ghost[i + 1] + ghost[i]) / grid.dy**2
                assert row[i] == pytest.approx(-z[i] * d1 + nu * d2, rel=1e-14)


def test_second_difference_matrix_matches_operator():
    grid = GridSpec(p=20)
    D2 = second_difference_matrix(grid)
    rng = np.random.default_rng(5)
    z = rng.normal(size=20)
    from enkfcontrol.pde import second_difference

    assert np.allclose(D2 @ z, second_difference(z, grid))
    # circulant: row sums zero
    assert np.allclose(D2.sum(axis=1), 0.0)
