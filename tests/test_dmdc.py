import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, logm

from enkfcontrol import dmdc
from enkfcontrol.config import default_config
from enkfcontrol.dmdc import (
    _BLOCK_ROWS,
    _INPUT_STEPS,
    ConversionError,
    FitError,
    ReducedModel,
    collect_snapshots,
    fit_dmdc,
    reduce_state,
    to_continuous,
)
from enkfcontrol.harness import _TAG_SNAPSHOTS, _rng, build_full_simulator, fit_reduction, grid_of
from enkfcontrol.pde import (
    BurgersSimulator,
    GridSpec,
    HeatSimulator,
    LinearSimulator,
    rk4_step,
    rk4_stepper,
    sample_initial_condition,
)


def exact_discretization(A, B, dt):
    """Oracle: exact ZOH discretization via the block matrix exponential."""
    n, m = B.shape
    block = np.zeros((n + m, n + m))
    block[:n, :n] = A * dt
    block[:n, n:] = B * dt
    E = expm(block)
    return E[:n, :n], E[:n, n:]


def lti_snapshots(A, B, dt, K, rng, amplitude=1.0):
    """One trajectory of K steps of the exact discrete map of an LTI system, as its (X, U, Xnext) rows."""
    Ad, Bd = exact_discretization(A, B, dt)
    n, m = B.shape
    xs, us = [rng.normal(size=n)], []
    for _ in range(K):
        us.append(rng.uniform(-amplitude, amplitude, size=m))
        xs.append(Ad @ xs[-1] + Bd @ us[-1])
    xs = np.array(xs)
    return xs[:-1], np.array(us), xs[1:]


def rows_of(snapshots):
    """(X, U, Xnext): a snapshot stream's row blocks, each copied as it arrives, stacked in arrival order."""
    blocks = [tuple(part.copy() for part in block) for block in snapshots]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def in_blocks(rows, size):
    """The rows (X, U, Xnext) as blocks of `size` rows."""
    X, U, Xnext = rows
    return [(X[i:i + size], U[i:i + size], Xnext[i:i + size]) for i in range(0, len(X), size)]


class TestCollect:
    def test_column_count(self):
        sim = LinearSimulator(-np.eye(3), np.eye(3))
        for n_traj, K in ((1, 5), (4, 20)):
            slabs = [tuple(part.copy() for part in slab) for slab in collect_snapshots(
                sim, GridSpec(p=3), n_traj=n_traj, steps=5,
                dt=0.01, amplitude=0.5, rng=np.random.default_rng(0),
            )]
            assert [tuple(part.shape for part in slab) for slab in slabs] == [((n_traj, 3),) * 3] * 5
            X, U, Xnext = rows_of(slabs)
            assert X.shape == Xnext.shape == U.shape == (K, 3)

    def test_zero_excitation_matches_expm(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 4))
        A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(4)
        sim = LinearSimulator(A, np.eye(4))
        X, U, Xnext = rows_of(collect_snapshots(
            sim, GridSpec(p=4), n_traj=3, steps=10,
            dt=1e-3, amplitude=0.0, rng=np.random.default_rng(2),
        ))
        Ad = expm(A * 1e-3)
        assert np.allclose(Xnext, X @ Ad.T, atol=1e-10)
        assert np.allclose(U, 0.0)

    def test_snapshots_are_held_once(self):
        # one step's slabs: Xnext of step k is the X of step k + 1, not a copy, and what the
        # generator holds at its last step is what it held at its first
        cfg = default_config("heat", model="dmdc")
        grid = grid_of(cfg)
        sim = build_full_simulator(cfg)
        steps = 600
        stream = lambda: collect_snapshots(
            sim, grid, n_traj=cfg.dmdc_trajectories, steps=steps, dt=cfg.dt_sim,
            amplitude=cfg.dmdc_amplitude, rng=np.random.default_rng(3),
        )
        next(stream())  # warm up numpy and the eigenbasis
        held, last = [], None
        tracemalloc.start()
        try:
            for k, (X, U, Xnext) in enumerate(stream()):
                if k in (0, steps - 1):
                    held.append(tracemalloc.get_traced_memory()[0])
                assert k == 0 or X is last
                last = Xnext
        finally:
            tracemalloc.stop()
        assert k == steps - 1
        assert held[1] <= 1.1 * held[0], held
        # far below the (steps + 1) x n_traj x p buffer of every snapshot
        assert held[1] <= 0.1 * (steps + 1) * X.nbytes, held

    def test_columns_are_step_major(self):
        # row i of slab k is trajectory i at step k, and its inputs are one (steps, m) draw
        # after its initial condition, across the chunks the inputs are drawn in
        sim, grid = LinearSimulator(-np.eye(3), np.eye(3)), GridSpec(p=3)
        n_traj, steps = 4, 2 * _INPUT_STEPS + 5
        slabs = [tuple(part.copy() for part in slab) for slab in collect_snapshots(
            sim, grid, n_traj=n_traj, steps=steps,
            dt=0.01, amplitude=0.5, rng=np.random.default_rng(0),
        )]
        assert len(slabs) == steps
        streams = np.random.default_rng(0).spawn(n_traj)
        for i, traj_rng in enumerate(streams):
            z0 = sample_initial_condition(traj_rng, grid)
            us = traj_rng.uniform(-0.5, 0.5, size=(steps, 3))
            assert np.array_equal(slabs[0][0][i], z0)
            assert np.array_equal(np.array([U[i] for _, U, _ in slabs]), us)
        for (_, _, Xnext), (X, _, _) in zip(slabs, slabs[1:]):
            assert np.array_equal(X, Xnext)

    @pytest.mark.parametrize("p, n_traj", [(100, 20), (48, 7)])
    def test_blocked_rotation_matches_the_slab_loop(self, monkeypatch, p, n_traj):
        # a symmetric simulator steps in its eigenbasis, and each new slab is mapped back once.
        # The reference maps the (steps + 1, n_traj, p) eigenbasis buffer back over blocks of
        # _BLOCK_ROWS rows; 151 x 20 and 151 x 7 rows both end in a short block.  At the heat
        # defaults, p = 100 and 20 trajectories, the bits are the same.  A slab of 7 x 48 may
        # take the BLAS's small-matrix kernel, which sums in another order (OpenBLAS's AVX-512
        # kernel does): there the two part by rounding.
        grid = GridSpec(p=p)
        sim = HeatSimulator(grid, 0.01, 4)
        steps = 150
        rows = (steps + 1) * n_traj
        assert rows > 2 * _BLOCK_ROWS and rows % _BLOCK_ROWS != 0
        bases, slabs = [], []  # Q, and the eigenbasis states as the step reads and writes them

        def recording_stepper(sim, h):
            Q, step = rk4_stepper(sim, h)
            bases.append(Q)

            def record(y, u, out, work=None):
                if not slabs:
                    slabs.append(y.copy())
                step(y, u, out, work)
                slabs.append(out.copy())
                return out

            return Q, record

        monkeypatch.setattr(dmdc, "rk4_stepper", recording_stepper)
        X, _, Xnext = rows_of(collect_snapshots(
            sim, grid, n_traj=n_traj, steps=steps,
            dt=1e-3, amplitude=0.5, rng=np.random.default_rng(23),
        ))
        [Q] = bases
        assert Q is not None and len(slabs) == steps + 1
        # the slab loop, as the generator maps back
        assert np.array_equal(np.concatenate([X, Xnext[-n_traj:]]),
                              np.concatenate([slab @ Q.T for slab in slabs]))
        flat = np.concatenate(slabs)
        for start in range(0, len(flat), _BLOCK_ROWS):
            block = flat[start:start + _BLOCK_ROWS]
            block[...] = block @ Q.T
        for got, want in ((X, flat[:-n_traj]), (Xnext, flat[n_traj:])):
            assert got.shape == want.shape
            if p == 100:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_deterministic(self):
        grid = GridSpec(p=32)
        sim = BurgersSimulator(grid, 0.01, 4)
        kwargs = dict(n_traj=2, steps=8, dt=1e-3, amplitude=0.5)
        first = rows_of(collect_snapshots(sim, grid, rng=np.random.default_rng(9), **kwargs))
        second = rows_of(collect_snapshots(sim, grid, rng=np.random.default_rng(9), **kwargs))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def snapshots_one_at_a_time(sim, grid, n_traj, steps, dt, amplitude, rng):
    """Reference: each trajectory integrated alone, one state vector at a time, as (X, U, Xnext) rows."""
    xs, us = [], []
    for traj_rng in rng.spawn(n_traj):
        xs.append([sample_initial_condition(traj_rng, grid)])
        us.append([])
        for _ in range(steps):
            us[-1].append(traj_rng.uniform(-amplitude, amplitude, size=sim.m))
            xs[-1].append(rk4_step(sim, xs[-1][-1], us[-1][-1], dt))
    # generated trajectory-major; stacked step-major, as collect_snapshots yields them
    xs, us = np.stack(xs, axis=1), np.stack(us, axis=1)
    p = xs.shape[-1]
    return xs[:-1].reshape(-1, p), us.reshape(-1, sim.m), xs[1:].reshape(-1, p)


class TestStackedTrajectories:
    """The (n_traj, p) stack reproduces the trajectory-by-trajectory loop."""

    @pytest.mark.parametrize("pde", ["burgers", "heat"])
    def test_matches_one_trajectory_at_a_time(self, pde):
        grid = GridSpec(p=48)
        make = BurgersSimulator if pde == "burgers" else HeatSimulator
        sim = make(grid, 0.01, 4)
        kwargs = dict(n_traj=5, steps=30, dt=1e-3, amplitude=0.5)
        X, U, Xnext = rows_of(collect_snapshots(sim, grid, rng=np.random.default_rng(21), **kwargs))
        want_X, want_U, want_Xnext = snapshots_one_at_a_time(sim, grid, rng=np.random.default_rng(21), **kwargs)
        assert np.array_equal(U, want_U)
        for got, want in ((X, want_X), (Xnext, want_Xnext)):
            assert got.shape == want.shape == (150, 48)
            if pde == "burgers":
                # elementwise rows and a 0/1 input matrix: the same arithmetic
                assert np.array_equal(got, want)
            else:
                # x A' over the stack sums in another order than A x
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestFit:
    def test_recovers_full_order_lti(self):
        rng = np.random.default_rng(3)
        A = np.array([[0.0, 1.0, 0.0], [-1.0, -0.4, 0.2], [0.0, 0.3, -0.8]])
        B = rng.normal(size=(3, 2))
        A_d, B_d, Phi = fit_dmdc([lti_snapshots(A, B, dt=0.05, K=60, rng=rng)], n=3)
        Ad, Bd = exact_discretization(A, B, 0.05)
        # recovery is up to the orthogonal basis Phi; compare after lifting
        assert np.linalg.norm(Phi.T @ A_d @ Phi - Ad, "fro") < 1e-8
        assert np.linalg.norm(Phi.T @ B_d - Bd, "fro") < 1e-8

    def test_recovers_lti_from_three_trajectories(self):
        # three trajectories, streamed step by step as collect_snapshots yields them
        rng = np.random.default_rng(16)
        A = np.array([[-0.2, 1.0, 0.0], [-1.0, -0.5, 0.3], [0.1, 0.0, -0.9]])
        B = rng.normal(size=(3, 2))
        trajectories = [lti_snapshots(A, B, dt=0.05, K=20, rng=rng) for _ in range(3)]
        X, U, Xnext = (np.stack(parts, axis=1) for parts in zip(*trajectories))  # (K, 3, width): step-major
        slabs = list(zip(X, U, Xnext))
        assert len(slabs) == 20 and [part.shape for part in slabs[0]] == [(3, 3), (3, 2), (3, 3)]
        fit = fit_dmdc(slabs, n=3)
        A_d, B_d, Phi = fit
        Ad, Bd = exact_discretization(A, B, 0.05)
        assert np.linalg.norm(Phi.T @ A_d @ Phi - Ad, "fro") < 1e-8
        assert np.linalg.norm(Phi.T @ B_d - Bd, "fro") < 1e-8
        assert_matches_two_svd_fit(fit, rows_of(slabs), 3, rtol=1e-11)

    def test_prediction_residual_full_rank(self):
        rng = np.random.default_rng(4)
        A = -np.eye(4) + 0.2 * rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 2))
        X, U, Xnext = lti_snapshots(A, B, dt=0.02, K=100, rng=rng)
        A_d, B_d, Phi = fit_dmdc([(X, U, Xnext)], n=4)
        pred = Phi.T @ (A_d @ (Phi @ X.T) + B_d @ U.T)
        assert np.linalg.norm(Xnext.T - pred) <= 1e-8

    def test_input_free_data_gives_zero_b(self):
        rng = np.random.default_rng(5)
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        xs = [rng.normal(size=2)]
        for _ in range(30):
            xs.append(A @ xs[-1])
        xs = np.array(xs)
        _, B_d, _ = fit_dmdc([(xs[:-1], np.zeros((30, 1)), xs[1:])], n=2)
        assert np.linalg.norm(B_d) <= 1e-8

    def test_rank_deficiency_reported(self):
        # rank-1 snapshot data cannot support a rank-3 basis: one trajectory resting at ones(5)
        with pytest.raises(FitError, match="rank"):
            fit_dmdc([(np.ones((40, 5)), np.zeros((40, 1)), np.ones((40, 5)))], n=3)

    def test_too_few_columns(self):
        with pytest.raises(FitError):
            fit_dmdc([(np.ones((3, 5)), np.zeros((3, 1)), np.ones((3, 5)))], n=4)

    @pytest.mark.parametrize("snapshots", [[], [(np.ones((0, 5)), np.zeros((0, 1)), np.ones((0, 5)))]])
    def test_no_snapshots(self, snapshots):
        with pytest.raises(FitError, match="no snapshots"):
            fit_dmdc(snapshots, n=1)

    def test_phi_orthonormal_rows(self):
        rng = np.random.default_rng(6)
        grid = GridSpec(p=48)
        sim = BurgersSimulator(grid, 0.02, 4)
        _, _, Phi = fit_dmdc(collect_snapshots(
            sim, grid, n_traj=4, steps=30,
            dt=1e-3, amplitude=0.5, rng=rng,
        ), n=6)
        assert np.linalg.norm(Phi @ Phi.T - np.eye(6)) < 1e-10


def two_svd_fit(rows, n):
    """Reference: DMDc from thin SVDs of the K-column [X; U] and Xnext."""

    def truncated_svd(M, rank):
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        keep = min(rank, int(np.sum(s > s[0] * 1e-12)))
        return U[:, :keep], s[:keep], Vt[:keep]

    X, U, Xnext = (part.T for part in rows)
    p, m = len(X), len(U)
    U_in, s_in, Vt_in = truncated_svd(np.vstack([X, U]), n + m)
    U_out, _, _ = truncated_svd(Xnext, n)
    proj = Xnext @ (Vt_in.T / s_in)
    A_d = U_out.T @ proj @ U_in[:p].T @ U_out
    B_d = U_out.T @ proj @ U_in[p:].T
    return A_d, B_d, U_out.T


def default_stream(pde, seed=0, **overrides):
    """The snapshot stream a default config fits, and the config."""
    cfg = replace(default_config(pde, model="dmdc", seed=seed), **overrides)
    return collect_snapshots(
        build_full_simulator(cfg), grid_of(cfg),
        n_traj=cfg.dmdc_trajectories, steps=cfg.dmdc_steps, dt=cfg.dt_sim,
        amplitude=cfg.dmdc_amplitude, rng=_rng(cfg, _TAG_SNAPSHOTS),
    ), cfg


def default_snapshots(pde, seed=0, **overrides):
    """The (X, U, Xnext) rows a default config fits, and the config."""
    stream, cfg = default_stream(pde, seed, **overrides)
    return rows_of(stream), cfg


def assert_matches_two_svd_fit(fit, rows, n, rtol):
    A_d, B_d, Phi = two_svd_fit(rows, n)
    # singular vectors are fixed up to sign: flip each reference row onto Phi's
    signs = np.sign(np.sum(Phi * fit[2], axis=1))
    assert np.all(signs != 0)
    Phi, A_d, B_d = signs[:, None] * Phi, signs[:, None] * A_d * signs, signs[:, None] * B_d
    for got, want in zip(fit, (A_d, B_d, Phi)):
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def assert_same_bits(fit, other):
    for got, want in zip(fit, other):
        assert np.array_equal(got, want)


class TestQrFit:
    """The one-QR fit against the two-SVD formula it replaces."""

    @pytest.mark.parametrize("pde", ["heat", "burgers"])
    def test_matches_two_svd_fit_on_default_snapshots(self, pde):
        # the streamed fit, and the same bits from the rows in one block
        stream, cfg = default_stream(pde)
        rows, _ = default_snapshots(pde)
        n = cfg.dmdc_order
        fit = fit_dmdc(stream, n)
        assert_matches_two_svd_fit(fit, rows, n, rtol=1e-11)
        assert_same_bits(fit, fit_dmdc([rows], n))

    @pytest.mark.parametrize("K", [12, 30])
    def test_wide_data(self, K):
        # n + m <= K < 2p + m: R is trapezoidal, and at K = 12 < p + m both
        # of its blocks are wider than tall
        rng = np.random.default_rng(13)
        p, m, n = 20, 3, 5
        rows = rng.normal(size=(K, p)), rng.normal(size=(K, m)), rng.normal(size=(K, p))
        assert n + m <= K < 2 * p + m
        assert_matches_two_svd_fit(fit_dmdc([rows], n), rows, n, rtol=1e-11)

    @pytest.mark.parametrize("p, m, K", [(20, 3, 3 * _BLOCK_ROWS + 37), (300, 3, _BLOCK_ROWS + 48)])
    def test_running_r_over_row_blocks(self, p, m, K):
        # R is carried across blocks: three full blocks and a remainder, and
        # (p = 300) an R with fewer rows than its 2p + m columns after each block
        assert K % _BLOCK_ROWS != 0 and K // _BLOCK_ROWS >= (3 if K > 2 * p + m else 1)
        rng = np.random.default_rng(14)
        n = 5
        rows = rng.normal(size=(K, p)), rng.normal(size=(K, m)), rng.normal(size=(K, p))
        assert_matches_two_svd_fit(fit_dmdc([rows], n), rows, n, rtol=1e-11)

    def test_slabs_straddle_the_block_edges(self):
        # 7 trajectories: slabs of 7 rows, and 512 and 1,024 fall inside a slab
        stream, cfg = default_stream("heat", dmdc_trajectories=7)
        rows, _ = default_snapshots("heat", dmdc_trajectories=7)
        K, n = len(rows[0]), cfg.dmdc_order
        assert K > 2 * _BLOCK_ROWS and _BLOCK_ROWS % 7 != 0 and 2 * _BLOCK_ROWS % 7 != 0
        fit = fit_dmdc(stream, n)
        assert_matches_two_svd_fit(fit, rows, n, rtol=1e-11)
        assert_same_bits(fit, fit_dmdc([rows], n))

    def test_wide_data_straddles_a_block_edge(self):
        # p = 300: K < 2p + m over two blocks, in 7-row blocks that straddle row 512
        rng = np.random.default_rng(15)
        p, m, n, K = 300, 3, 5, 560
        assert _BLOCK_ROWS < K < 2 * p + m and _BLOCK_ROWS % 7 != 0
        rows = rng.normal(size=(K, p)), rng.normal(size=(K, m)), rng.normal(size=(K, p))
        fit = fit_dmdc(in_blocks(rows, 7), n)
        assert_matches_two_svd_fit(fit, rows, n, rtol=1e-11)
        assert_same_bits(fit, fit_dmdc([rows], n))

    def test_peak_allocation_does_not_grow_with_the_snapshot_count(self):
        peaks = []
        for n_traj in (10, 10, 20, 40):  # K = 1,500, 3,000, 6,000; the first fit warms up numpy
            rows, cfg = default_snapshots("heat", dmdc_trajectories=n_traj)
            tracemalloc.start()
            try:
                fit_dmdc([rows], cfg.dmdc_order)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= 1.1 * min(peaks[1:]), peaks
        assert max(peaks[1:]) < rows[0].nbytes, peaks

    def test_training_peak_does_not_grow_with_the_snapshot_count(self):
        # the collection and the fit together, as the verbs train: no snapshot buffer is held.
        # The bound is one (steps + 1) x n_traj x p state buffer at K = 6,000; the fit's QR
        # alone takes its 720-row work array and numpy's copy of it, 2.4 MB at the heat defaults
        peaks = []
        for n_traj in (10, 10, 20, 40):  # K = 1,500, 3,000, 6,000; the first run warms up numpy
            cfg = replace(default_config("heat", model="dmdc"), dmdc_trajectories=n_traj)
            sim = build_full_simulator(cfg)
            tracemalloc.start()
            try:
                fit_reduction(cfg, sim)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= 1.1 * min(peaks[1:]), peaks
        assert max(peaks[1:]) < (cfg.dmdc_steps + 1) * n_traj * cfg.p * 8, peaks

    def test_no_k_column_matrix_is_decomposed(self, monkeypatch):
        stream, cfg = default_stream("heat")
        K = cfg.dmdc_trajectories * cfg.dmdc_steps
        assert K > 2 * cfg.p + cfg.m
        shapes = []
        svd = np.linalg.svd

        def recording_svd(M, *args, **kwargs):
            shapes.append(np.shape(M))
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        fit_dmdc(stream, cfg.dmdc_order)
        assert len(shapes) == 2
        assert all(shape[1] < K for shape in shapes), shapes


class TestToContinuous:
    def test_identity_map(self):
        B_d, Phi = np.full((3, 2), 2.0), np.eye(3)
        cont = to_continuous(np.eye(3), B_d, Phi, 0.5)
        assert np.allclose(cont.A, 0.0, atol=1e-12)
        assert np.allclose(cont.B, B_d / 0.5)
        assert cont.Phi is Phi

    def test_scalar_closed_form(self):
        a = -1.7
        dt = 0.05
        cont = to_continuous(np.array([[np.exp(a * dt)]]), np.array([[1.0]]), np.eye(1), dt)
        assert cont.A[0, 0] == pytest.approx(a, abs=1e-10)

    def test_roundtrip_random_stable(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 5))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.6) * np.eye(5)
        B = rng.normal(size=(5, 2))
        dt = 0.01
        Ad, Bd = exact_discretization(A, B, dt)
        cont = to_continuous(Ad, Bd, np.eye(5), dt)
        assert np.linalg.norm(cont.A - A, "fro") < 1e-8
        assert np.linalg.norm(cont.B - B, "fro") < 1e-8

    def test_negative_real_eigenvalue_rejected(self):
        with pytest.raises(ConversionError):
            to_continuous(np.array([[-0.5]]), np.ones((1, 1)), np.eye(1), 0.1)

    def test_roundtrip_damped_rotation(self):
        # a complex-conjugate eigenvalue pair -0.3 +- 2i
        A = np.array([[-0.3, 2.0], [-2.0, -0.3]])
        B = np.array([[1.0, 0.5], [-0.2, 2.0]])
        dt = 0.1
        Ad, Bd = exact_discretization(A, B, dt)
        assert np.all(np.abs(np.linalg.eigvals(Ad).imag) > 0.1)
        cont = to_continuous(Ad, Bd, np.eye(2), dt)
        assert np.max(np.abs(cont.A - A)) <= 1e-12 * np.max(np.abs(A))
        assert np.max(np.abs(cont.B - B)) <= 1e-12 * np.max(np.abs(B))

    @pytest.mark.parametrize("r, theta", [(1.0, 0.0), (1 + 3e-11, 0.0), (1 - 7e-11, 0.0),
                                          (1 + 2e-11, 5e-11), (1.0, 8e-11), (1 - 4e-11, 3e-11)])
    def test_eigenvalue_near_one_takes_the_series_limit(self, r, theta):
        # A_d = r [[c, -s], [s, c]] has the pair mu = r exp(+-i theta), within 1e-10 of 1;
        # any f(A_d) is Re f(mu) I + Im f(mu) J with J = [[0, -1], [1, 0]]
        c, s = np.cos(theta), np.sin(theta)
        Ad = r * np.array([[c, -s], [s, c]])
        mu = complex(Ad[0, 0], Ad[1, 0])
        w = mu - 1.0
        assert abs(w) <= 1e-10
        dt = 0.01
        cont = to_continuous(Ad, np.eye(2), np.eye(2), dt)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        as_matrix = lambda f: f.real * np.eye(2) + f.imag * J
        factor = 1 - w / 2 + w**2 / 3 - w**3 / 4  # log(1 + w) / w; the next term is below 1e-40
        log_mu = w * factor
        # normwise: the entries of size |w| / dt carry the eigenbasis's rounding
        for got, f in ((cont.B, factor), (cont.A, log_mu)):
            want = as_matrix(f) / dt
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_defective_matrix_rejected(self):
        with pytest.raises(ConversionError, match=r"cond\(V\) = .* > 1e\+08"):
            to_continuous(np.array([[0.9, 1.0], [0.0, 0.9]]), np.ones((2, 1)), np.eye(2), 0.1)

    @pytest.mark.parametrize("pde", ["heat", "burgers"])
    def test_default_fits_match_the_logm_expm_route(self, pde):
        for seed in range(5):
            stream, cfg = default_stream(pde, seed)
            n, dt = cfg.dmdc_order, cfg.dt_sim
            A_d, B_d, Phi = fit_dmdc(stream, n)
            cont = to_continuous(A_d, B_d, Phi, dt)
            # the reference: A = logm(A_d)/dt, and B_d = M B with M read off a block exponential
            A = np.real(logm(A_d)) / dt
            block = np.zeros((2 * n, 2 * n))
            block[:n, :n] = A * dt
            block[:n, n:] = np.eye(n) * dt
            B = np.linalg.solve(expm(block)[:n, n:], B_d)
            assert np.linalg.norm(cont.A - A) <= 1e-12 * np.linalg.norm(A)
            assert np.linalg.norm(cont.B - B) <= 1e-12 * np.linalg.norm(B)


class TestReduceLift:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(3, 10))
        Phi = np.linalg.qr(M.T)[0].T  # orthonormal rows
        return ReducedModel(A=np.eye(3), B=np.eye(3), Phi=Phi)

    def test_projection_identity_in_span(self, model):
        rng = np.random.default_rng(9)
        z = model.Phi.T @ rng.normal(size=3)
        assert np.linalg.norm(model.Phi.T @ reduce_state(model, z) - z) < 1e-10

    def test_orthogonal_component_maps_to_zero(self, model):
        rng = np.random.default_rng(10)
        z = rng.normal(size=10)
        z -= model.Phi.T @ (model.Phi @ z)
        assert np.linalg.norm(reduce_state(model, z)) < 1e-10

    def test_projection_contracts(self, model):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.normal(size=10)
            assert np.linalg.norm(model.Phi.T @ reduce_state(model, z)) <= np.linalg.norm(z) + 1e-12

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            reduce_state(model, np.zeros(9))


def test_one_step_prediction_heldout_lti():
    # data from a true low-order LTI: held-out one-step error ~ machine precision
    rng = np.random.default_rng(12)
    A = np.array([[-0.3, 1.0], [-1.0, -0.3]])
    B = np.array([[0.0], [1.0]])
    train = lti_snapshots(A, B, dt=0.02, K=80, rng=rng)
    X, U, Xnext = (part.T for part in lti_snapshots(A, B, dt=0.02, K=40, rng=rng))
    A_d, B_d, Phi = fit_dmdc([train], n=2)
    pred = Phi.T @ (A_d @ (Phi @ X) + B_d @ U)
    err = np.linalg.norm(Xnext - pred) / np.linalg.norm(Xnext)
    assert err <= 1e-6
