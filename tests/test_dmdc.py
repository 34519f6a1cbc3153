import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, logm

from enkfcontrol import dmdc
from enkfcontrol.config import default_config
from enkfcontrol.dmdc import (
    _BLOCK_ROWS,
    ConversionError,
    FitError,
    ReducedModel,
    SnapshotData,
    collect_snapshots,
    fit_dmdc,
    reduce_state,
    to_continuous,
)
from enkfcontrol.harness import _TAG_SNAPSHOTS, _rng, build_full_simulator, grid_of
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
    """Snapshot data generated exactly by the discrete map of an LTI system."""
    Ad, Bd = exact_discretization(A, B, dt)
    n, m = B.shape
    xs, xnexts, us = [], [], []
    x = rng.normal(size=n)
    for _ in range(K):
        u = rng.uniform(-amplitude, amplitude, size=m)
        x_next = Ad @ x + Bd @ u
        xs.append(x)
        xnexts.append(x_next)
        us.append(u)
        x = x_next
    return SnapshotData(X=np.array(xs).T, Xnext=np.array(xnexts).T, U=np.array(us).T, dt=dt)


class TestCollect:
    def test_column_count(self):
        sim = LinearSimulator(-np.eye(3), np.eye(3))
        data = collect_snapshots(
            sim, GridSpec(p=3), n_traj=1, steps=5,
            dt=0.01, amplitude=0.5, rng=np.random.default_rng(0),
        )
        assert data.K == 5
        data2 = collect_snapshots(
            sim, GridSpec(p=3), n_traj=4, steps=5,
            dt=0.01, amplitude=0.5, rng=np.random.default_rng(0),
        )
        assert data2.K == 20

    def test_zero_excitation_matches_expm(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 4))
        A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(4)
        sim = LinearSimulator(A, np.eye(4))
        data = collect_snapshots(
            sim, GridSpec(p=4), n_traj=3, steps=10,
            dt=1e-3, amplitude=0.0, rng=np.random.default_rng(2),
        )
        Ad = expm(A * 1e-3)
        assert np.allclose(data.Xnext, Ad @ data.X, atol=1e-10)
        assert np.allclose(data.U, 0.0)

    def test_snapshots_are_held_once(self):
        cfg = default_config("heat", model="dmdc")
        grid = grid_of(cfg)
        sim = build_full_simulator(cfg)
        tracemalloc.start()
        try:
            data = collect_snapshots(
                sim, grid, n_traj=cfg.dmdc_trajectories, steps=cfg.dmdc_steps, dt=cfg.dt_sim,
                amplitude=cfg.dmdc_amplitude, rng=np.random.default_rng(3),
            )
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # X and Xnext are views of one (steps + 1) x n_traj x p buffer
        assert np.shares_memory(data.X, data.Xnext)
        buffer = (cfg.dmdc_steps + 1) * cfg.dmdc_trajectories * cfg.p * 8
        assert held <= 1.1 * (buffer + data.U.nbytes), (held, buffer)

    def test_columns_are_step_major(self):
        # column k n_traj + i is trajectory i at step k
        sim, grid = LinearSimulator(-np.eye(3), np.eye(3)), GridSpec(p=3)
        n_traj, steps = 4, 5
        data = collect_snapshots(
            sim, grid, n_traj=n_traj, steps=steps,
            dt=0.01, amplitude=0.5, rng=np.random.default_rng(0),
        )
        streams = np.random.default_rng(0).spawn(n_traj)
        for i, traj_rng in enumerate(streams):
            z0 = sample_initial_condition(traj_rng, grid)
            us = traj_rng.uniform(-0.5, 0.5, size=(steps, 3))
            assert np.array_equal(data.X[:, i], z0)
            assert np.array_equal(data.U[:, i::n_traj], us.T)
            assert np.array_equal(data.X[:, n_traj + i], data.Xnext[:, i])

    @pytest.mark.parametrize("p, n_traj", [(100, 20), (48, 7)])
    def test_blocked_rotation_matches_the_slab_loop(self, monkeypatch, p, n_traj):
        # a symmetric simulator steps in its eigenbasis, and the (steps + 1, n_traj, p) buffer
        # is mapped back over blocks of _BLOCK_ROWS rows; 151 x 20 and 151 x 7 rows both end
        # in a short block.  The reference maps back one step's slab at a time.  At the heat
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

            def record(y, u, out):
                if not slabs:
                    slabs.append(y.copy())
                step(y, u, out)
                slabs.append(out.copy())
                return out

            return Q, record

        monkeypatch.setattr(dmdc, "rk4_stepper", recording_stepper)
        data = collect_snapshots(
            sim, grid, n_traj=n_traj, steps=steps,
            dt=1e-3, amplitude=0.5, rng=np.random.default_rng(23),
        )
        [Q] = bases
        assert Q is not None and len(slabs) == steps + 1
        want = np.array([slab @ Q.T for slab in slabs])
        for got, ref in ((data.X, want[:-1]), (data.Xnext, want[1:])):
            ref = ref.reshape(-1, p).T
            if p == 100:
                assert np.array_equal(got, ref)
            else:
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_deterministic(self):
        grid = GridSpec(p=32)
        sim = BurgersSimulator(grid, 0.01, 4)
        kwargs = dict(n_traj=2, steps=8, dt=1e-3, amplitude=0.5)
        d1 = collect_snapshots(sim, grid, rng=np.random.default_rng(9), **kwargs)
        d2 = collect_snapshots(sim, grid, rng=np.random.default_rng(9), **kwargs)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.U, d2.U)


def snapshots_one_at_a_time(sim, grid, n_traj, steps, dt, amplitude, rng):
    """Reference: each trajectory integrated alone, one state vector at a time."""
    xs, xnexts, us = [], [], []
    for traj_rng in rng.spawn(n_traj):
        z = sample_initial_condition(traj_rng, grid)
        for _ in range(steps):
            u = traj_rng.uniform(-amplitude, amplitude, size=sim.m)
            z_next = rk4_step(sim, z, u, dt)
            xs.append(z)
            xnexts.append(z_next)
            us.append(u)
            z = z_next
    # generated trajectory-major; columns reordered step-major, as collect_snapshots lays them out
    def step_major(rows):
        rows = np.array(rows).reshape(n_traj, steps, -1)
        return rows.swapaxes(0, 1).reshape(n_traj * steps, -1).T

    return step_major(xs), step_major(xnexts), step_major(us)


class TestStackedTrajectories:
    """The (n_traj, p) stack reproduces the trajectory-by-trajectory loop."""

    @pytest.mark.parametrize("pde", ["burgers", "heat"])
    def test_matches_one_trajectory_at_a_time(self, pde):
        grid = GridSpec(p=48)
        make = BurgersSimulator if pde == "burgers" else HeatSimulator
        sim = make(grid, 0.01, 4)
        kwargs = dict(n_traj=5, steps=30, dt=1e-3, amplitude=0.5)
        data = collect_snapshots(sim, grid, rng=np.random.default_rng(21), **kwargs)
        X, Xnext, U = snapshots_one_at_a_time(sim, grid, rng=np.random.default_rng(21), **kwargs)
        assert np.array_equal(data.U, U)
        for got, want in ((data.X, X), (data.Xnext, Xnext)):
            assert got.shape == want.shape == (48, 150)
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
        data = lti_snapshots(A, B, dt=0.05, K=60, rng=rng)
        model = fit_dmdc(data, n=3)
        Ad, Bd = exact_discretization(A, B, 0.05)
        # recovery is up to the orthogonal basis Phi; compare after lifting
        A_lift = model.Phi.T @ model.A @ model.Phi
        B_lift = model.Phi.T @ model.B
        assert np.linalg.norm(A_lift - Ad, "fro") < 1e-8
        assert np.linalg.norm(B_lift - Bd, "fro") < 1e-8

    def test_prediction_residual_full_rank(self):
        rng = np.random.default_rng(4)
        A = -np.eye(4) + 0.2 * rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 2))
        data = lti_snapshots(A, B, dt=0.02, K=100, rng=rng)
        model = fit_dmdc(data, n=4)
        pred = model.Phi.T @ (model.A @ (model.Phi @ data.X) + model.B @ data.U)
        assert np.linalg.norm(data.Xnext - pred) <= 1e-8

    def test_input_free_data_gives_zero_b(self):
        rng = np.random.default_rng(5)
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        xs, xnexts = [], []
        x = rng.normal(size=2)
        for _ in range(30):
            x_next = A @ x
            xs.append(x)
            xnexts.append(x_next)
            x = x_next
        data = SnapshotData(
            X=np.array(xs).T, Xnext=np.array(xnexts).T, U=np.zeros((1, 30)), dt=0.1
        )
        model = fit_dmdc(data, n=2)
        assert np.linalg.norm(model.B) <= 1e-8

    def test_rank_deficiency_reported(self):
        # rank-1 snapshot data cannot support a rank-3 basis
        x = np.ones((5, 1)) @ np.ones((1, 40))
        data = SnapshotData(X=x, Xnext=x, U=np.zeros((1, 40)), dt=0.1)
        with pytest.raises(FitError, match="rank"):
            fit_dmdc(data, n=3)

    def test_too_few_columns(self):
        data = SnapshotData(X=np.ones((5, 3)), Xnext=np.ones((5, 3)), U=np.zeros((1, 3)), dt=0.1)
        with pytest.raises(FitError):
            fit_dmdc(data, n=4)

    def test_phi_orthonormal_rows(self):
        rng = np.random.default_rng(6)
        grid = GridSpec(p=48)
        sim = BurgersSimulator(grid, 0.02, 4)
        data = collect_snapshots(
            sim, grid, n_traj=4, steps=30,
            dt=1e-3, amplitude=0.5, rng=rng,
        )
        model = fit_dmdc(data, n=6)
        assert np.linalg.norm(model.Phi @ model.Phi.T - np.eye(6)) < 1e-10


def two_svd_fit(data, n):
    """Reference: DMDc from thin SVDs of the K-column [X; U] and Xnext."""

    def truncated_svd(M, rank):
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        keep = min(rank, int(np.sum(s > s[0] * 1e-12)))
        return U[:, :keep], s[:keep], Vt[:keep]

    p, m = data.X.shape[0], data.U.shape[0]
    U_in, s_in, Vt_in = truncated_svd(np.vstack([data.X, data.U]), n + m)
    U_out, _, _ = truncated_svd(data.Xnext, n)
    proj = data.Xnext @ (Vt_in.T / s_in)
    A_d = U_out.T @ proj @ U_in[:p].T @ U_out
    B_d = U_out.T @ proj @ U_in[p:].T
    return A_d, B_d, U_out.T


def default_snapshots(pde, seed=0, **overrides):
    cfg = replace(default_config(pde, model="dmdc", seed=seed), **overrides)
    data = collect_snapshots(
        build_full_simulator(cfg), grid_of(cfg),
        n_traj=cfg.dmdc_trajectories, steps=cfg.dmdc_steps, dt=cfg.dt_sim,
        amplitude=cfg.dmdc_amplitude, rng=_rng(cfg, _TAG_SNAPSHOTS),
    )
    return data, cfg.dmdc_order


def assert_matches_two_svd_fit(model, data, n, rtol):
    A_d, B_d, Phi = two_svd_fit(data, n)
    # singular vectors are fixed up to sign: flip each reference row onto Phi's
    signs = np.sign(np.sum(Phi * model.Phi, axis=1))
    assert np.all(signs != 0)
    Phi, A_d, B_d = signs[:, None] * Phi, signs[:, None] * A_d * signs, signs[:, None] * B_d
    for got, want in ((model.Phi, Phi), (model.A, A_d), (model.B, B_d)):
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestQrFit:
    """The one-QR fit against the two-SVD formula it replaces."""

    @pytest.mark.parametrize("pde", ["heat", "burgers"])
    def test_matches_two_svd_fit_on_default_snapshots(self, pde):
        data, n = default_snapshots(pde)
        assert_matches_two_svd_fit(fit_dmdc(data, n), data, n, rtol=1e-11)

    @pytest.mark.parametrize("K", [12, 30])
    def test_wide_data(self, K):
        # n + m <= K < 2p + m: R is trapezoidal, and at K = 12 < p + m both
        # of its blocks are wider than tall
        rng = np.random.default_rng(13)
        p, m, n = 20, 3, 5
        data = SnapshotData(X=rng.normal(size=(p, K)), Xnext=rng.normal(size=(p, K)),
                            U=rng.normal(size=(m, K)), dt=0.1)
        assert n + m <= K < 2 * p + m
        assert_matches_two_svd_fit(fit_dmdc(data, n), data, n, rtol=1e-11)

    @pytest.mark.parametrize("p, m, K", [(20, 3, 3 * _BLOCK_ROWS + 37), (300, 3, _BLOCK_ROWS + 48)])
    def test_running_r_over_row_blocks(self, p, m, K):
        # R is carried across blocks: three full blocks and a remainder, and
        # (p = 300) an R with fewer rows than its 2p + m columns after each block
        assert K % _BLOCK_ROWS != 0 and K // _BLOCK_ROWS >= (3 if K > 2 * p + m else 1)
        rng = np.random.default_rng(14)
        n = 5
        data = SnapshotData(X=rng.normal(size=(p, K)), Xnext=rng.normal(size=(p, K)),
                            U=rng.normal(size=(m, K)), dt=0.1)
        assert_matches_two_svd_fit(fit_dmdc(data, n), data, n, rtol=1e-11)

    def test_peak_allocation_does_not_grow_with_the_snapshot_count(self):
        peaks = []
        for n_traj in (10, 10, 20, 40):  # K = 1,500, 3,000, 6,000; the first fit warms up numpy
            data, n = default_snapshots("heat", dmdc_trajectories=n_traj)
            tracemalloc.start()
            try:
                fit_dmdc(data, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= 1.1 * min(peaks[1:]), peaks
        assert max(peaks[1:]) < data.X.nbytes, peaks

    def test_no_k_column_matrix_is_decomposed(self, monkeypatch):
        data, n = default_snapshots("heat")
        assert data.K > 2 * data.X.shape[0] + data.U.shape[0]
        shapes = []
        svd = np.linalg.svd

        def recording_svd(M, *args, **kwargs):
            shapes.append(np.shape(M))
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        fit_dmdc(data, n)
        assert len(shapes) == 2
        assert all(shape[1] < data.K for shape in shapes), shapes


class TestToContinuous:
    def test_identity_map(self):
        model = ReducedModel(A=np.eye(3), B=np.full((3, 2), 2.0), Phi=np.eye(3),
                             dt=0.5, discrete=True)
        cont = to_continuous(model)
        assert np.allclose(cont.A, 0.0, atol=1e-12)
        assert np.allclose(cont.B, model.B / 0.5)

    def test_scalar_closed_form(self):
        a = -1.7
        dt = 0.05
        model = ReducedModel(A=np.array([[np.exp(a * dt)]]), B=np.array([[1.0]]),
                             Phi=np.eye(1), dt=dt, discrete=True)
        cont = to_continuous(model)
        assert cont.A[0, 0] == pytest.approx(a, abs=1e-10)

    def test_roundtrip_random_stable(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 5))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.6) * np.eye(5)
        B = rng.normal(size=(5, 2))
        dt = 0.01
        Ad, Bd = exact_discretization(A, B, dt)
        model = ReducedModel(A=Ad, B=Bd, Phi=np.eye(5), dt=dt, discrete=True)
        cont = to_continuous(model)
        assert np.linalg.norm(cont.A - A, "fro") < 1e-8
        assert np.linalg.norm(cont.B - B, "fro") < 1e-8

    def test_negative_real_eigenvalue_rejected(self):
        model = ReducedModel(A=np.array([[-0.5]]), B=np.ones((1, 1)), Phi=np.eye(1),
                             dt=0.1, discrete=True)
        with pytest.raises(ConversionError):
            to_continuous(model)

    def test_roundtrip_damped_rotation(self):
        # a complex-conjugate eigenvalue pair -0.3 +- 2i
        A = np.array([[-0.3, 2.0], [-2.0, -0.3]])
        B = np.array([[1.0, 0.5], [-0.2, 2.0]])
        dt = 0.1
        Ad, Bd = exact_discretization(A, B, dt)
        assert np.all(np.abs(np.linalg.eigvals(Ad).imag) > 0.1)
        cont = to_continuous(ReducedModel(A=Ad, B=Bd, Phi=np.eye(2), dt=dt, discrete=True))
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
        cont = to_continuous(ReducedModel(A=Ad, B=np.eye(2), Phi=np.eye(2), dt=dt, discrete=True))
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        as_matrix = lambda f: f.real * np.eye(2) + f.imag * J
        factor = 1 - w / 2 + w**2 / 3 - w**3 / 4  # log(1 + w) / w; the next term is below 1e-40
        log_mu = w * factor
        # normwise: the entries of size |w| / dt carry the eigenbasis's rounding
        for got, f in ((cont.B, factor), (cont.A, log_mu)):
            want = as_matrix(f) / dt
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_defective_matrix_rejected(self):
        model = ReducedModel(A=np.array([[0.9, 1.0], [0.0, 0.9]]), B=np.ones((2, 1)),
                             Phi=np.eye(2), dt=0.1, discrete=True)
        with pytest.raises(ConversionError, match=r"cond\(V\) = .* > 1e\+08"):
            to_continuous(model)

    @pytest.mark.parametrize("pde", ["heat", "burgers"])
    def test_default_fits_match_the_logm_expm_route(self, pde):
        for seed in range(5):
            data, n = default_snapshots(pde, seed)
            model = fit_dmdc(data, n)
            cont = to_continuous(model)
            # the reference: A = logm(A_d)/dt, and B_d = M B with M read off a block exponential
            A = np.real(logm(model.A)) / model.dt
            block = np.zeros((2 * n, 2 * n))
            block[:n, :n] = A * model.dt
            block[:n, n:] = np.eye(n) * model.dt
            B = np.linalg.solve(expm(block)[:n, n:], model.B)
            assert np.linalg.norm(cont.A - A) <= 1e-12 * np.linalg.norm(A)
            assert np.linalg.norm(cont.B - B) <= 1e-12 * np.linalg.norm(B)


class TestReduceLift:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(3, 10))
        Phi = np.linalg.qr(M.T)[0].T  # orthonormal rows
        return ReducedModel(A=np.eye(3), B=np.eye(3), Phi=Phi, dt=0.1, discrete=False)

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
    test = lti_snapshots(A, B, dt=0.02, K=40, rng=rng)
    model = fit_dmdc(train, n=2)
    pred = model.Phi.T @ (model.A @ (model.Phi @ test.X) + model.B @ test.U)
    err = np.linalg.norm(test.Xnext - pred) / np.linalg.norm(test.Xnext)
    assert err <= 1e-6
