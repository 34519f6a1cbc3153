"""The batched closed loop against a per-trajectory reference loop.

The reference advances one state at a time with the per-state law
(``robust_control``) and ``rk4_step``, stopping a trajectory at its first
state that is non-finite or has a non-finite L2 norm.  The batched engine
evaluates the same arithmetic with the compiled law, as matrix products over
the whole stack, so the two agree to rounding.  Every run goes through
``simulate_closed_loop``'s cases; custom initial states reach it through
``harness.sample_initial_conditions`` (:func:`start_at`).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from enkfcontrol import enkf, harness
from enkfcontrol.config import ConfigError, default_config
from enkfcontrol.dmdc import ReducedModel, collect_snapshots
from enkfcontrol.controller import RankDeficientError, compile_law, robust_control
from enkfcontrol.enkf import GainApprox
from enkfcontrol.harness import (
    POLICIES,
    Case,
    HarnessError,
    _enkf_horizon,
    _lambda_scale,
    build_artifacts,
    build_full_simulator,
    build_law,
    fit_reduction,
    grid_cases,
    grid_of,
    policy_cases,
    simulate_closed_loop,
    trial_initial_condition,
)
from enkfcontrol.pde import (
    l2_norm,
    rk4_step,
    rk4_stepper,
    sample_initial_conditions,
    second_difference_matrix,
)
from enkfcontrol.riccati import LtiSystem, solve_dre

RTOL = 1e-12


def spd_gain(n: int, seed: int) -> GainApprox:
    M = np.random.default_rng(seed).normal(size=(n, n))
    P = np.eye(n) + 0.1 * M @ M.T / n
    return GainApprox(P=P)


def reference(cfg, art, z0, lam, kind, d0, controlled):
    """(l2 trace, terminal ratio) of one trajectory, one state at a time."""
    grid = grid_of(cfg)
    w = np.ones(cfg.m)
    law, lam_state = build_law(cfg, art), lam * _lambda_scale(cfg, art)
    n_steps = max(1, int(round(cfg.T_sim / cfg.dt_sim)))
    t = np.arange(n_steps + 1) * cfg.dt_sim
    l2 = np.empty(n_steps + 1)
    z = np.array(z0, dtype=float)
    l2[0] = l2_norm(z, grid)
    failed = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            u = robust_control(law, z, lam_state) if controlled else np.zeros(cfg.m)
            d = d0 * {"sin": np.sin(t[k]), "const": 1.0, "none": 0.0}[kind] * w
            z = rk4_step(art.sim, z, u + d, cfg.dt_sim)
            norm = l2_norm(z, grid)
            if not (np.all(np.isfinite(z)) and np.isfinite(norm)):
                l2[k + 1:] = np.inf
                failed = True
                break
            l2[k + 1] = norm
    ratio = np.inf if failed or l2[0] == 0 else l2[-1] / l2[0]
    return l2, ratio


def start_at(monkeypatch, Z0):
    """Trial i of every run starts at Z0[i] instead of its sampled bump."""
    Z0 = np.array(Z0, dtype=float, ndmin=2)

    def sample(streams, grid):
        assert len(streams) == len(Z0) and grid.p == Z0.shape[1]
        return Z0.copy()

    monkeypatch.setattr(harness, "sample_initial_conditions", sample)


def reference_batch(cfg, art, lam, kind, d0, controlled):
    runs = [
        reference(cfg, art, trial_initial_condition(cfg, i), lam, kind, d0, controlled)
        for i in range(cfg.n_trials)
    ]
    return np.array([l2 for l2, _ in runs]), np.array([r for _, r in runs])


@pytest.fixture(scope="module")
def heat_full():
    cfg = default_config(
        "heat", p=32, m=4, n_trials=3, T_sim=0.03, lam=0.3, d0=0.2,
        grid_lambda=(0.0, 0.3), grid_kinds=("sin", "const"),
    )
    return cfg, build_artifacts(cfg, gain=spd_gain(cfg.p, 1))


@pytest.fixture(scope="module")
def heat_dmdc():
    cfg = default_config(
        "heat", p=32, m=4, n_trials=2, T_sim=0.03, model="dmdc",
        dmdc_order=6, dmdc_trajectories=4, dmdc_steps=30,
        grid_d0=(0.0, 0.1), grid_lambda=(0.0, 0.3), grid_kinds=("sin", "const"),
    )
    reduction = fit_reduction(cfg, build_full_simulator(cfg))
    return cfg, build_artifacts(cfg, gain=spd_gain(cfg.dmdc_order, 2), reduction=reduction)


class TestAgainstReference:
    def test_heat_full_known_b_batch(self, heat_full):
        cfg, art = heat_full
        series = simulate_closed_loop(cfg, art, policy_cases(cfg), cfg.n_trials)
        assert [res.case.policy for res in series] == list(POLICIES)
        for res in series:
            lam = cfg.lam if res.case.policy == "robust" else 0.0
            assert res.case.lam == lam
            traces, ratios = reference_batch(
                cfg, art, lam, cfg.dist_kind, cfg.d0, res.case.policy != "uncontrolled"
            )
            np.testing.assert_allclose(res.ratios, ratios, rtol=RTOL, atol=0)
            np.testing.assert_allclose(res.mean, traces.mean(axis=0), rtol=RTOL, atol=0)
            assert res.failures == 0
        # the three policies differ, so the rows really were assigned per policy
        means = [res.mean_terminal_ratio for res in series]
        assert len(set(means)) == 3

    def test_heat_full_traces(self, heat_full):
        # one trial a case: the case's mean is that trial's trace, and its variance 0
        cfg, art = heat_full
        z = trial_initial_condition(cfg, 0)
        for res in simulate_closed_loop(cfg, art, [Case("robust", "const", 0.2, 0.3),
                                                   Case("uncontrolled", "sin", 0.1, 0.0)], 1):
            c = res.case
            l2, ratio = reference(cfg, art, z, c.lam, c.kind, c.d0, c.policy != "uncontrolled")
            np.testing.assert_allclose(res.mean, l2, rtol=RTOL, atol=0)
            assert np.all(res.variance == 0.0)
            assert res.ratios[0] == pytest.approx(ratio, rel=RTOL)

    def test_heat_dmdc_grid(self, heat_dmdc):
        cfg, art = heat_dmdc
        cells = simulate_closed_loop(cfg, art, grid_cases(cfg), cfg.n_trials)
        assert [(c.case.policy, c.case.kind, c.case.d0, c.case.lam) for c in cells] == [
            ("robust", k, d0, lam)
            for k in cfg.grid_kinds for d0 in cfg.grid_d0 for lam in cfg.grid_lambda
        ]
        for cell in cells:
            c = cell.case
            _, ratios = reference_batch(cfg, art, c.lam, c.kind, c.d0, True)
            np.testing.assert_allclose(cell.ratios, ratios, rtol=RTOL, atol=0)
            assert cell.mean_terminal_ratio == pytest.approx(np.mean(ratios), rel=RTOL)
            assert cell.failures == 0

    def test_burgers_full_row_by_row(self):
        # the Burgers law compiled from its constant input matrix: each row
        # matches the per-state law row by row
        cfg = default_config("burgers", model="full", p=16, m=4, n_trials=2, T_sim=0.01)
        art = build_artifacts(cfg, gain=spd_gain(cfg.p, 3))
        series = simulate_closed_loop(cfg, art, policy_cases(cfg), cfg.n_trials)
        for res in series[1:]:
            traces, ratios = reference_batch(cfg, art, res.case.lam, cfg.dist_kind, cfg.d0, True)
            np.testing.assert_allclose(res.ratios, ratios, rtol=RTOL, atol=0)
            np.testing.assert_allclose(res.mean, traces.mean(axis=0), rtol=RTOL, atol=0)


class TestBlowUp:
    def test_mask_isolates_blown_up_rows(self, monkeypatch):
        cfg = default_config("burgers", model="full", p=32, m=4, n_trials=2, T_sim=0.05)
        art = build_artifacts(cfg, gain=spd_gain(cfg.p, 4))
        z = trial_initial_condition(cfg, 0)
        # trial 1 starts at the 130x bump, which steepens until explicit RK4
        # blows up a few steps in, under control too; a constant d0 = 1e308
        # overflows step one
        Z0 = np.array([z, 130.0 * z])
        start_at(monkeypatch, Z0)
        cases = [Case("robust", "const", 0.0, 0.2), Case("uncontrolled", "const", 0.0, 0.0),
                 Case("robust", "const", 1e308, 0.2)]
        results = simulate_closed_loop(cfg, art, cases, cfg.n_trials)
        assert [res.failures for res in results] == [1, 1, 2]
        for res in results:
            c = res.case
            runs = [reference(cfg, art, z0, c.lam, c.kind, c.d0, c.policy != "uncontrolled") for z0 in Z0]
            np.testing.assert_allclose(res.mean, np.mean([l2 for l2, _ in runs], axis=0), rtol=RTOL, atol=0)
            np.testing.assert_allclose(res.ratios, [ratio for _, ratio in runs], rtol=RTOL, atol=0)
        free = results[1].mean  # inf from the bump's blow-up on
        first = np.argmax(np.isinf(free))
        assert 1 < first < len(free) - 1
        assert np.all(np.isfinite(free[:first])) and np.all(np.isinf(free[first:]))
        assert np.all(np.isinf(results[2].mean[1:]))
        # a ratio-only run of the same cases keeps no trace and gives the same bits
        bare = simulate_closed_loop(cfg, art, cases, cfg.n_trials, traces=False)
        for got, want in zip(bare, results):
            assert got.mean is None and got.variance is None
            assert np.array_equal(got.ratios, want.ratios) and got.failures == want.failures
        # the surviving trials are the trials of a stack without the blown-up ones
        start_at(monkeypatch, Z0[:1])
        for got, want in zip(simulate_closed_loop(cfg, art, cases[:2], 1), results):
            np.testing.assert_allclose(got.ratios, want.ratios[:1], rtol=RTOL, atol=0)

    def test_norm_overflow_is_a_failure(self, heat_full):
        # d0 = 1e308 leaves the compiled step's state finite (U N'Q is about
        # 1e305 at dt = 1e-3) but overflows its L2 norm, under sin(t) and
        # under a constant shape alike; the norm's overflow marks the failure
        cfg, art = heat_full
        overflow = replace(cfg, grid_d0=(1e308,), grid_lambda=(0.0,), grid_kinds=("sin", "const"))
        cells = simulate_closed_loop(overflow, art, grid_cases(overflow), cfg.n_trials)
        assert [(c.case.kind, c.failures) for c in cells] == [("sin", cfg.n_trials), ("const", cfg.n_trials)]
        for cell in cells:
            traces, ratios = reference_batch(cfg, art, 0.0, cell.case.kind, 1e308, True)
            assert np.all(np.isinf(ratios)) and np.all(np.isinf(cell.ratios))
            assert np.all(np.isinf(traces[:, -1]))
        # as grid runs it, ratio-only, the cells read the same bits
        bare_cells = simulate_closed_loop(overflow, art, grid_cases(overflow), cfg.n_trials, traces=False)
        for cell, bare in zip(cells, bare_cells):
            assert bare.mean is None and bare.variance is None
            assert np.array_equal(bare.ratios, cell.ratios) and bare.failures == cell.failures

    @pytest.mark.parametrize("overrides", [
        dict(p=32, m=4, T_sim=0.3),
        dict(L=32.0, p=16, m=4, T_sim=0.03),  # dy = 2
    ], ids=["mid-run", "wide-cells"])
    def test_deferred_norms_fail_as_the_per_step_norm(self, overrides):
        # a step keeps squared norms and finishes sqrt(. dy) after the loop; the
        # constant d0 = 1e155 row drives its squared norm times dy past the
        # largest float some steps in, and fails at the step where the per-step
        # norm of the reference turns inf.  With dy > 1 that step comes before
        # the squared norm itself overflows, and the run ends in between, so a
        # test on the squared norm alone would miss the failure.
        cfg = default_config("heat", n_trials=1, **overrides)
        art = build_artifacts(cfg, gain=spd_gain(cfg.p, 9))
        z = trial_initial_condition(cfg, 0)
        cases = [Case("uncontrolled", "const", 1e155, 0.0), Case("robust", "const", 0.1, 0.3),
                 Case("uncontrolled", "const", 0.0, 0.0)]
        results = simulate_closed_loop(cfg, art, cases, cfg.n_trials)  # one trial: a case's mean is its trace
        assert [res.failures for res in results] == [1, 0, 0]
        for res in results:
            c = res.case
            l2, ratio = reference(cfg, art, z, c.lam, c.kind, c.d0, c.policy != "uncontrolled")
            assert np.array_equal(np.isinf(res.mean), np.isinf(l2))
            np.testing.assert_allclose(res.mean, l2, rtol=RTOL, atol=0)
            assert res.ratios[0] == pytest.approx(ratio, rel=RTOL)
        blown = int(np.argmax(np.isinf(results[0].mean)))
        assert 1 < blown < len(results[0].mean) - 1
        zk = z
        with np.errstate(over="ignore"):
            for _ in range(blown):
                zk = rk4_step(art.sim, zk, np.full(cfg.m, 1e155), cfg.dt_sim)
            assert np.isfinite(np.sum(zk * zk)) == (grid_of(cfg).dy > 1)
        for got, want in zip(simulate_closed_loop(cfg, art, cases, cfg.n_trials, traces=False), results):
            assert np.array_equal(got.ratios, want.ratios) and got.failures == want.failures

    def test_grid_failure_counts(self, heat_full):
        cfg, art = heat_full
        # a constant d0 = 1e308 overflows the L2 norm after the first step of
        # every trial of its cells (the compiled step's state stays finite)
        def grid(**lists):
            sweep = replace(cfg, **lists)
            return simulate_closed_loop(sweep, art, grid_cases(sweep), cfg.n_trials)

        blown = grid(grid_d0=(0.1, 1e308), grid_kinds=("const",))
        clean = grid(grid_d0=(0.1,), grid_kinds=("const",))
        for cell in blown:
            if cell.case.d0 == 1e308:
                assert cell.failures == cfg.n_trials
                assert cell.mean_terminal_ratio == np.inf
                assert all(r == np.inf for r in cell.ratios)
        survivors = [c for c in blown if c.case.d0 != 1e308]
        assert len(survivors) == len(clean) == 2
        for got, want in zip(survivors, clean):
            assert got.failures == 0
            np.testing.assert_allclose(got.ratios, want.ratios, rtol=RTOL, atol=0)


class TestTwinCells:
    # grids of the heat_dmdc fixture (d0 0, 0.1; lambda 0, 0.3) whose cells read fewer distinct
    # inputs than there are cells, and the number of distinct inputs
    @pytest.mark.parametrize(
        "overrides,distinct",
        [
            ({}, 6),  # at d0 = 0 the kind has no effect: the sin and const cells there are twins
            ({"channel": (0.0, 0.0, 0.0, 0.0)}, 1),  # no disturbance reaches the plant, and |B w| lambda = 0
            ({"grid_kinds": ("none",)}, 2),  # no disturbance: one block per lambda
        ],
        ids=["zero-d0", "zero-channel", "kinds-none"],
    )
    def test_zero_d0_cells_are_integrated_once(self, heat_dmdc, monkeypatch, overrides, distinct):
        cfg, art = heat_dmdc
        cfg = replace(cfg, **overrides).validate()
        n, cases = cfg.n_trials, grid_cases(cfg)
        stacks, stepper = [], harness.rk4_stepper

        def counted(sim, h):
            Q, step = stepper(sim, h)
            return Q, lambda y, *args: stacks.append(len(y)) or step(y, *args)

        def reads(case):  # the disturbance that reaches the plant, and lambda in state units
            disturbed = case.kind != "none" and case.d0 > 0 and any(cfg.channel or (1.0,))
            return (case.kind, case.d0) if disturbed else None, case.lam * _lambda_scale(cfg, art)

        monkeypatch.setattr(harness, "rk4_stepper", counted)
        cells = simulate_closed_loop(cfg, art, cases, n)
        assert stacks and set(stacks) == {distinct * n}
        assert [c.case for c in cells] == cases
        twins = {}
        for cell in cells:
            twins.setdefault(reads(cell.case), []).append(cell)
        assert len(twins) == distinct < len(cells)
        for first, *rest in twins.values():
            for twin in rest:
                for field in ("mean", "variance", "ratios"):
                    assert np.array_equal(getattr(twin, field), getattr(first, field))
                assert twin.failures == first.failures == 0
        # each cell integrated alone agrees to rounding (GEMM tiling follows
        # the stack height)
        for cell in cells:
            one, = simulate_closed_loop(cfg, art, [cell.case], n)
            np.testing.assert_allclose(cell.mean, one.mean, rtol=1e-14, atol=0)
            np.testing.assert_allclose(cell.ratios, one.ratios, rtol=1e-14, atol=0)


class TestRatioOnly:
    # 3,000 steps of 32 rows of 8 cells: one (n_steps + 1) x batch float64
    # trace is 768 kB, and the stack itself 2 kB.  numpy reports its
    # allocations to tracemalloc.
    cfg = default_config("heat", p=8, m=2, n_trials=4, T_sim=3.0, grid_d0=(0.1, 0.2), grid_lambda=(0.0, 0.3))
    trace_bytes = (3000 + 1) * len(grid_cases(cfg)) * cfg.n_trials * 8

    def peak(self, traces):
        """(peak, kept): the peak bytes of simulate_closed_loop, and the bytes its results keep."""
        art = build_artifacts(self.cfg, gain=spd_gain(self.cfg.p, 8))
        tracemalloc.start()
        try:
            results = simulate_closed_loop(self.cfg, art, grid_cases(self.cfg), self.cfg.n_trials, traces=traces)
            kept, peak = tracemalloc.get_traced_memory()
            assert results
            return peak, kept
        finally:
            tracemalloc.stop()

    def test_grid_holds_no_trace(self):
        assert self.peak(traces=True)[0] > self.trace_bytes  # batch keeps the traces
        assert self.peak(traces=False)[0] < self.trace_bytes

    def test_traced_run_holds_the_trace_once(self):
        # simulate_closed_loop reads each case's means and variances off the time-major
        # trace, with no copy of it in row order.  Those means and variances
        # are what the run returns, half a trace here, and come on top.
        peak, kept = self.peak(traces=True)
        assert peak - kept <= 1.2 * self.trace_bytes


@pytest.mark.parametrize("steps", [2, 129, 257, 3001])
def test_case_moments_are_the_row_block_moments_bit_for_bit(steps):
    # the chunked reads of a case's trace columns give the bits of the mean and
    # variance over its rows in row order, a final one-step chunk included
    # (129 = 128 + 1), and an inf in a column as the row block gives it.  One
    # row near 1 and the others near 1e-16 make a sum in row order part from
    # a pairwise one.
    rng = np.random.default_rng(steps)
    columns = rng.permutation(40)[:29]
    trace = rng.random((steps, 40)) * 1e-16
    trace[:, columns[0]] += 1.0
    trace[steps // 4:steps // 2, 7] = np.inf
    block = np.ascontiguousarray(trace.T[columns])
    mean, variance = harness._case_moments(trace, columns)
    assert np.array_equal(mean, block.mean(axis=0))
    with np.errstate(invalid="ignore"):
        assert np.array_equal(variance, block.var(axis=0), equal_nan=True)


class TestRowGroups:
    """The loop groups the blocks as uncontrolled | lambda = 0 | lambda > 0 and steps them in place."""

    # interleaved groups, each group in more than one place; the last case's
    # constant d0 = 1e308 fails it
    MIXED = [Case("robust", "const", 0.1, 0.3), Case("uncontrolled", "const", 0.2, 0.0),
             Case("optimal", "const", 0.1, 0.0), Case("optimal", "const", 0.0, 0.0),
             Case("robust", "const", 0.2, 0.2), Case("uncontrolled", "const", 0.0, 0.0),
             Case("optimal", "const", 0.2, 0.0), Case("robust", "const", 1e308, 0.3)]

    @staticmethod
    def poisoned_run(cfg, art, cases, monkeypatch, columns):
        """The cases under a law whose H reads NaN in the given columns."""
        compile_law = harness.compile_law

        def poisoned(*args):
            law = compile_law(*args)
            H = law.H.copy()
            H[:, columns(law.n)] = np.nan
            return replace(law, H=H)

        monkeypatch.setattr(harness, "compile_law", poisoned)
        return simulate_closed_loop(cfg, art, cases, cfg.n_trials)

    @pytest.mark.parametrize("pde", ["heat", "burgers"])
    def test_permuting_rows_permutes_the_results(self, heat_full, pde):
        # reordering the cases moves their blocks in the stack, and each case keeps its bits
        if pde == "heat":
            cfg, art = heat_full
        else:
            cfg = default_config("burgers", model="full", p=16, m=4, n_trials=2, T_sim=0.01)
            art = build_artifacts(cfg, gain=spd_gain(cfg.p, 6))
        base = {res.case: res for res in simulate_closed_loop(cfg, art, self.MIXED, cfg.n_trials)}
        assert [base[c].failures for c in self.MIXED] == [0] * 7 + [cfg.n_trials]
        for perm in (np.arange(len(self.MIXED))[::-1], np.random.default_rng(7).permutation(len(self.MIXED))):
            cases = [self.MIXED[i] for i in perm]
            moved = simulate_closed_loop(cfg, art, cases, cfg.n_trials)
            bare = simulate_closed_loop(cfg, art, cases, cfg.n_trials, traces=False)  # ratio-only, as grid runs
            assert [res.case for res in moved] == [res.case for res in bare] == cases
            for got, ratio_only in zip(moved, bare):
                want = base[got.case]
                assert np.array_equal(got.mean, want.mean)
                assert np.array_equal(got.variance, want.variance, equal_nan=True)  # inf - inf once failed
                for res in (got, ratio_only):
                    assert np.array_equal(res.ratios, want.ratios) and res.failures == want.failures

    def test_alternating_lambda_grid_reads_as_the_grouped_one(self, heat_full):
        # a lambda list alternating 0 and > 0 gives each cell the bits of the same cells listed grouped
        cfg, art = heat_full
        sweep = replace(cfg, grid_d0=(0.0, 0.2), grid_lambda=(0.0, 0.3, 0.0, 0.1)).validate()
        cells = grid_cases(sweep)
        grouped = sorted(cells, key=lambda c: c.lam > 0)
        assert grouped != cells
        want = {res.case: res for res in simulate_closed_loop(sweep, art, grouped, cfg.n_trials)}
        for res in simulate_closed_loop(sweep, art, cells, cfg.n_trials):
            assert np.array_equal(res.mean, want[res.case].mean)
            assert np.array_equal(res.variance, want[res.case].variance)
            assert np.array_equal(res.ratios, want[res.case].ratios)

    def test_lambda_zero_rows_read_only_the_feedback_block(self, heat_full, monkeypatch):
        # NaN in the law's g and B^+ columns fails every lambda > 0 case and
        # leaves the uncontrolled and lambda = 0 cases bit for bit as they were
        cfg, art = heat_full
        cases = self.MIXED[:-1]
        clean = simulate_closed_loop(cfg, art, cases, cfg.n_trials)
        dirty = self.poisoned_run(cfg, art, cases, monkeypatch, lambda n: np.r_[:n, n + cfg.m:n + 2 * cfg.m])
        for got, want in zip(dirty, clean):
            robust = got.case.lam > 0
            assert got.failures == (cfg.n_trials if robust else 0)
            if not robust:
                assert np.all(np.isfinite(got.mean))
                assert np.array_equal(got.mean, want.mean) and np.array_equal(got.ratios, want.ratios)

    def test_uncontrolled_rows_never_read_the_law(self, heat_full, monkeypatch):
        # a law that is NaN throughout fails every controlled case; the uncontrolled ones keep their bits
        cfg, art = heat_full
        cases = self.MIXED[:-1]
        clean = simulate_closed_loop(cfg, art, cases, cfg.n_trials)
        dirty = self.poisoned_run(cfg, art, cases, monkeypatch, lambda n: slice(None))
        for got, want in zip(dirty, clean):
            free = got.case.policy == "uncontrolled"
            assert got.failures == (0 if free else cfg.n_trials)
            if free:
                assert np.array_equal(got.mean, want.mean) and np.array_equal(got.ratios, want.ratios)

    def test_an_uncontrolled_rollout_compiles_no_law(self, monkeypatch):
        # a reduced B with a zero column fails the law's rank check: the uncontrolled case alone
        # takes no SVD and runs, and a controlled case names the column
        B = np.zeros((4, 2))
        B[0, 0] = 1.0
        cfg = default_config("heat", p=16, m=2, T_sim=0.01, n_trials=2, seed=5, model="dmdc", dmdc_order=4)
        art = build_artifacts(cfg, gain=spd_gain(4, 3),
                              reduction=ReducedModel(A=-np.eye(4), B=B, Phi=np.eye(4, 16)))
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        uncontrolled, optimal, _ = policy_cases(cfg)
        [free] = simulate_closed_loop(cfg, art, [uncontrolled], cfg.n_trials)
        assert shapes == []
        assert free.failures == 0 and np.all(np.isfinite(free.ratios)) and np.all(np.isfinite(free.mean))
        with pytest.raises(RankDeficientError, match=r"null space involves columns \[1\]"):
            simulate_closed_loop(cfg, art, [optimal], cfg.n_trials)

    @pytest.mark.parametrize("pde", ["heat", "burgers"])
    def test_snapshots_match_a_step_into_fresh_arrays(self, pde):
        # collect_snapshots steps one slab in place and reuses its buffers; stepping into
        # a fresh array every time gives the same bits, so no slab is overwritten before
        # it is drawn
        cfg = default_config(pde, p=24, m=4)
        sim, grid = build_full_simulator(cfg), grid_of(cfg)
        n_traj, steps, dt, amplitude = 3, 12, 1e-3, 0.5
        slabs = [tuple(part.copy() for part in slab)
                 for slab in collect_snapshots(sim, grid, n_traj, steps, dt, amplitude, np.random.default_rng(4))]
        streams = np.random.default_rng(4).spawn(n_traj)
        Z0 = sample_initial_conditions(streams, grid)
        us = np.array([rng.uniform(-amplitude, amplitude, size=(steps, cfg.m)) for rng in streams])
        Q, step = rk4_stepper(sim, dt)
        ys = [Z0 if Q is None else Z0 @ Q]
        for k in range(steps):
            ys.append(step(ys[-1], us[:, k], np.empty_like(ys[-1])))
        xs = [y if Q is None else y @ Q.T for y in ys]  # slab k is every trajectory at step k
        assert len(slabs) == steps
        for k, (X, U, Xnext) in enumerate(slabs):
            assert np.array_equal(X, xs[k]) and np.array_equal(U, us[:, k]) and np.array_equal(Xnext, xs[k + 1])


class TestDeterminism:
    def test_row_does_not_depend_on_its_batch(self, heat_dmdc):
        # each case run alone agrees with it in the whole stack to rounding, and a rerun gives the same bits
        cfg, art = heat_dmdc
        n = 5
        cases = [Case("optimal", "sin", 0.1, 0.0), Case("robust", "const", 0.2, 0.3),
                 Case("robust", "none", 0.1, 0.1), Case("uncontrolled", "sin", 0.0, 0.0),
                 Case("optimal", "const", 0.05, 0.0)]
        full = simulate_closed_loop(cfg, art, cases, n)
        again = simulate_closed_loop(cfg, art, cases, n)
        for res, rerun in zip(full, again):
            assert np.array_equal(res.mean, rerun.mean) and np.array_equal(res.ratios, rerun.ratios)
        for case, res in zip(cases, full):
            one, = simulate_closed_loop(cfg, art, [case], n)
            np.testing.assert_allclose(one.mean, res.mean, rtol=RTOL, atol=0)
            np.testing.assert_allclose(one.ratios, res.ratios, rtol=RTOL, atol=0)

    def test_policies_share_initial_conditions(self, heat_full):
        cfg, art = heat_full
        series = simulate_closed_loop(cfg, art, policy_cases(cfg), cfg.n_trials)
        starts = {res.case.policy: res.mean[0] for res in series}
        assert list(starts) == list(POLICIES)
        assert len(set(starts.values())) == 1


class TestValidation:
    """Every lambda and disturbance kind a rollout reads was checked by ExperimentConfig.validate."""

    def test_negative_lambda_rejected(self, heat_full):
        cfg, _ = heat_full
        with pytest.raises(ConfigError, match=r"\[robust\] lambda must be nonnegative, got -0.5$"):
            replace(cfg, lam=-0.5).validate()
        with pytest.raises(ConfigError, match=r"\[grid\] lambda_list must be nonnegative, got 0.5, -0.5$"):
            replace(cfg, grid_lambda=(0.5, -0.5)).validate()

    def test_unknown_kind_rejected(self, heat_full):
        cfg, _ = heat_full
        with pytest.raises(ConfigError, match=r"\[disturbance\] kind must be one of sin, const, none, got square"):
            replace(cfg, dist_kind="square").validate()
        with pytest.raises(ConfigError, match=r"\[grid\] kinds must each be one of"):
            replace(cfg, grid_kinds=("sin", "square")).validate()


class TestLambdaUnits:
    # m = 4 channels of 8 cells each with disjoint supports, so |B w| = sqrt(8 |w|^2)
    @pytest.mark.parametrize("units,scale", [("state", 1.0), ("amplitude", np.sqrt(8 * 5.25))])
    def test_robust_bound_under_each_unit(self, heat_full, units, scale):
        cfg, art = heat_full
        cfg = replace(cfg, channel=(1.0, 2.0, 0.5, 0.0), lambda_units=units).validate()
        assert _lambda_scale(cfg, art) == pytest.approx(scale, rel=1e-15)


class TestEnkfHorizon:
    """(T, n_steps) of the EnKF run: its step T / n_steps is never longer than the one asked for."""

    @pytest.mark.parametrize("dt,n_steps", [(0.07, 2), (0.04, 3)])
    def test_the_chain_steps_no_longer_than_asked(self, dt, n_steps, monkeypatch):
        # neither dt divides T = 0.1: 0.07 takes 2 steps of 0.05, not 1 of 0.1, and 0.04 takes 3, not 2 of 0.05
        cfg = default_config("heat", p=8, m=2, enkf_T=0.1, enkf_dt=dt)
        steps, step = [], enkf.step_linear
        monkeypatch.setattr(enkf, "step_linear", lambda *a: steps.append(a[5]) or step(*a))
        art = build_artifacts(cfg)
        assert _enkf_horizon(cfg, art.A) == (0.1, n_steps)
        assert steps == [0.1 / n_steps] * n_steps
        assert 0.1 / n_steps <= dt

    @pytest.mark.parametrize("pde,want", [("heat", (0.1, 100)), ("burgers", (3.0, 5_243))])
    def test_full_model_defaults(self, pde, want):
        # heat: dt_sim = 1e-3 binds; Burgers: 0.75 / |nu D2| = 5.7e-4 binds, T / dt = 5,242.88
        cfg = default_config(pde, model="full")
        assert _enkf_horizon(cfg, build_artifacts(cfg, gain=spd_gain(cfg.p, 4)).A) == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduced_model_takes_dt_sim(self, seed):
        # the benchmark's heat-dmdc-grid-sim config: the fit's |A| leaves dt_sim the step
        cfg = default_config("heat", model="dmdc", n_trials=4, seed=seed)
        A = fit_reduction(cfg, build_full_simulator(cfg)).A
        assert 0.75 / np.linalg.norm(A, 2) > cfg.dt_sim
        assert _enkf_horizon(cfg, A) == (0.1, 100)


def test_configured_weights_reach_the_gain_and_the_law():
    # q, r_input and g off 1: the trained gain is within 0.08 of the Riccati solution of
    # those weights (0.02 at this N; 0.2 with g read as 1, 1.5 with q and r swapped),
    # and the law's feedback block is P B / r_input
    cfg = default_config("heat", p=8, m=2, q=2.5, r_input=0.4, g=0.5, enkf_particles=2000, T_sim=0.5)
    art = build_artifacts(cfg)
    A, B = art.A, art.B
    I = np.eye(cfg.p)
    sys = LtiSystem(A, B, np.sqrt(cfg.q) * I, cfg.r_input * np.eye(cfg.m), cfg.g * I)
    T, n_steps = _enkf_horizon(cfg, A)
    P_dre = solve_dre(sys, T, T / n_steps)
    assert np.linalg.norm(art.gain.P - P_dre) <= 0.08 * np.linalg.norm(P_dre)
    H = compile_law(build_law(cfg, art)).H
    np.testing.assert_allclose(-H[:, cfg.p:cfg.p + cfg.m], art.gain.P @ B / cfg.r_input, rtol=1e-14, atol=0)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("pde", ["heat", "burgers"])
def test_full_design_model_is_the_plant_jacobian_at_the_origin(pde, bc):
    # every plant carries its linearization nu D2 as A, and the design model is
    # that pair.  -z D1 z + nu D2 z is quadratic plus linear, so a central
    # difference of unit step at z = 0 reads its Jacobian nu D2 to rounding
    cfg = default_config(pde, p=16, m=4, bc=bc, model="full")
    art = build_artifacts(cfg, gain=spd_gain(cfg.p, 3))
    A = cfg.nu * second_difference_matrix(grid_of(cfg), bc)
    assert np.array_equal(art.sim.A, A)
    assert art.A is art.sim.A and art.B is art.sim.control_matrix
    I, u = np.eye(cfg.p), np.zeros((cfg.p, cfg.m))
    jacobian = (art.sim.rhs(I, u) - art.sim.rhs(-I, u)).T / 2.0
    np.testing.assert_allclose(art.A, jacobian, rtol=0, atol=1e-12 * np.abs(A).max())


@pytest.mark.parametrize("overrides,named", [
    ({"model": "full"}, r"supplied with model=full; pass --model dmdc"),
    ({"p": 40}, r"reduced model has p=32, the config p=40; run with p=32"),
    ({"m": 3}, r"reduced model has m=4, the config m=3; run with m=4"),
    ({"dmdc_order": 5}, r"reduced model has dmdc order=6, the config dmdc order=5"),
], ids=["model-full", "p", "m", "order"])
def test_reduced_model_must_match_the_config(heat_dmdc, overrides, named):
    cfg, art = heat_dmdc
    cfg = replace(cfg, **overrides).validate()
    gain = spd_gain(cfg.p, 5) if cfg.model == "full" else art.gain
    with pytest.raises(HarnessError, match=named):
        build_artifacts(cfg, gain=gain, reduction=art.reduction)
