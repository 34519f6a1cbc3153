"""Experiment engine: training, closed-loop trials, batches, grid sweeps.

Everything downstream of a config is deterministic: independent RNG streams
are derived from (seed, purpose tag, index), trials are paired across control
policies and grid cells (same initial conditions and disturbances), and
aggregation is an ordered reduction, so rerunning a config reproduces results
bit for bit.

Training is the linear dual EnKF on a linear design model (the heat operator,
the Burgers linearization nu D2 or the DMDc reduced model), always
disturbance-free; a single learned gain is reused across every disturbance
level of a sweep.

Closed-loop trials run batched, through one entry point.  Every verb
states its trials as a list of :class:`Case` (``batch``: the three
policies, ``grid``: one robust case per cell), and
:func:`simulate_closed_loop` runs them as one (batch, p) stack of plant
states, one RK4 step per time step (for the heat plant, an elementwise step
in the closed-form eigenbasis of its operator, from
:func:`pde.rk4_stepper`).  A block of the stack is what its rows read: the
law group (no law, the feedback block alone, or the whole law compiled into
one matrix), the disturbance that reaches the plant and lambda in state
units, so cases that read the same are integrated once, whatever their
labels.  Each law group is a contiguous run of rows that does only its own
work.  ``batch`` keeps every step's L2 norms and masks a row whose state or
norm turns non-finite, reading inf from that step on, while the other rows
carry on; ``grid`` forms the norms after the last step alone and fails a
row whose first or last norm is non-finite.  They fail the same rows but a
row whose state stays finite while its norm overflows mid-run and comes
back below by the end: ``grid`` reads its finite ratio, ``batch`` inf.
Rows agree with a one-trajectory-at-a-time loop to rounding (matrix
products over the stack instead of matrix-vector ones), and a case's
result does not depend on where its block sits in the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dmdc as dmdc_mod
from .config import ExperimentConfig
from .controller import CompiledLaw, ControlLaw, RankDeficientError, compile_law
from .enkf import DivergenceError, GainApprox, run_dual_enkf_linear
from .pde import (
    BurgersSimulator,
    GridSpec,
    HeatSimulator,
    Simulator,
    l2_norm,
    rk4_stepper,
    sample_initial_conditions,
)

POLICIES = ("uncontrolled", "optimal", "robust")

_CHUNK_STEPS = 128  # trace rows per gather of a case's columns in simulate_closed_loop

# RNG purpose tags (first SeedSequence word after the master seed)
_TAG_ENKF = 0
_TAG_SNAPSHOTS = 1
_TAG_TRIALS = 2


class HarnessError(RuntimeError):
    pass


@dataclass
class Artifacts:
    """Everything trained/built once per config and shared across trials."""

    sim: Simulator  # full PDE simulator (plant)
    A: np.ndarray  # the linear design model dx/dt = A x + B u the gain is trained on
    B: np.ndarray  # and whose input matrix the law carries
    gain: GainApprox
    reduction: dmdc_mod.ReducedModel | None


def grid_of(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(p=cfg.p, L=cfg.L)


def build_full_simulator(cfg: ExperimentConfig) -> Simulator:
    grid = grid_of(cfg)
    if cfg.pde == "heat":
        return HeatSimulator(grid, cfg.nu, cfg.m, bc=cfg.bc)
    return BurgersSimulator(grid, cfg.nu, cfg.m, bc=cfg.bc)


def _rng(cfg: ExperimentConfig, *words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, *words]))


def _enkf_horizon(cfg: ExperimentConfig, A: np.ndarray) -> tuple[float, int]:
    """(T, n_steps) of the linear dual-EnKF run on A, which steps T / n_steps.

    T is ``[enkf] T``, else T_sim.  The step asked for is ``[enkf] dt``, else
    the smaller of dt_sim and 0.75 / |A|_2: the covariance recursion relaxes
    at up to twice the drift's spectral radius, so the explicit step is
    stable below 1 / |A|_2, and at 3/4 of that its bias stays first order
    (5.7e-4 on Burgers' nu D2), far below the gain's sampling error.  n_steps
    is the fewest steps no longer than that, up to a relative 1e-9, so a
    T / dt that rounding leaves just above a whole number takes that number.
    |A|_2 takes singular values only, for the heat operator and a fit alike.
    """
    a_max = float(np.linalg.norm(A, 2))
    T = cfg.enkf_T if cfg.enkf_T is not None else cfg.T_sim
    dt = cfg.enkf_dt if cfg.enkf_dt is not None else min(cfg.dt_sim, 0.75 / a_max if a_max > 0 else cfg.dt_sim)
    return T, max(1, math.ceil(T / dt * (1.0 - 1e-9)))


def fit_reduction(cfg: ExperimentConfig, sim: Simulator) -> dmdc_mod.ReducedModel:
    """The reduced model of this config: excited trajectories, the DMDc fit, continuous time.

    The fit draws the trajectories' steps from the collection as it folds them
    in, so no snapshot buffer is held: memory is one step's slabs and the
    fit's work array, whatever the trajectory and step counts.
    """
    snapshots = dmdc_mod.collect_snapshots(
        sim,
        grid_of(cfg),
        n_traj=cfg.dmdc_trajectories,
        steps=cfg.dmdc_steps,
        dt=cfg.dt_sim,
        amplitude=cfg.dmdc_amplitude,
        rng=_rng(cfg, _TAG_SNAPSHOTS),
    )
    try:
        A_d, B_d, Phi = dmdc_mod.fit_dmdc(snapshots, cfg.dmdc_order)
        return dmdc_mod.to_continuous(A_d, B_d, Phi, cfg.dt_sim)
    except dmdc_mod.FitError as exc:
        raise dmdc_mod.FitError(f"{exc}; lower [dmdc] order = {cfg.dmdc_order}, or raise [dmdc] trajectories = "
                                f"{cfg.dmdc_trajectories} or [dmdc] steps = {cfg.dmdc_steps}") from None
    except dmdc_mod.ConversionError as exc:
        raise dmdc_mod.ConversionError(f"{exc}; try a smaller [experiment] dt_sim = {cfg.dt_sim!r} "
                                       f"or another [dmdc] order = {cfg.dmdc_order}") from None


def _check_reduction(cfg: ExperimentConfig, reduction: dmdc_mod.ReducedModel) -> None:
    """A supplied reduced model must be the fit of this config."""
    if cfg.model != "dmdc":
        raise HarnessError(
            f"a reduced model was supplied with model={cfg.model}; "
            "pass --model dmdc to use it, or drop --reduced-model"
        )
    for key, fitted, configured in (("p", reduction.p, cfg.p), ("m", reduction.m, cfg.m),
                                    ("dmdc order", reduction.n, cfg.dmdc_order)):
        if fitted != configured:
            raise HarnessError(
                f"reduced model has {key}={fitted}, the config {key}={configured}; "
                f"run with {key}={fitted}, or refit the reduced model with fit-dmdc"
            )


def build_artifacts(
    cfg: ExperimentConfig,
    gain: GainApprox | None = None,
    reduction: dmdc_mod.ReducedModel | None = None,
) -> Artifacts:
    """Assemble the plant and the design model, fitting and training whatever was not supplied.

    The design model is the reduction's (A, B), else the plant's Jacobian at
    the origin, nu D2 with the plant's B: for heat, the plant itself.  The
    gain is trained by the linear dual EnKF on that (A, B).
    """
    sim = build_full_simulator(cfg)
    if reduction is not None:
        _check_reduction(cfg, reduction)
    elif cfg.model == "dmdc":
        if gain is not None:
            raise HarnessError("a gain on model=dmdc needs the reduced model it was trained on; pass "
                               "--reduced-model, or drop --gain so the run fits and trains its own")
        reduction = fit_reduction(cfg, sim)
    A, B = (sim.A, sim.control_matrix) if reduction is None else (reduction.A, reduction.B)
    if gain is None:
        T, n_steps = _enkf_horizon(cfg, A)
        try:
            gain = run_dual_enkf_linear(A, B, cfg.q, cfg.r_input, cfg.g, cfg.enkf_particles, T, n_steps,
                                        _rng(cfg, _TAG_ENKF))
        except DivergenceError as exc:
            raise DivergenceError(exc.t, f"the chain stepped {T / n_steps:.2g} ([enkf] dt = "
                                  f"{cfg.enkf_dt or 'auto'}); set [enkf] dt at or below the stable step "
                                  f"0.75/|A|_2 = {0.75 / np.linalg.norm(A, 2):.2g}") from None
    elif gain.n != len(A):
        raise HarnessError(f"gain dimension {gain.n} does not match design dimension {len(A)}; run with the "
                           "settings the gain was trained with (a dmdc gain: --model dmdc --reduced-model), "
                           "or retrain it with train")
    return Artifacts(sim=sim, A=A, B=B, gain=gain, reduction=reduction)


def _channel_weights(cfg: ExperimentConfig) -> np.ndarray:
    """The disturbance's weights w on the control channels: ``cfg.channel``, else all ones."""
    return np.ones(cfg.m) if cfg.channel is None else np.asarray(cfg.channel, dtype=float)


def _lambda_scale(cfg: ExperimentConfig, art: Artifacts) -> float:
    """The factor that takes a lambda quoted in ``cfg.lambda_units`` to the state-space bound.

    With ``lambda_units = amplitude`` (default), lambda is quoted in the same
    per-channel units as the disturbance amplitude d0: the disturbance d0*w
    enters the state equation as B (d0 w), so the bound scales by |B w|.
    With ``state`` the factor is 1, and lambda * 1 is lambda's own bits.
    """
    if cfg.lambda_units != "amplitude":
        return 1.0
    return float(np.linalg.norm(art.B @ _channel_weights(cfg)))


def build_law(cfg: ExperimentConfig, art: Artifacts) -> ControlLaw:
    """The law of the trained gain and the design B; lambda is given later, and compiling it checks B's rank."""
    return ControlLaw(art.gain, art.B, cfg.r_input, cfg.r_robust, art.reduction)


def _compile_law(cfg: ExperimentConfig, art: Artifacts, Q: np.ndarray | None) -> CompiledLaw:
    """The law compiled on y = z Q; a rank-deficient B of a reduced model names the refit that fixes it."""
    try:
        return compile_law(build_law(cfg, art), Q)
    except RankDeficientError as exc:
        if art.reduction is None:
            raise
        raise RankDeficientError(f"{exc}; refit the reduced model with fit-dmdc at "
                                 f"[dmdc] order >= [experiment] m = {cfg.m} (now {cfg.dmdc_order})") from None


def trial_initial_condition(cfg: ExperimentConfig, trial: int) -> np.ndarray:
    """Initial condition for a trial index; shared across policies by design."""
    return sample_initial_conditions([_rng(cfg, _TAG_TRIALS, trial)], grid_of(cfg))[0]


@dataclass(frozen=True)
class Case:
    """One block of paired trials: a policy under one disturbance and lambda."""

    policy: str
    kind: str
    d0: float
    lam: float


@dataclass
class CaseResult:
    """Per-trial terminal ratios, their mean and failure count, plus, for ``batch``, the pointwise
    mean/variance of the case's L2 traces; ``grid``'s ratio-only run keeps two norms a row and leaves them None."""

    case: Case
    t: np.ndarray
    mean: np.ndarray | None
    variance: np.ndarray | None
    ratios: np.ndarray
    failures: int
    mean_terminal_ratio: float


def policy_cases(cfg: ExperimentConfig) -> list[Case]:
    """The three named policies under the configured disturbance."""
    return [
        Case(p, cfg.dist_kind, cfg.d0, cfg.lam if p == "robust" else 0.0) for p in POLICIES
    ]


def grid_cases(cfg: ExperimentConfig) -> list[Case]:
    """One robust case per (kind, d0, lambda) cell of the configured grid."""
    return [
        Case("robust", kind, d0, lam)
        for kind in cfg.grid_kinds for d0 in cfg.grid_d0 for lam in cfg.grid_lambda
    ]


def _case_moments(trace: np.ndarray, columns) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and variance over the given columns of a time-major trace.

    Each chunk of steps is gathered into a C-ordered (trials, steps) block,
    whose axis-0 mean and variance add the trials in order, as they do over
    the whole (trials, n_steps + 1) block.  Every chunk is at least two
    steps wide: a one-step block would be summed pairwise.  A whole case
    gathered at once would hold its block and the variance's deviations on
    top of the trace: with ``batch``'s three cases, 3/4 of a second one.
    """
    n = len(trace)
    mean, variance = np.empty(n), np.empty(n)
    bounds = [*range(0, n - 1, _CHUNK_STEPS), n]
    for start, stop in zip(bounds, bounds[1:]):
        block = np.ascontiguousarray(trace[start:stop].T[columns])
        mean[start:stop] = block.mean(axis=0)
        with np.errstate(invalid="ignore"):  # inf - inf in a blown-up column
            variance[start:stop] = block.var(axis=0)
    return mean, variance


def simulate_closed_loop(
    cfg: ExperimentConfig, art: Artifacts, cases: list[Case], n_trials: int, traces: bool = True
) -> list[CaseResult]:
    """Trials 0..n_trials-1 of every case, paired across cases, as one stack, with U(t) = u(t) + d(t).

    Training happened once (disturbance-free), so every case shares the gain.
    A row is disturbed by d(t) = d0 shape(kind, t) w on every control channel
    (w the configured channel weights, shape sin(t), 1 or 0), zero-order
    hold.  A case is keyed on what its rows read, (group, d0 [kind = sin]
    [w != 0], d0 [kind = const] [w != 0], lambda in state units), the group
    being none | feedback (u = -y K, H's feedback columns) | the whole
    one-matrix law, and lambda (times :func:`_lambda_scale`, formed once) 0
    outside the last.
    Cases with equal keys, whatever their labels, are twins of one block and
    share its ratios, failures, mean ratio and moments, each reduced once a
    block.  Blocks are ordered by group, first seen first within each, and
    hold the trials' initial conditions in trial order, so a case's rows are
    contiguous.

    The whole stack advances in place with one RK4 step a time step, the
    control recomputed each step: every view and buffer (the law's work
    array, :meth:`controller.CompiledLaw.bind`, the step's ``u NQ`` and the
    buffers the step owns) is made once, so a step gathers, scatters and
    allocates no rows, and sin(t_k) is evaluated once for all steps.  The
    disturbance's d0 and w are held at U's shape, as numpy runs a product
    broadcast along rows one inner loop a row; the bits are the same.  The
    heat plant is carried as y = z Q in the closed-form eigenbasis of its A
    (:func:`pde.rk4_stepper`), with the law in that basis and the L2 norm,
    which Q preserves, read off y.

    With ``traces`` (``batch``) every step's L2 norms are kept in one
    time-major trace, and a case's mean and variance read its columns
    _CHUNK_STEPS steps at a time, so the trace is held once.  A step keeps
    the squared norms sum_i y_i^2 alone, and sqrt(. dy) finishes them once
    at the end.  A row whose state or L2 norm turns non-finite is a failed
    trial: its norm and terminal ratio read inf from that step on, it is
    frozen at zero, and the others go on.  A norm is finite exactly when its
    squared norm times dy is, so the test reads max(sq) dy, which is also
    non-finite when dy > 1 takes a finite sq past the largest float.
    Without (``grid``) a step forms no norm, and a row fails when its first
    or last norm is non-finite.  Each step works on one row at a time (the
    law's GEMM, the eigenbasis step, the Burgers stencil) and inf and NaN
    are absorbing, so a failed row touches no other and fails every row the
    per-step test fails, but one whose state stays finite while its squared
    norm overflows mid-run (above about 1.3e154) and comes back below by the
    end: it reads its finite ratio, as ``bench/checks.py``'s reference does.
    """
    w, scale = _channel_weights(cfg), _lambda_scale(cfg, art)
    keys = []
    for c in cases:  # the key above: what the case's rows read
        on = c.policy != "uncontrolled"
        lam_c, d0_c = c.lam * scale * on, c.d0 * bool(w.any())
        keys.append((on + (lam_c > 0), d0_c * (c.kind == "sin"), d0_c * (c.kind == "const"), lam_c))
    blocks = sorted(dict.fromkeys(keys), key=lambda key: key[0])  # first-seen order within each group
    index = {key: j for j, key in enumerate(blocks)}
    group, d_sin, d_const, lam = (np.repeat(col, n_trials) for col in zip(*blocks))
    batch = len(lam)
    a, b = np.searchsorted(group, [1, 2])  # rows [a, b): the feedback group
    grid = grid_of(cfg)
    streams = [_rng(cfg, _TAG_TRIALS, i) for i in range(n_trials)]  # as trial_initial_condition
    Z = np.tile(sample_initial_conditions(streams, grid), (len(blocks), 1))
    Q, step = rk4_stepper(art.sim, cfg.dt_sim)
    Y = Z if Q is None else Z @ Q  # the loop carries y = z Q, and |y| = |z|
    U = np.empty((batch, cfg.m))
    sin_rows, const_rows, weights = (np.ascontiguousarray(np.broadcast_to(v, U.shape))
                                     for v in (d_sin[:, None], d_const[:, None], w))
    law = _compile_law(cfg, art, Q) if a < batch else None  # no controlled rows: no law, no rank check
    controls = [law.bind(Y[rows], lam[rows], U[rows])
                for rows in (slice(a, b), slice(b, batch)) if rows.start < rows.stop]

    dy = grid.dy
    n_steps = max(1, int(round(cfg.T_sim / cfg.dt_sim)))
    t = np.arange(n_steps + 1) * cfg.dt_sim
    sines = np.sin(t[:-1])
    work = None if Q is None else np.empty_like(Y)  # u NQ of the eigenbasis step
    first = l2_norm(Y, grid)
    trace = np.empty((n_steps + 1, batch)) if traces else None  # step k's norms are one contiguous row
    sq = np.empty(batch)  # the squared norms: a step's row of the trace, else the last ones
    failed, any_failed = np.zeros(batch, dtype=bool), False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            np.multiply(sin_rows, sines[k], out=U)
            U += const_rows
            U *= weights
            for control in controls:
                control()
            step(Y, U, Y, work)
            if traces:
                sq = trace[k + 1]
                np.einsum("...i,...i->...", Y, Y, out=sq)  # non-finite for a non-finite state too
                if any_failed or not math.isfinite(sq.max() * dy):  # max propagates NaN
                    failed |= ~np.isfinite(sq * dy)
                    sq[failed] = np.inf
                    Y[failed] = 0.0
                    any_failed = True
        norms = trace[1:] if traces else np.einsum("...i,...i->...", Y, Y, out=sq)  # sq: the trace's last row
        np.sqrt(np.multiply(norms, dy, out=norms), out=norms)
        if not traces:
            failed = ~np.isfinite(first) | ~np.isfinite(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(failed | (first == 0), np.inf, sq / first)  # sq: the last norms, finished
    if traces:
        trace[0] = first
    per_block = (len(blocks), n_trials)  # a block's rows are contiguous: one reduction each, shared by twins
    failures = failed.reshape(per_block).sum(axis=1).tolist()
    means = ratios.reshape(per_block).mean(axis=1).tolist()
    results = []
    for case, key in zip(cases, keys):
        j = index[key]
        rows = slice(j * n_trials, (j + 1) * n_trials)
        mean, variance = _case_moments(trace, rows) if traces else (None, None)
        results.append(CaseResult(case, t, mean, variance, ratios[rows], failures[j], means[j]))
    return results
