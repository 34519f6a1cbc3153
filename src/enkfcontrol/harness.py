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

Closed-loop trials run batched: :func:`simulate_closed_loop` advances a
(batch, p) stack of plant states with one RK4 step per time step (for the
heat plant, an elementwise step in the closed-form eigenbasis of its
operator, from :func:`pde.rk4_stepper`), each row carrying its own lambda,
disturbance and controlled flag.  Every verb states its trials as a list of
:class:`Case` (``batch``: the three policies, ``grid``: one robust case per
cell, ``simulate``: one case of one trial) and :func:`run_cases` runs the
distinct cases x trials as one stack, keeping what the verb writes:
``batch`` and ``simulate`` every step's L2 norms, one time-major trace that
:func:`run_cases` reads each case's rows from for ``timeseries.csv``, and
``grid``, which writes ratios alone, two norms per row (the first and the
current one).  A step keeps squared norms, sum_i z_i^2; they are finished
into sqrt(. dy) once, after the last step.  The control law is compiled
once into one matrix (:func:`controller.compile_law`).  The loop groups the
rows once as uncontrolled | lambda = 0 | lambda > 0, so each group does only
the work it reads: no law, the feedback block alone (an m-column GEMM), or
the whole law (one GEMM); it then steps the stack in place, into buffers
the rollout owns.  A row whose state or L2 norm turns non-finite is masked,
reading inf from that step on, while the other rows carry on.  Rows agree
with a one-trajectory-at-a-time loop to rounding (matrix products over the
stack instead of matrix-vector ones), and a row's result does not depend on
where it sits in the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dmdc as dmdc_mod
from .config import ExperimentConfig
from .controller import ControlLaw, compile_law, input_matrix
from .enkf import GainApprox, run_dual_enkf_linear
from .pde import (
    BurgersSimulator,
    GridSpec,
    HeatSimulator,
    Simulator,
    l2_norm,
    rk4_stepper,
    sample_initial_conditions,
    second_difference_matrix,
)

POLICIES = ("uncontrolled", "optimal", "robust")

_CHUNK_STEPS = 128  # trace rows per gather of a case's columns in run_cases

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
    the smaller of dt_sim and 0.5 / (2 |A|_2): the covariance recursion
    relaxes at up to twice the drift's spectral radius, and the explicit
    step must resolve that rate.  n_steps is the fewest steps no longer than
    that, up to a relative 1e-9, so a T / dt that rounding leaves just above
    a whole number takes that number.  |A|_2 takes singular values only,
    one rule for the symmetric heat operator and a DMDc fit alike.
    """
    a_max = float(np.linalg.norm(A, 2))
    dt_stable = 0.5 / (2.0 * a_max) if a_max > 0 else cfg.dt_sim
    T = cfg.enkf_T if cfg.enkf_T is not None else cfg.T_sim
    dt = cfg.enkf_dt if cfg.enkf_dt is not None else min(cfg.dt_sim, dt_stable)
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
    A, B = ((cfg.nu * second_difference_matrix(grid_of(cfg), cfg.bc), sim.control_matrix) if reduction is None
            else (reduction.A, reduction.B))
    if gain is None:
        T, n_steps = _enkf_horizon(cfg, A)
        gain = run_dual_enkf_linear(A, B, cfg.q, cfg.r_input, cfg.g, cfg.enkf_particles, T, n_steps,
                                    _rng(cfg, _TAG_ENKF))
    elif gain.n != len(A):
        raise HarnessError(f"gain dimension {gain.n} does not match design dimension {len(A)}; run with the "
                           "settings the gain was trained with (a dmdc gain: --model dmdc --reduced-model), "
                           "or retrain it with train")
    return Artifacts(sim=sim, A=A, B=B, gain=gain, reduction=reduction)


def _channel_weights(cfg: ExperimentConfig) -> np.ndarray:
    """The disturbance's weights w on the control channels: ``cfg.channel``, else all ones."""
    return np.ones(cfg.m) if cfg.channel is None else np.asarray(cfg.channel, dtype=float)


def _lambda_state(cfg: ExperimentConfig, art: Artifacts, lam):
    """The state-space bound for a lambda, or an array of them, quoted in ``cfg.lambda_units``.

    With ``lambda_units = amplitude`` (default), lambda is quoted in the same
    per-channel units as the disturbance amplitude d0: the disturbance d0*w
    enters the state equation as B (d0 w), so the bound scales by |B w|.
    """
    if cfg.lambda_units != "amplitude":
        return lam
    return lam * float(np.linalg.norm(art.B @ _channel_weights(cfg)))


def build_law(cfg: ExperimentConfig, art: Artifacts) -> ControlLaw:
    """The law of the trained gain and the design B, checked for full column rank; lambda is given later."""
    return ControlLaw(art.gain, input_matrix(art.B), cfg.r_input, cfg.r_robust, art.reduction)


@dataclass
class Rollout:
    """Terminal ratios, failures and, for ``batch`` and ``simulate``, L2 traces of a stack, one row each."""

    t: np.ndarray
    trace: np.ndarray | None  # (n_steps + 1, batch) L2 norms, time-major; None in a ratio-only run (grid)
    column: np.ndarray  # row i's column of ``trace``
    ratios: np.ndarray
    failed: np.ndarray  # bool per row

    @property
    def l2(self) -> np.ndarray | None:
        """The L2 traces as (batch, n_steps + 1), one row each: a copy, or None in a ratio-only run."""
        return None if self.trace is None else self.trace[:, self.column].T


def simulate_closed_loop(
    cfg: ExperimentConfig,
    art: Artifacts,
    Z0: np.ndarray,
    lam,
    kinds,
    d0,
    controlled,
    traces: bool = True,
) -> Rollout:
    """Integrate a stack of plant states with U(t) = u(t) + d(t), zero-order hold.

    Row i starts at Z0[i], is disturbed by d(t) = d0[i] shape(kinds[i], t) w
    on every control channel (w the configured channel weights, shape sin(t),
    1 or 0) and, if controlled[i], feeds back the law with lambda lam[i].
    A scalar lam, kinds, d0 or controlled applies to every row.

    With ``traces`` (``batch``, ``simulate``) every step's L2 norms are kept
    as ``trace``, time-major, in the loop's row order; without (``grid``) a
    row keeps its first and current norm, all its terminal ratio reads, and
    the ratios and failures are the same.  A step keeps the squared norms
    sum_i y_i^2 alone, and sqrt(. dy) finishes them once at the end: over
    the trace, or over the last norms in a ratio-only run.

    One stable permutation sorts the rows into three contiguous groups,
    uncontrolled | controlled with lambda = 0 | lambda > 0, which take no
    law, the feedback block alone (u = -y K, H's feedback columns)
    and the whole one-matrix law; the results are put back in the caller's
    order at the end.  The control is recomputed every step and the whole
    stack advances with one RK4 step, in place: each group's views and the
    law's work array (:meth:`controller.CompiledLaw.bind`) and every buffer,
    the step's ``u NQ`` product among them, are made once and owned by the
    rollout, so a step gathers, scatters and allocates no rows, and sin(t_k)
    is evaluated once for all steps.  The heat plant is carried as y = z Q
    in the closed-form eigenbasis of its A (:func:`pde.rk4_stepper`), with
    the law in that basis and the L2 norm, which Q preserves, read off y.
    A row whose state or L2 norm turns non-finite is a failed trial: its
    norm and terminal ratio read inf from that step on, it is frozen at
    zero, and the others go on.  A norm is finite exactly when its squared
    norm times dy is, so the test reads max(sq) dy, which is also non-finite
    when dy > 1 takes a finite sq past the largest float.
    """
    Z = np.array(Z0, dtype=float, ndmin=2)
    batch = Z.shape[0]
    lam, d0 = (np.broadcast_to(np.asarray(v, dtype=float), batch) for v in (lam, d0))
    controlled = np.broadcast_to(np.asarray(controlled, dtype=bool), batch)
    kinds = np.broadcast_to(np.asarray(kinds), batch)
    lam = _lambda_state(cfg, art, lam)
    group = np.where(controlled, np.where(lam > 0, 2, 1), 0)
    order = np.argsort(group, kind="stable")
    a, b = np.searchsorted(group[order], [1, 2])  # rows [a, b) lambda = 0, [b, batch) lambda > 0
    Z, lam, d0, kinds = Z[order], lam[order], d0[order], kinds[order]
    w = _channel_weights(cfg)
    d_sin, d_const = d0 * (kinds == "sin"), d0 * (kinds == "const")
    Q, step = rk4_stepper(art.sim, cfg.dt_sim)
    Y = Z if Q is None else Z @ Q  # the loop carries y = z Q, and |y| = |z|
    shape, U = np.empty(batch), np.empty((batch, cfg.m))
    law = compile_law(build_law(cfg, art), Q) if a < batch else None  # no controlled rows: no law, no rank check
    controls = [law.bind(Y[rows], lam[rows], U[rows])
                for rows in (slice(a, b), slice(b, batch)) if rows.start < rows.stop]

    grid = grid_of(cfg)
    dy = grid.dy
    n_steps = max(1, int(round(cfg.T_sim / cfg.dt_sim)))
    t = np.arange(n_steps + 1) * cfg.dt_sim
    sines = np.sin(t[:-1])
    work = None if Q is None else np.empty_like(Y)  # u NQ of the eigenbasis step
    first = l2_norm(Y, grid)
    trace = np.empty((n_steps + 1, batch)) if traces else None  # step k's norms are one contiguous row
    sq = np.empty(batch)  # the current squared norms, a row of the trace if there is one
    failed, any_failed = np.zeros(batch, dtype=bool), False
    column = shape[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            np.multiply(d_sin, sines[k], out=shape)
            shape += d_const
            np.multiply(column, w, out=U)
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
        norms = trace[1:] if traces else sq  # sq is the trace's last row if there is one
        np.sqrt(np.multiply(norms, dy, out=norms), out=norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(failed | (first == 0), np.inf, sq / first)  # sq: the last norms, finished
    if traces:
        trace[0] = first
    inverse = np.argsort(order)
    return Rollout(t=t, trace=trace, column=inverse, ratios=ratios[inverse], failed=failed[inverse])


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
    """Per-trial terminal ratios plus, for ``batch`` and ``simulate``, the pointwise mean/variance
    of the case's L2 traces; ``grid``'s ratio-only run keeps two norms a row and leaves them None."""

    case: Case
    t: np.ndarray
    mean: np.ndarray | None
    variance: np.ndarray | None
    ratios: np.ndarray
    failures: int

    @property
    def mean_terminal_ratio(self) -> float:
        return float(np.mean(self.ratios))


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


def _case_moments(trace: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def run_cases(
    cfg: ExperimentConfig, art: Artifacts, cases: list[Case], n_trials: int, traces: bool = True
) -> list[CaseResult]:
    """Trials 0..n_trials-1 of every case, paired across cases, as one stack.

    Training happened once (disturbance-free), so every case shares the gain.
    Cases whose trajectories coincide are integrated once: with d0 = 0 the
    disturbance kind has no effect, so each distinct (controlled, kind, d0,
    lambda) block, kind read as "none" when d0 = 0, is one block of the stack
    and its twins share its traces, ratios and failures.  ``traces`` is as
    in :func:`simulate_closed_loop`; a case's mean and variance read its
    columns of the time-major trace, _CHUNK_STEPS steps at a time, so the
    trace is held once.
    """
    keys = [(c.policy != "uncontrolled", c.kind if c.d0 else "none", c.d0, c.lam) for c in cases]
    block_of = {key: j for j, key in enumerate(dict.fromkeys(keys))}
    controlled, kinds, d0, lam = (np.repeat(col, n_trials) for col in zip(*block_of))
    streams = [_rng(cfg, _TAG_TRIALS, i) for i in range(n_trials)]  # as trial_initial_condition
    Z0 = sample_initial_conditions(streams, grid_of(cfg))
    roll = simulate_closed_loop(
        cfg, art, np.tile(Z0, (len(block_of), 1)),
        lam=lam, kinds=kinds, d0=d0, controlled=controlled, traces=traces,
    )
    results = []
    for case, key in zip(cases, keys):
        j = block_of[key]
        rows = slice(j * n_trials, (j + 1) * n_trials)
        mean = variance = None
        if traces:
            mean, variance = _case_moments(roll.trace, roll.column[rows])
        results.append(CaseResult(
            case=case, t=roll.t, mean=mean, variance=variance,
            ratios=roll.ratios[rows], failures=int(np.sum(roll.failed[rows])),
        ))
    return results
