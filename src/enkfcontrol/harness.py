"""Experiment engine: training, closed-loop trials, batches, grid sweeps.

Everything downstream of a config is deterministic: independent RNG streams
are derived from (seed, purpose tag, index), trials are paired across control
policies and grid cells (same initial conditions and disturbances), and
aggregation is an ordered reduction, so rerunning a config reproduces results
bit for bit.

Training is the linear dual EnKF on a linear design model (the heat operator
or the DMDc reduced model), always disturbance-free; a single learned gain is
reused across every disturbance level of a sweep.

Closed-loop trials run batched: :func:`simulate_closed_loop` advances a
(batch, p) stack of plant states with one RK4 step per time step, each row
carrying its own lambda, disturbance and controlled flag.  Every verb states
its trials as a list of :class:`Case` (``batch``: the three policies,
``grid``: one robust case per cell, ``simulate``: one case of one trial) and
:func:`run_cases` runs the distinct cases x trials as one stack.  The control
law is compiled once into matrices (:func:`controller.compile_law`) and serves
every row.  A row whose state or L2 norm turns non-finite is masked, reading
inf from that step on, while the other rows carry on.  Rows agree with a
one-trajectory-at-a-time loop to rounding (matrix products over the stack
instead of matrix-vector ones).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dmdc as dmdc_mod
from .config import ExperimentConfig
from .controller import ControlLaw, RobustConfig, Weights, compile_law
from .enkf import EnkfConfig, GainApprox, run_dual_enkf_linear
from .pde import (
    BurgersSimulator,
    GridSpec,
    HeatSimulator,
    LinearSimulator,
    Simulator,
    l2_norm,
    rk4_step,
    sample_initial_condition,
)

POLICIES = ("uncontrolled", "optimal", "robust")

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
    design_sim: Simulator  # simulator the control law evaluates against
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


def _enkf_horizon(cfg: ExperimentConfig, A: np.ndarray) -> tuple[float, float]:
    """(T, dt) for a linear dual-EnKF run, respecting explicit overrides.

    The covariance recursion relaxes at up to twice the drift's spectral
    radius; the explicit step must resolve that rate.
    """
    a_max = float(np.linalg.norm(A, 2))
    dt_stable = 0.5 / (2.0 * a_max) if a_max > 0 else cfg.dt_sim
    T = cfg.enkf_T if cfg.enkf_T is not None else cfg.T_sim
    dt = cfg.enkf_dt if cfg.enkf_dt is not None else min(cfg.dt_sim, dt_stable)
    return T, min(dt, T)


def fit_reduction(cfg: ExperimentConfig, sim: Simulator) -> dmdc_mod.ReducedModel:
    """Collect excited snapshots from the full simulator and fit DMDc."""
    grid = grid_of(cfg)
    data = dmdc_mod.collect_snapshots(
        sim,
        lambda rng: sample_initial_condition(rng, grid),
        n_traj=cfg.dmdc_trajectories,
        steps=cfg.dmdc_steps,
        dt=cfg.dt_sim,
        amplitude=cfg.dmdc_amplitude,
        rng=_rng(cfg, _TAG_SNAPSHOTS),
    )
    model = dmdc_mod.fit_dmdc(data, cfg.dmdc_order)
    return dmdc_mod.to_continuous(model)


def _train_gain(cfg: ExperimentConfig, design_sim: Simulator) -> GainApprox:
    """Run the linear dual EnKF on the design model's A and B.

    The design model is linear: the full heat operator, which is LTI, or the
    fitted reduced model for ``model=dmdc``.  The full Burgers state has no
    linear model to train on, so it fails before any ensemble step.
    """
    if not isinstance(design_sim, LinearSimulator):
        raise HarnessError(
            f"no linear design model to train a gain on for pde={cfg.pde}, model={cfg.model}; "
            "train on the reduced model with --model dmdc, or supply a trained gain with --gain"
        )
    T, dt = _enkf_horizon(cfg, design_sim.A)
    enkf_cfg = EnkfConfig(N=cfg.enkf_particles, T=T, dt=dt, S_T=np.eye(design_sim.n) / cfg.g)
    C = np.sqrt(cfg.q) * np.eye(design_sim.n)
    R = cfg.r_input * np.eye(cfg.m)
    return run_dual_enkf_linear(
        design_sim.A, design_sim.control_matrix, C, R, enkf_cfg, _rng(cfg, _TAG_ENKF)
    )


def build_artifacts(
    cfg: ExperimentConfig,
    gain: GainApprox | None = None,
    reduction: dmdc_mod.ReducedModel | None = None,
) -> Artifacts:
    """Assemble the simulators, fitting and training whatever was not supplied."""
    sim = build_full_simulator(cfg)
    if cfg.model == "dmdc":
        if reduction is None:
            if gain is not None:
                raise HarnessError("dmdc model path needs a reduced model with the gain")
            reduction = fit_reduction(cfg, sim)
        elif reduction.discrete:
            raise HarnessError(
                "reduced model is the discrete-time fit (discrete=1); "
                "pass the continuous-time bundle that fit-dmdc writes"
            )
        design_sim = LinearSimulator(reduction.A, reduction.B)
    else:
        design_sim, reduction = sim, None
    if gain is None:
        gain = _train_gain(cfg, design_sim)
    elif gain.n != design_sim.n:
        raise HarnessError(f"gain dimension {gain.n} does not match design dimension {design_sim.n}")
    return Artifacts(sim=sim, design_sim=design_sim, gain=gain, reduction=reduction)


def _lambda_state(cfg: ExperimentConfig, art: Artifacts, lam: float) -> float:
    """The state-space bound for a lambda quoted in ``cfg.lambda_units``.

    With ``lambda_units = amplitude`` (default), lambda is quoted in the same
    per-channel units as the disturbance amplitude d0: the disturbance d0*w
    enters the state equation as B (d0 w), so the bound scales by |B w|.
    """
    if cfg.lambda_units != "amplitude" or lam == 0:
        return float(lam)
    w = np.ones(cfg.m) if cfg.channel is None else np.asarray(cfg.channel, dtype=float)
    return lam * float(np.linalg.norm(art.design_sim.control_matrix @ w))


def build_law(cfg: ExperimentConfig, art: Artifacts, lam: float) -> ControlLaw:
    """Control law for a given robust gain lambda (see :func:`_lambda_state`)."""
    weights = Weights(R=cfg.r_input * np.eye(cfg.m), Q=cfg.q * np.eye(art.gain.n))
    return ControlLaw(
        gain=art.gain,
        weights=weights,
        robust=RobustConfig(lam=_lambda_state(cfg, art, lam), r=cfg.r_robust),
        b_access="known" if cfg.b_access == "auto" else cfg.b_access,
        reduction=art.reduction,
    )


def _feedback(cfg: ExperimentConfig, art: Artifacts, lam: np.ndarray):
    """Z -> controls of the rows of Z, row i under lambda lam[i]."""
    compiled = compile_law(build_law(cfg, art, 0.0), art.design_sim)
    by_lam = {v: _lambda_state(cfg, art, v) for v in set(lam.tolist())}
    lam_state = np.array([by_lam[v] for v in lam.tolist()])
    return lambda Z: compiled(Z, lam_state)


@dataclass
class Rollout:
    """L2-norm traces of a stack of closed-loop trajectories, one row each."""

    t: np.ndarray
    l2: np.ndarray  # (batch, n_steps + 1)
    ratios: np.ndarray
    failed: np.ndarray  # bool per row


def simulate_closed_loop(
    cfg: ExperimentConfig,
    art: Artifacts,
    Z0: np.ndarray,
    lam,
    kinds,
    d0,
    controlled,
) -> Rollout:
    """Integrate a stack of plant states with U(t) = u(t) + d(t), zero-order hold.

    Row i starts at Z0[i], is disturbed by d(t) = d0[i] shape(kinds[i], t) w
    on every control channel (w the configured channel weights, shape sin(t),
    1 or 0) and, if controlled[i], feeds back the law with lambda lam[i].
    A scalar lam, kinds, d0 or controlled applies to every row.
    The control is recomputed every step and the whole stack advances with
    one RK4 step.  A row whose state or L2 norm turns non-finite is a failed
    trial: its trace and terminal ratio read inf from that step on, it is
    frozen at zero, and the other rows carry on.
    """
    Z = np.array(Z0, dtype=float, ndmin=2)
    batch = Z.shape[0]
    lam, d0 = (np.broadcast_to(np.asarray(v, dtype=float), batch) for v in (lam, d0))
    controlled = np.broadcast_to(np.asarray(controlled, dtype=bool), batch)
    kinds = np.broadcast_to(np.asarray(kinds), batch)
    if not set(kinds.tolist()) <= {"sin", "const", "none"}:
        raise HarnessError(f"unknown disturbance kind in {sorted(set(kinds.tolist()))}")
    if np.any(d0 < 0) or np.any(lam < 0):
        raise HarnessError("d0 and lambda must be nonnegative")
    w = np.ones(cfg.m) if cfg.channel is None else np.asarray(cfg.channel, dtype=float)
    rows = np.flatnonzero(controlled)
    feedback = _feedback(cfg, art, lam[rows]) if rows.size else None
    is_sin, is_const = kinds == "sin", kinds == "const"

    grid = grid_of(cfg)
    n_steps = max(1, int(round(cfg.T_sim / cfg.dt_sim)))
    t = np.arange(n_steps + 1) * cfg.dt_sim
    l2 = np.empty((batch, n_steps + 1))
    l2[:, 0] = l2_norm(Z, grid)
    failed = np.zeros(batch, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            shape = np.where(is_sin, np.sin(t[k]), np.where(is_const, 1.0, 0.0))
            U = (d0 * shape)[:, None] * w
            if feedback is not None:
                U[rows] = feedback(Z[rows]) + U[rows]
            Z = rk4_step(art.sim, Z, U, cfg.dt_sim)
            norms = l2_norm(Z, grid)  # non-finite for a non-finite state too
            failed |= ~np.isfinite(norms)
            Z[failed] = 0.0
            l2[:, k + 1] = np.where(failed, np.inf, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(failed | (l2[:, 0] == 0), np.inf, l2[:, -1] / l2[:, 0])
    return Rollout(t=t, l2=l2, ratios=ratios, failed=failed)


def trial_initial_condition(cfg: ExperimentConfig, trial: int) -> np.ndarray:
    """Initial condition for a trial index; shared across policies by design."""
    return sample_initial_condition(_rng(cfg, _TAG_TRIALS, trial), grid_of(cfg))


@dataclass(frozen=True)
class Case:
    """One block of paired trials: a policy under one disturbance and lambda."""

    policy: str
    kind: str
    d0: float
    lam: float


@dataclass
class CaseResult:
    """Pointwise mean/variance of a case's L2 traces plus per-trial terminal ratios."""

    case: Case
    t: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
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
    cases = [
        Case("robust", kind, d0, lam)
        for kind in cfg.grid_kinds for d0 in cfg.grid_d0 for lam in cfg.grid_lambda
    ]
    if not cases:
        raise HarnessError("grid lists must be nonempty")
    return cases


def run_cases(
    cfg: ExperimentConfig, art: Artifacts, cases: list[Case], n_trials: int
) -> list[CaseResult]:
    """Trials 0..n_trials-1 of every case, paired across cases, as one stack.

    Training happened once (disturbance-free), so every case shares the gain.
    Cases whose trajectories coincide are integrated once: with d0 = 0 the
    disturbance kind has no effect, so each distinct (controlled, kind, d0,
    lambda) block, kind read as "none" when d0 = 0, is one block of the stack
    and its twins share its traces, ratios and failures.
    """
    keys = [(c.policy != "uncontrolled", c.kind if c.d0 else "none", c.d0, c.lam) for c in cases]
    block_of = {key: j for j, key in enumerate(dict.fromkeys(keys))}
    controlled, kinds, d0, lam = (np.repeat(col, n_trials) for col in zip(*block_of))
    Z0 = np.array([trial_initial_condition(cfg, i) for i in range(n_trials)])
    roll = simulate_closed_loop(
        cfg, art, np.tile(Z0, (len(block_of), 1)),
        lam=lam, kinds=kinds, d0=d0, controlled=controlled,
    )
    results = []
    for case, key in zip(cases, keys):
        j = block_of[key]
        rows = slice(j * n_trials, (j + 1) * n_trials)
        traces = roll.l2[rows]
        with np.errstate(invalid="ignore"):  # inf - inf in a blown-up column
            variance = traces.var(axis=0)
        results.append(CaseResult(
            case=case, t=roll.t, mean=traces.mean(axis=0), variance=variance,
            ratios=roll.ratios[rows], failures=int(np.sum(roll.failed[rows])),
        ))
    return results
