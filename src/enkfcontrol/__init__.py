"""Data-driven robust stabilization of discretized PDEs.

Core pieces: native heat/Burgers finite-difference simulators, a linear
dual ensemble Kalman filter that learns the optimal-control gain on a linear
design model (the heat operator, or a DMDc reduced model fitted from
simulator rollouts), a Lyapunov-redesign robustification term for matched
disturbances, and Riccati reference solvers for validation.
"""

from .config import ExperimentConfig, burgers_config, default_config, heat_config
from .controller import (
    CompiledLaw,
    ControlLaw,
    compile_law,
    estimate_b,
    input_matrix,
    minimize_hamiltonian,
    robust_control,
    robust_term,
)
from .dmdc import (
    ReducedModel,
    SnapshotData,
    collect_snapshots,
    fit_dmdc,
    reduce_state,
    to_continuous,
)
from .enkf import EnkfConfig, GainApprox, run_dual_enkf_linear, step_linear
from .harness import (
    Artifacts,
    Case,
    CaseResult,
    Rollout,
    build_artifacts,
    build_law,
    grid_cases,
    policy_cases,
    run_cases,
    simulate_closed_loop,
)
from .pde import (
    BurgersSimulator,
    GridSpec,
    HeatSimulator,
    LinearSimulator,
    Simulator,
    build_control_matrix,
    burgers_rhs,
    l2_norm,
    sample_initial_condition,
)
from .riccati import LtiSystem, lqr_gain, solve_are, solve_dre, validate_system

__version__ = "0.1.0"
