"""Command-line interface.

Verbs: train, fit-dmdc, simulate, batch, grid, oracle.  Resolution order for
settings: the defaults of the PDE (--pde if given, else the file's), then
--config file values, then explicit flags.
Every verb that writes files also writes config.echo, which can be passed
back via --config to reproduce the run byte for byte.

Exit codes: 0 on success, 1 on runtime errors (one-line ``error: ...`` on
stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import bundles
from .config import (
    ConfigError,
    DISTURBANCE_KINDS,
    MODEL_PATHS,
    PDE_KINDS,
    ExperimentConfig,
    default_config,
    load_config,
)
from .harness import (
    POLICIES,
    Artifacts,
    build_artifacts,
    build_full_simulator,
    fit_reduction,
    grid_cases,
    policy_cases,
    run_cases,
)
from .results import ResultSet, emit_results
from .riccati import LtiSystem, lqr_gain, riccati_residual, solve_are

GAIN_FILE = "gain.bundle"
REDUCED_FILE = "reduced_model.bundle"


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="config file to start from")
    p.add_argument("--pde", choices=PDE_KINDS)
    p.add_argument("--model", choices=MODEL_PATHS)
    p.add_argument("--nu", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--d0", type=float)
    p.add_argument("--disturbance", choices=DISTURBANCE_KINDS, dest="dist_kind")
    p.add_argument("--trials", dest="n_trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--p", type=int, help="grid points")
    p.add_argument("--m", type=int, help="control channels")
    p.add_argument("--particles", dest="enkf_particles", type=int)
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p.add_argument("--gain", metavar="FILE", help="load a trained gain bundle")
    p.add_argument("--reduced-model", metavar="FILE", help="load a fitted reduced model")
    p.add_argument("--dump-trials", action="store_true", help="also write per-trial ratios")


# argparse dests that are also config field names
_OVERRIDE_FIELDS = (
    "model", "nu", "lam", "d0", "dist_kind", "n_trials", "seed", "p", "m", "enkf_particles",
)


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults of the final PDE, then the --config file's keys, then flags."""
    cfg = load_config(args.config, args.pde) if args.config else default_config(args.pde or "heat")
    overrides = {f: getattr(args, f) for f in _OVERRIDE_FIELDS if getattr(args, f) is not None}
    return replace(cfg, **overrides).validate()


def _load_artifacts(cfg: ExperimentConfig, args: argparse.Namespace) -> Artifacts:
    gain = bundles.load_gain(args.gain) if args.gain else None
    reduction = bundles.load_reduced_model(args.reduced_model) if args.reduced_model else None
    return build_artifacts(cfg, gain=gain, reduction=reduction)


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    art = _load_artifacts(cfg, args)
    os.makedirs(args.out, exist_ok=True)
    bundles.save_gain(art.gain, os.path.join(args.out, GAIN_FILE))
    written = [os.path.join(args.out, GAIN_FILE)]
    if art.reduction is not None:
        bundles.save_reduced_model(art.reduction, os.path.join(args.out, REDUCED_FILE))
        written.append(os.path.join(args.out, REDUCED_FILE))
    emit_results(ResultSet(config=cfg), args.out)
    print(f"trained gain (n={art.gain.n}) -> {written[0]}")
    return 0


def cmd_fit_dmdc(args) -> int:
    cfg = resolve_config(args)
    if cfg.model != "dmdc":
        cfg = replace(cfg, model="dmdc").validate()
    sim = build_full_simulator(cfg)
    model = fit_reduction(cfg, sim)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, REDUCED_FILE)
    bundles.save_reduced_model(model, path)
    emit_results(ResultSet(config=cfg), args.out)
    print(f"fitted reduced model (n={model.n}, p={model.p}) -> {path}")
    return 0


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    art = _load_artifacts(cfg, args)
    case = policy_cases(cfg)[POLICIES.index(args.policy)]
    series = run_cases(cfg, art, [case], n_trials=1)
    emit_results(
        ResultSet(config=cfg, timeseries=series, dump_trials=args.dump_trials), args.out
    )
    print(f"{case.policy} trial terminal ratio: {series[0].ratios[0]:.6g}")
    return 0


def cmd_batch(args) -> int:
    cfg = resolve_config(args)
    art = _load_artifacts(cfg, args)
    series = run_cases(cfg, art, policy_cases(cfg), cfg.n_trials)
    emit_results(
        ResultSet(config=cfg, timeseries=series, dump_trials=args.dump_trials), args.out
    )
    for res in series:
        print(
            f"{res.case.policy}: mean terminal ratio {res.mean_terminal_ratio:.6g}"
            + (f" ({res.failures} failed trials)" if res.failures else "")
        )
    return 0


def cmd_grid(args) -> int:
    cfg = resolve_config(args)
    lists = {"grid_d0": args.grid_d0, "grid_lambda": args.grid_lambda, "grid_kinds": args.grid_kinds}
    cfg = replace(cfg, **{f: tuple(v) for f, v in lists.items() if v}).validate()
    art = _load_artifacts(cfg, args)
    cells = run_cases(cfg, art, grid_cases(cfg), cfg.n_trials)
    emit_results(ResultSet(config=cfg, heatmap=cells, dump_trials=args.dump_trials), args.out)
    print(f"grid: {len(cells)} cells -> {os.path.join(args.out, 'heatmap.csv')}")
    return 0


def cmd_oracle(args) -> int:
    """Riccati reference benchmarks, printed for debugging."""
    scalar = LtiSystem(A=[[0.0]], B=[[1.0]], C=[[1.0]], R=[[1.0]], G=[[1.0]])
    P = solve_are(scalar)
    print(f"scalar benchmark: P = {P[0, 0]:.12g} (expected 1), "
          f"residual {riccati_residual(scalar, P):.3e}")
    n = 3
    diag = LtiSystem(A=-np.eye(n), B=np.eye(n), C=np.eye(n), R=np.eye(n), G=np.eye(n))
    P3 = solve_are(diag)
    expected = np.sqrt(2.0) - 1.0
    print(f"diagonal 3-state benchmark: max |P - (sqrt(2)-1) I| = "
          f"{np.max(np.abs(P3 - expected * np.eye(n))):.3e}")
    K = lqr_gain(diag, P3)
    print(f"closed-loop spectral abscissa: "
          f"{np.max(np.linalg.eigvals(diag.A - diag.B @ K).real):.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enkfcontrol",
        description="Robust stabilization of discretized PDEs via ensemble-Kalman control",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", help="run the dual EnKF and save the gain")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("fit-dmdc", help="fit and save a reduced model")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_fit_dmdc)

    p = sub.add_parser("simulate", help="single closed-loop trajectory")
    _add_common_flags(p)
    p.add_argument("--policy", choices=POLICIES, default="robust")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("batch", help="trial batch under the three policies")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("grid", help="(kind, d0, lambda) heat-map sweep")
    _add_common_flags(p)
    p.add_argument("--grid-d0", type=float, nargs="+", metavar="D0")
    p.add_argument("--grid-lambda", type=float, nargs="+", metavar="LAM")
    p.add_argument("--grid-kinds", choices=DISTURBANCE_KINDS, nargs="+", metavar="KIND")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("oracle", help="Riccati reference benchmarks")
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surfaced as a one-line machine-parsable error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
