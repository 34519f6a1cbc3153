"""Command-line interface.

Each verb takes only the flags its row of ``VERBS`` lists (their argparse
keywords are in ``FLAGS``); any other flag exits 2 before any work starts.
Every verb takes the config flags, which config.echo records:
--config --pde --nu --lambda --d0 --disturbance --trials --seed --p --m
--particles --out.  ``train`` adds --model and --reduced-model; ``fit-dmdc``
takes the config flags alone and fits model = dmdc; ``simulate``, ``batch``
and ``grid`` add --model --gain --reduced-model --dump-trials, ``simulate``
--policy and ``grid`` the lists --grid-d0 --grid-lambda --grid-kinds.

Settings resolve as the defaults of the PDE (--pde if given, else the file's),
then --config file values, then every flag whose dest names a config field.
config.echo, passed back via --config, reproduces the run byte for byte.

Exit codes: 0 on success, 1 on runtime errors (one-line ``error: ...`` on
stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

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
    simulate_closed_loop,
)
from .results import emit_results

GAIN_FILE = "gain.bundle"
REDUCED_FILE = "reduced_model.bundle"

FLAGS: dict[str, dict] = {
    "--config": dict(metavar="FILE", help="config file to start from"),
    "--pde": dict(choices=PDE_KINDS),
    "--nu": dict(type=float),
    "--lambda": dict(dest="lam", type=float),
    "--d0": dict(type=float),
    "--disturbance": dict(choices=DISTURBANCE_KINDS, dest="dist_kind"),
    "--trials": dict(dest="n_trials", type=int),
    "--seed": dict(type=int),
    "--p": dict(type=int, help="grid points"),
    "--m": dict(type=int, help="control channels"),
    "--particles": dict(dest="enkf_particles", type=int),
    "--out": dict(metavar="DIR", default="out", help="output directory"),
    "--model": dict(choices=MODEL_PATHS),
    "--gain": dict(metavar="FILE", help="load a trained gain bundle"),
    "--reduced-model": dict(metavar="FILE", help="load a fitted reduced model"),
    "--dump-trials": dict(action="store_true", help="also write per-trial ratios"),
    "--policy": dict(choices=POLICIES, default="robust"),
    "--grid-d0": dict(type=float, nargs="+", metavar="D0"),
    "--grid-lambda": dict(type=float, nargs="+", metavar="LAM"),
    "--grid-kinds": dict(choices=DISTURBANCE_KINDS, nargs="+", metavar="KIND"),
}

# config.echo is made from these (and written under --out), so every config verb takes them
CONFIG_FLAGS = ("--config", "--pde", "--nu", "--lambda", "--d0", "--disturbance", "--trials",
                "--seed", "--p", "--m", "--particles", "--out")
_ROLLOUT_FLAGS = CONFIG_FLAGS + ("--model", "--gain", "--reduced-model", "--dump-trials")

# the fields a flag of the same dest overrides; --pde instead picks the defaults the rest start from
_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig)) - {"pde"}


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults of the final PDE, then the --config file's keys, then flags, validated once merged."""
    overrides = {k: tuple(v) if isinstance(v, list) else v
                 for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None}
    return (load_config(args.config, args.pde, **overrides) if args.config
            else default_config(args.pde or "heat", **overrides))


def _artifacts(args, gain_file: str | None = None) -> tuple[ExperimentConfig, Artifacts]:
    """Resolve the config and load the bundle files given; fit and train the rest."""
    cfg = resolve_config(args)
    gain = bundles.load_gain(gain_file) if gain_file else None
    reduction = bundles.load_reduced_model(args.reduced_model) if args.reduced_model else None
    return cfg, build_artifacts(cfg, gain=gain, reduction=reduction)


def cmd_train(args) -> int:
    cfg, art = _artifacts(args)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, GAIN_FILE)
    bundles.save_gain(art.gain, path)
    if art.reduction is not None:
        bundles.save_reduced_model(art.reduction, os.path.join(args.out, REDUCED_FILE))
    emit_results(cfg, args.out)
    print(f"trained gain (n={art.gain.n}) -> {path}")
    return 0


def cmd_fit_dmdc(args) -> int:
    cfg = resolve_config(args)
    sim = build_full_simulator(cfg)
    model = fit_reduction(cfg, sim)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, REDUCED_FILE)
    bundles.save_reduced_model(model, path)
    emit_results(cfg, args.out)
    print(f"fitted reduced model (n={model.n}, p={model.p}) -> {path}")
    return 0


def cmd_simulate(args) -> int:
    cfg, art = _artifacts(args, args.gain)
    case = policy_cases(cfg)[POLICIES.index(args.policy)]
    series = simulate_closed_loop(cfg, art, [case], n_trials=1)
    emit_results(cfg, args.out, timeseries=series, dump_trials=args.dump_trials)
    print(f"{case.policy} trial terminal ratio: {series[0].ratios[0]:.6g}")
    return 0


def cmd_batch(args) -> int:
    cfg, art = _artifacts(args, args.gain)
    series = simulate_closed_loop(cfg, art, policy_cases(cfg), cfg.n_trials)
    emit_results(cfg, args.out, timeseries=series, dump_trials=args.dump_trials)
    for res in series:
        print(
            f"{res.case.policy}: mean terminal ratio {res.mean_terminal_ratio:.6g}"
            + (f" ({res.failures} failed trials)" if res.failures else "")
        )
    return 0


def cmd_grid(args) -> int:
    cfg, art = _artifacts(args, args.gain)
    cells = simulate_closed_loop(cfg, art, grid_cases(cfg), cfg.n_trials, traces=False)  # it writes ratios alone
    emit_results(cfg, args.out, heatmap=cells, dump_trials=args.dump_trials)
    print(f"grid: {len(cells)} cells -> {os.path.join(args.out, 'heatmap.csv')}")
    return 0


class Verb(NamedTuple):
    fn: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple[str, ...]  # keys of FLAGS; argparse rejects every other flag
    defaults: dict | None = None  # passed to set_defaults


VERBS: dict[str, Verb] = {
    "train": Verb(cmd_train, "run the dual EnKF and save the gain",
                  CONFIG_FLAGS + ("--model", "--reduced-model")),
    "fit-dmdc": Verb(cmd_fit_dmdc, "fit and save a reduced model", CONFIG_FLAGS, {"model": "dmdc"}),
    "simulate": Verb(cmd_simulate, "single closed-loop trajectory", _ROLLOUT_FLAGS + ("--policy",)),
    "batch": Verb(cmd_batch, "trial batch under the three policies", _ROLLOUT_FLAGS),
    "grid": Verb(cmd_grid, "(kind, d0, lambda) heat-map sweep",
                 _ROLLOUT_FLAGS + ("--grid-d0", "--grid-lambda", "--grid-kinds")),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """Every verb's subparser; given ``verb``, only that subparser gets its flags."""
    parser = argparse.ArgumentParser(
        prog="enkfcontrol",
        description="Robust stabilization of discretized PDEs via ensemble-Kalman control",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, spec in VERBS.items():
        p = sub.add_parser(name, help=spec.help)
        for flag in spec.flags if verb in (None, name) else ():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=spec.fn, **(spec.defaults or {}))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads only the named verb's subparser, so only it needs its flags
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
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
