"""Output checks and the quality numbers read off a run's files.

Everything here runs outside the timed region.  The references do not go
through the code paths they check: the gain is compared with a Riccati
differential equation solution, and every trial the CLI reports is
integrated again with the benchmark's own stencils, RK4 and control law.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

# Relative tolerance between the program's terminal ratios and the
# re-integration.  Both use RK4 at the same step and the same law, so only
# rounding separates them; the slack admits reordered floating point.
RATIO_RTOL = 1e-6

TRIALS_HEADER = ["policy", "kind", "d0", "lambda", "trial", "terminal_ratio"]


class CheckError(RuntimeError):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def read_csv(path: str, header: list[str]) -> list[dict]:
    name = os.path.basename(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _expect(bool(rows) and rows[0] == header, f"{name}: header {rows[:1]} != {header}")
    out = []
    for lineno, row in enumerate(rows[1:], 2):
        _expect(len(row) == len(header), f"{name}:{lineno}: {len(row)} fields")
        rec = {}
        for key, value in zip(header, row):
            if key in ("policy", "kind"):
                rec[key] = value
                continue
            try:
                rec[key] = float(value)
            except ValueError:
                raise CheckError(f"{name}:{lineno}: bad number {value!r}") from None
        out.append(rec)
    return out


@dataclass(frozen=True)
class Design:
    """What the control law is built from: gain P on the design state x.

    x = Phi z for a reduced model, x = z otherwise; Bd is the design input
    matrix (the plant's B, or the reduced model's).
    """

    P: np.ndarray
    Bd: np.ndarray
    Phi: np.ndarray | None


def _shape(kind: str, t: float) -> float:
    return {"sin": math.sin(t), "const": 1.0, "none": 0.0}[kind]


class References:
    """Reference values for one resolved config."""

    def __init__(self, pkg, cfg):
        self.pkg = pkg
        self.cfg = cfg
        self._dre: dict[bytes, np.ndarray] = {}
        grid = pkg.pde.GridSpec(p=cfg.p, L=cfg.L)
        self.dy = grid.dy
        self.B = pkg.pde.build_control_matrix(grid, cfg.m)
        self.w = np.ones(cfg.m) if cfg.channel is None else np.asarray(cfg.channel, dtype=float)
        self.Z0 = np.array([pkg.harness.trial_initial_condition(cfg, i) for i in range(cfg.n_trials)])

    def dre_gain(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """P_dre(0) for the design system (A, B) with the config's weights."""
        key = A.tobytes() + B.tobytes()
        if key not in self._dre:
            cfg, riccati = self.cfg, self.pkg.riccati
            n, m = B.shape
            T = cfg.enkf_T if cfg.enkf_T is not None else cfg.T_sim
            steps = max(1000, math.ceil(20.0 * T * np.linalg.norm(A, 2)))
            system = riccati.LtiSystem(
                A=A, B=B, C=math.sqrt(cfg.q) * np.eye(n),
                R=cfg.r_input * np.eye(m), G=cfg.g * np.eye(n),
            )
            self._dre[key] = riccati.solve_dre(system, T, T / steps)
        return self._dre[key]

    def terminal_ratios(self, cases, design: Design | None) -> dict[tuple, np.ndarray]:
        """Terminal L2 ratio of every trial for each (kind, d0, lambda) case.

        The plant is the CLI's: periodic central differences, indicator
        actuators, input u + d0 shape(t_k) w held over each step, RK4 at
        dt_sim.  With ``design`` None the trials run uncontrolled (lambda is
        ignored); otherwise u is the linear-mode law

            u = -R^-1 Bd' g - lambda_state Bd^+ g / max(|g|, r),  g = P x,

        which both of the CLI's branches (known B, and B probed from the
        simulator) evaluate.  All cases and trials run as one batch.
        """
        cfg = self.cfg
        if cfg.bc != "periodic":
            raise CheckError("the reference integrator supports periodic boundaries only")
        cases = list(cases)
        n_trials, dy = cfg.n_trials, self.dy
        Z = np.tile(self.Z0, (len(cases), 1))
        d0 = np.repeat([case[1] for case in cases], n_trials)
        kinds = [case[0] for case in cases for _ in range(n_trials)]
        if design is not None:
            bd_norm = float(np.linalg.norm(design.Bd @ self.w))
            lam = np.repeat([
                lam * bd_norm if cfg.lambda_units == "amplitude" and lam > 0 else lam
                for _, _, lam in cases
            ], n_trials)
            Bd_pinv = np.linalg.solve(design.Bd.T @ design.Bd, design.Bd.T)
        burgers = cfg.pde == "burgers"

        def rhs(Z, U):
            zp = np.concatenate((Z[:, 1:], Z[:, :1]), axis=1)
            zm = np.concatenate((Z[:, -1:], Z[:, :-1]), axis=1)
            f = cfg.nu * (zp - 2.0 * Z + zm) / dy**2 + U @ self.B.T
            if burgers:
                f -= Z * (zp - zm) / (2.0 * dy)
            return f

        h = cfg.dt_sim
        l2_0 = np.sqrt(np.sum(Z * Z, axis=1) * dy)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(max(1, int(round(cfg.T_sim / h)))):
                tk = k * h
                U = np.outer(d0 * np.array([_shape(kind, tk) for kind in kinds]), self.w)
                if design is not None:
                    X = Z if design.Phi is None else Z @ design.Phi.T
                    G = X @ design.P.T
                    r1 = np.maximum(np.linalg.norm(G, axis=1), cfg.r_robust)
                    U = U - (G @ design.Bd) / cfg.r_input
                    U = U - lam[:, None] * ((G / r1[:, None]) @ Bd_pinv.T)
                k1 = rhs(Z, U)
                k2 = rhs(Z + 0.5 * h * k1, U)
                k3 = rhs(Z + 0.5 * h * k2, U)
                k4 = rhs(Z + h * k3, U)
                Z = Z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ratios = np.sqrt(np.sum(Z * Z, axis=1) * dy) / l2_0
        ratios[~np.isfinite(ratios)] = np.inf
        return {case: ratios[i * n_trials:(i + 1) * n_trials] for i, case in enumerate(cases)}


@dataclass(frozen=True)
class Quality:
    """Quality numbers and the blown-up trial count of one pass."""

    gain_rel_err: float
    ratio_optimal: float
    ratio_robust: float
    blowups: int


def _check_echo(pkg, out_dir: str, cfg) -> None:
    echo = os.path.join(out_dir, "config.echo")
    try:
        echoed = pkg.config.load_config(echo)
    except (OSError, pkg.config.ConfigError) as exc:
        raise CheckError(f"{echo}: does not load: {exc}") from None
    _expect(echoed == cfg, f"{echo}: echoed config differs from the generated one")


def _check_gain(P: np.ndarray) -> None:
    _expect(bool(np.all(np.isfinite(P))), "learned P is not finite")
    _expect(
        float(np.max(np.abs(P - P.T))) <= 1e-12 * float(np.max(np.abs(P))),
        "learned P is not symmetric",
    )
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise CheckError("learned P is not positive definite") from None


def _check_ratios(what: str, got: np.ndarray, ref: np.ndarray) -> None:
    same = got.shape == ref.shape and bool(
        np.all((got == ref) | (np.abs(got - ref) <= RATIO_RTOL * np.abs(ref)))
    )
    _expect(same, f"{what}: terminal ratios {got} differ from the reference {ref}")


def evaluate(pkg, refs: References, wl, train_dir: str, roll_dir: str) -> Quality:
    """Check one pass's files and return its quality numbers.

    Raises CheckError when any output check fails.
    """
    cfg = refs.cfg
    _check_echo(pkg, train_dir, cfg)
    _check_echo(pkg, roll_dir, cfg)

    P = pkg.bundles.load_gain(os.path.join(train_dir, "gain.bundle")).P
    _check_gain(P)
    if cfg.model == "dmdc":
        model = pkg.bundles.load_reduced_model(os.path.join(train_dir, "reduced_model.bundle"))
        A, design = model.A, Design(P=P, Bd=model.B, Phi=model.Phi)
    else:
        A = pkg.harness.build_full_simulator(cfg).A
        design = Design(P=P, Bd=refs.B, Phi=None)
    P_ref = refs.dre_gain(A, design.Bd)
    gain_rel_err = float(np.linalg.norm(P - P_ref) / np.linalg.norm(P_ref))
    _expect(
        gain_rel_err < wl.gain_err_ceiling,
        f"gain error {gain_rel_err:.4g} is not under the ceiling {wl.gain_err_ceiling}",
    )

    n_steps = max(1, int(round(cfg.T_sim / cfg.dt_sim)))
    trials = read_csv(os.path.join(roll_dir, "trials.csv"), TRIALS_HEADER)
    blowups = sum(1 for r in trials if not math.isfinite(r["terminal_ratio"]))
    series = read_csv(os.path.join(roll_dir, "timeseries.csv"), ["policy", "t", "mean", "variance"])
    cells = read_csv(
        os.path.join(roll_dir, "heatmap.csv"), ["kind", "d0", "lambda", "mean_terminal_ratio"]
    )

    def trial_ratios(policy, kind, d0, lam):
        return np.array([
            r["terminal_ratio"] for r in trials
            if (r["policy"], r["kind"], r["d0"], r["lambda"]) == (policy, kind, d0, lam)
        ])

    if wl.verb == "batch":
        _expect(len(series) == 3 * (n_steps + 1), f"timeseries.csv has {len(series)} rows")
        _expect(not cells, "batch wrote heat-map rows")
        _expect(len(trials) == 3 * cfg.n_trials, f"trials.csv has {len(trials)} rows")
        kind, d0 = cfg.dist_kind, cfg.d0
        uncontrolled = refs.terminal_ratios([(kind, d0, 0.0)], None)[(kind, d0, 0.0)]
        _check_ratios("uncontrolled", trial_ratios("uncontrolled", kind, d0, 0.0), uncontrolled)
        controlled = refs.terminal_ratios([(kind, d0, 0.0), (kind, d0, cfg.lam)], design)
        _check_ratios("optimal", trial_ratios("optimal", kind, d0, 0.0), controlled[(kind, d0, 0.0)])
        _check_ratios("robust", trial_ratios("robust", kind, d0, cfg.lam), controlled[(kind, d0, cfg.lam)])
        ratio_uncontrolled = float(np.mean(uncontrolled))
        ratio_optimal = float(np.mean(trial_ratios("optimal", kind, d0, 0.0)))
        ratio_robust = float(np.mean(trial_ratios("robust", kind, d0, cfg.lam)))
    else:
        expected = [
            (kind, d0, lam)
            for kind in cfg.grid_kinds for d0 in cfg.grid_d0 for lam in cfg.grid_lambda
        ]
        got_cells = [(c["kind"], c["d0"], c["lambda"]) for c in cells]
        _expect(got_cells == expected, "heatmap.csv cells differ from the configured grid")
        _expect(not series, "grid wrote time-series rows")
        _expect(len(trials) == len(cells) * cfg.n_trials, f"trials.csv has {len(trials)} rows")
        ref = refs.terminal_ratios(expected, design)
        for cell in cells:
            case = (cell["kind"], cell["d0"], cell["lambda"])
            _check_ratios(f"cell {case}", trial_ratios("robust", *case), ref[case])
            _check_ratios(f"cell {case} mean", np.array([cell["mean_terminal_ratio"]]),
                          np.array([np.mean(ref[case])]))
        uncontrolled = refs.terminal_ratios([(k, d0, 0.0) for k, d0, lam in expected if lam == 0.0], None)
        ratio_uncontrolled = float(np.mean([np.mean(v) for v in uncontrolled.values()]))
        ratio_optimal = float(np.mean([c["mean_terminal_ratio"] for c in cells if c["lambda"] == 0.0]))
        ratio_robust = float(np.mean([c["mean_terminal_ratio"] for c in cells if c["lambda"] > 0.0]))

    _expect(
        ratio_robust < ratio_uncontrolled,
        f"robust ratio {ratio_robust:.6g} is not below the uncontrolled {ratio_uncontrolled:.6g}",
    )
    return Quality(gain_rel_err, ratio_optimal, ratio_robust, blowups)
