"""CSV emission for experiment results.

File contract: ``timeseries.csv`` (policy,t,mean,variance), ``heatmap.csv``
(kind,d0,lambda,mean_terminal_ratio) and ``config.echo`` (the exact resolved
configuration, loadable as a config file).  Floats carry 17 significant
digits and rows are emitted in a fixed order, so identical (config, seed)
pairs produce byte-identical files.  Empty result sets still produce the
headers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .config import ExperimentConfig, _fmt, render_config
from .harness import POLICIES, BatchResult, GridCell


class EmitError(RuntimeError):
    pass


@dataclass
class TrialRow:
    policy: str
    kind: str
    d0: float
    lam: float
    trial: int
    terminal_ratio: float


@dataclass
class ResultSet:
    """Everything one CLI run wants written to disk."""

    config: ExperimentConfig
    timeseries: dict[str, BatchResult] = field(default_factory=dict)
    heatmap: list[GridCell] = field(default_factory=list)
    trials: list[TrialRow] | None = None


def _write(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc


def timeseries_lines(series: dict[str, BatchResult]) -> list[str]:
    lines = ["policy,t,mean,variance"]
    for policy in (p for p in POLICIES if p in series):
        batch = series[policy]
        for t, mean, var in zip(batch.t, batch.mean, batch.variance):
            lines.append(f"{policy},{_fmt(t)},{_fmt(mean)},{_fmt(var)}")
    return lines


def heatmap_lines(cells: list[GridCell]) -> list[str]:
    lines = ["kind,d0,lambda,mean_terminal_ratio"]
    for cell in cells:
        lines.append(
            f"{cell.kind},{_fmt(cell.d0)},{_fmt(cell.lam)},{_fmt(cell.mean_terminal_ratio)}"
        )
    return lines


def trials_lines(rows: list[TrialRow]) -> list[str]:
    lines = ["policy,kind,d0,lambda,trial,terminal_ratio"]
    for r in rows:
        lines.append(
            f"{r.policy},{r.kind},{_fmt(r.d0)},{_fmt(r.lam)},{r.trial},{_fmt(r.terminal_ratio)}"
        )
    return lines


def emit_results(results: ResultSet, out_dir: str) -> list[str]:
    """Write timeseries.csv, heatmap.csv and config.echo (plus trials.csv).

    Returns the list of paths written.  trials.csv is only written when the
    result set carries per-trial rows (the --dump-trials path).
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise EmitError(f"cannot create output directory {out_dir}: {exc}") from exc
    paths = []

    path = os.path.join(out_dir, "timeseries.csv")
    _write(path, timeseries_lines(results.timeseries))
    paths.append(path)

    path = os.path.join(out_dir, "heatmap.csv")
    _write(path, heatmap_lines(results.heatmap))
    paths.append(path)

    path = os.path.join(out_dir, "config.echo")
    _write(path, render_config(results.config).splitlines())
    paths.append(path)

    if results.trials is not None:
        path = os.path.join(out_dir, "trials.csv")
        _write(path, trials_lines(results.trials))
        paths.append(path)
    return paths
