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
from .harness import POLICIES, CaseResult


class EmitError(RuntimeError):
    pass


@dataclass
class ResultSet:
    """Everything one CLI run wants written to disk.

    ``timeseries`` holds policy cases (written in :data:`POLICIES` order),
    ``heatmap`` grid cells; with ``dump_trials`` every trial of both is
    written to trials.csv.
    """

    config: ExperimentConfig
    timeseries: list[CaseResult] = field(default_factory=list)
    heatmap: list[CaseResult] = field(default_factory=list)
    dump_trials: bool = False


def _write(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc


def timeseries_lines(series: list[CaseResult]) -> list[str]:
    lines = ["policy,t,mean,variance"]
    for res in series:
        for t, mean, var in zip(res.t, res.mean, res.variance):
            lines.append(f"{res.case.policy},{_fmt(t)},{_fmt(mean)},{_fmt(var)}")
    return lines


def heatmap_lines(cells: list[CaseResult]) -> list[str]:
    lines = ["kind,d0,lambda,mean_terminal_ratio"]
    for cell in cells:
        c = cell.case
        lines.append(f"{c.kind},{_fmt(c.d0)},{_fmt(c.lam)},{_fmt(cell.mean_terminal_ratio)}")
    return lines


def trials_lines(results: list[CaseResult]) -> list[str]:
    lines = ["policy,kind,d0,lambda,trial,terminal_ratio"]
    for res in results:
        c = res.case
        for i, ratio in enumerate(res.ratios):
            lines.append(f"{c.policy},{c.kind},{_fmt(c.d0)},{_fmt(c.lam)},{i},{_fmt(ratio)}")
    return lines


def emit_results(results: ResultSet, out_dir: str) -> list[str]:
    """Write timeseries.csv, heatmap.csv and config.echo (plus trials.csv).

    Returns the list of paths written.  trials.csv is only written with
    ``dump_trials`` (the --dump-trials path).
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise EmitError(f"cannot create output directory {out_dir}: {exc}") from exc
    paths = []

    series = sorted(results.timeseries, key=lambda r: POLICIES.index(r.case.policy))
    path = os.path.join(out_dir, "timeseries.csv")
    _write(path, timeseries_lines(series))
    paths.append(path)

    path = os.path.join(out_dir, "heatmap.csv")
    _write(path, heatmap_lines(results.heatmap))
    paths.append(path)

    path = os.path.join(out_dir, "config.echo")
    _write(path, render_config(results.config).splitlines())
    paths.append(path)

    if results.dump_trials:
        path = os.path.join(out_dir, "trials.csv")
        _write(path, trials_lines(series + results.heatmap))
        paths.append(path)
    return paths
