"""CSV emission for experiment results: :func:`emit_results` writes one run's files."""

from __future__ import annotations

import os
from collections.abc import Sequence

from .config import ExperimentConfig, _fmt, render_config
from .harness import POLICIES, CaseResult


class EmitError(RuntimeError):
    pass


def _write(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc


def timeseries_lines(series: list[CaseResult]) -> list[str]:
    lines = ["policy,t,mean,variance"]
    for res in series:
        # one format per row over Python floats: "%.17g" is _fmt of each
        row_format = res.case.policy.replace("%", "%%") + ",%.17g,%.17g,%.17g"
        lines.extend(row_format % row for row in zip(res.t.tolist(), res.mean.tolist(), res.variance.tolist()))
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
        row_format = f"{c.policy},{c.kind},{_fmt(c.d0)},{_fmt(c.lam)},".replace("%", "%%") + "%d,%.17g"
        lines.extend(row_format % row for row in enumerate(res.ratios.tolist()))
    return lines


def emit_results(cfg: ExperimentConfig, out_dir: str, *, timeseries: Sequence[CaseResult] = (),
                 heatmap: Sequence[CaseResult] = (), dump_trials: bool = False) -> list[str]:
    """Write one run's files under out_dir and return their paths, in this order.

    ``timeseries.csv`` (policy,t,mean,variance) has the policy cases of
    ``timeseries`` in :data:`POLICIES` order, ``heatmap.csv``
    (kind,d0,lambda,mean_terminal_ratio) the grid cells of ``heatmap``, and
    ``config.echo`` the exact resolved configuration, loadable as a config
    file.  With ``dump_trials`` (the --dump-trials path), ``trials.csv``
    (policy,kind,d0,lambda,trial,terminal_ratio) has every trial of both.
    Floats carry 17 significant digits and rows are emitted in a fixed
    order, so identical (config, seed) pairs produce byte-identical files.
    Empty results still produce the headers.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise EmitError(f"cannot create output directory {out_dir}: {exc}") from exc
    paths = []

    series = sorted(timeseries, key=lambda r: POLICIES.index(r.case.policy))
    path = os.path.join(out_dir, "timeseries.csv")
    _write(path, timeseries_lines(series))
    paths.append(path)

    path = os.path.join(out_dir, "heatmap.csv")
    _write(path, heatmap_lines(heatmap))
    paths.append(path)

    path = os.path.join(out_dir, "config.echo")
    _write(path, render_config(cfg).splitlines())
    paths.append(path)

    if dump_trials:
        path = os.path.join(out_dir, "trials.csv")
        _write(path, trials_lines(series + list(heatmap)))
        paths.append(path)
    return paths
