"""Flat text bundles for fitted artifacts (gain matrices, reduced models).

One file per artifact: `key=value` header lines, then one `[name]` block per
matrix with comma-separated rows.  Floats are printed with 17 significant
digits so save/load round-trips are exact and files are byte-reproducible.
Loading checks what it reads: no header key or block appears twice, every
one it needs is there, each block is a finite rectangle, its shape agrees
with the header's dimensions, and a gain's P is symmetric positive definite.
Header keys and blocks a loader does not use are ignored.
"""

from __future__ import annotations

import numpy as np

from .config import _fmt
from .dmdc import ReducedModel
from .enkf import GainApprox

FORMAT_TAG = "enkfcontrol-bundle-v1"


class BundleError(ValueError):
    pass


def _render(kind: str, header: dict, matrices: dict) -> str:
    lines = [f"format={FORMAT_TAG}", f"kind={kind}"]
    for key, val in header.items():
        lines.append(f"{key}={_fmt(val)}")
    for name, M in matrices.items():
        lines.append(f"[{name}]")
        M = np.atleast_2d(np.asarray(M, dtype=float))
        row_format = ",".join(["%.17g"] * M.shape[1])  # _fmt of each float, in one pass
        lines.extend(row_format % tuple(row) for row in M.tolist())
    return "\n".join(lines) + "\n"


def _block(name: str, rows: list[list[float]]) -> np.ndarray:
    if not rows:
        raise BundleError(f"[{name}] block is empty")
    if len({len(row) for row in rows}) > 1:
        raise BundleError(f"[{name}] block has rows of different lengths")
    M = np.array(rows)
    if not np.isfinite(M).all():
        raise BundleError(f"[{name}] block has non-finite entries")
    return M


def _header_value(header: dict, key: str, parse, valid=lambda value: True):
    if key not in header:
        raise BundleError(f"missing header key {key!r}")
    try:
        value = parse(header[key])
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise BundleError(f"bad header value {key}={header[key]!r}")
    return value


def _matrix(matrices: dict, name: str, shape: tuple[int, int]) -> np.ndarray:
    if name not in matrices:
        raise BundleError(f"missing [{name}] block")
    M = matrices[name]
    if M.shape != shape:
        rows, cols = M.shape
        raise BundleError(f"[{name}] block is {rows}x{cols}, the header says {shape[0]}x{shape[1]}")
    return M


def _parse(text: str) -> tuple[dict, dict]:
    header: dict[str, str] = {}
    matrices: dict[str, np.ndarray] = {}
    current: list[list[float]] | None = None
    name = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if name is not None:
                matrices[name] = _block(name, current)
            name = line[1:-1]
            if name in matrices:
                raise BundleError(f"line {lineno}: repeated [{name}] block")
            current = []
        elif current is not None:
            try:
                current.append([float(v) for v in line.split(",")])
            except ValueError:
                raise BundleError(f"line {lineno}: bad matrix row {line!r}") from None
        else:
            if "=" not in line:
                raise BundleError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in header:
                raise BundleError(f"line {lineno}: repeated header key {key!r}")
            header[key] = val.strip()
    if name is not None:
        matrices[name] = _block(name, current)
    if header.get("format") != FORMAT_TAG:
        raise BundleError(f"unrecognized bundle format {header.get('format')!r}")
    return header, matrices


def save_gain(gain: GainApprox, path) -> None:
    text = _render("gain", {"n": str(gain.n)}, {"P": gain.P})
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def load_gain(path) -> GainApprox:
    """Load a gain bundle; the ``mode`` header and ``[S0]`` block of older versions are ignored."""
    with open(path) as fh:
        header, matrices = _parse(fh.read())
    if header.get("kind") != "gain":
        raise BundleError(f"expected a gain bundle, got kind={header.get('kind')!r}")
    n = _header_value(header, "n", int)
    P = _matrix(matrices, "P", (n, n))
    if np.max(np.abs(P - P.T)) > 1e-12 * np.max(np.abs(P)):
        raise BundleError("[P] block is not symmetric")
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise BundleError("[P] block is not positive definite") from None
    return GainApprox(P=P)


def save_reduced_model(model: ReducedModel, path) -> None:
    header = {
        "n": str(model.n),
        "m": str(model.m),
        "p": str(model.p),
        "dt": float(model.dt),
        "discrete": str(int(model.discrete)),
    }
    text = _render("reduced_model", header, {"A": model.A, "B": model.B, "Phi": model.Phi})
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def load_reduced_model(path) -> ReducedModel:
    with open(path) as fh:
        header, matrices = _parse(fh.read())
    if header.get("kind") != "reduced_model":
        raise BundleError(
            f"expected a reduced_model bundle, got kind={header.get('kind')!r}"
        )
    n, m, p = (_header_value(header, key, int) for key in ("n", "m", "p"))
    dt = _header_value(header, "dt", float, lambda dt: 0 < dt < np.inf)
    discrete = _header_value(header, "discrete", int, lambda d: d in (0, 1))
    return ReducedModel(
        A=_matrix(matrices, "A", (n, n)),
        B=_matrix(matrices, "B", (n, m)),
        Phi=_matrix(matrices, "Phi", (n, p)),
        dt=dt,
        discrete=bool(discrete),
    )
