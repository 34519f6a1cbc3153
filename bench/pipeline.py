"""One pass of a workload through the public CLI, as a user would run it.

``train`` writes the gain (and reduced-model) bundles; the rollout verb
(``batch`` or ``grid``) loads them back.  Both verbs run in this process
through ``enkfcontrol.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import shutil
import sys
import time
from dataclasses import dataclass


class ProgramMissing(RuntimeError):
    pass


def import_program(src_dir: str):
    """Import enkfcontrol from ``src_dir`` and return the package.

    Refuses a copy found anywhere else on the path, so that a checkout
    without the package sources cannot measure some other build.
    """
    init = os.path.join(src_dir, "enkfcontrol", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no package sources at {init}")
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    pkg = importlib.import_module("enkfcontrol")
    if os.path.realpath(pkg.__file__) != os.path.realpath(init):
        raise ProgramMissing(f"imported {pkg.__file__}, expected {init}")
    importlib.import_module("enkfcontrol.cli")  # imports every other module too
    return pkg


@dataclass
class Pass:
    """Wall times, exit codes and file digests of one train + rollout pass."""

    train_s: float
    rollout_s: float
    wall_s: float  # train_s + rollout_s; the probes are not in it
    train_rc: int
    rollout_rc: int | None  # None when train failed and the rollout never ran
    digests: dict[str, str]
    # Probe times before train, between the verbs and after the rollout
    # (see speed.py); None when the pass ran without a probe.
    probes: tuple[float, float, float] | None = None


def _digests(*dirs: str) -> dict[str, str]:
    out = {}
    for d in dirs:
        if not os.path.isdir(d):
            continue
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                out[f"{os.path.basename(d)}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_pass(pkg, verb: str, cfg_path: str, out_dir: str, dmdc: bool,
             tracer=None, trace_id: int = 0, probe=None) -> Pass:
    """Run ``train`` then ``verb`` into fresh directories under ``out_dir``.

    ``probe``, when given, is called before, between and after the verbs,
    outside their timed regions.
    """
    train_dir = os.path.join(out_dir, "train")
    roll_dir = os.path.join(out_dir, "rollout")
    for d in (train_dir, roll_dir):
        shutil.rmtree(d, ignore_errors=True)
    train_argv = ["train", "--config", cfg_path, "--out", train_dir]
    roll_argv = [verb, "--config", cfg_path, "--gain", os.path.join(train_dir, "gain.bundle")]
    if dmdc:
        roll_argv += ["--reduced-model", os.path.join(train_dir, "reduced_model.bundle")]
    roll_argv += ["--out", roll_dir, "--dump-trials"]

    def verb_span(name):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(f"cli.{name}", trace_id, name)

    probes = []

    def probe_now():
        if probe is not None:
            probes.append(probe())

    with contextlib.redirect_stdout(io.StringIO()):
        probe_now()
        t0 = time.perf_counter()
        with verb_span("train"):
            train_rc = pkg.cli.main(train_argv)
        t1 = time.perf_counter()
        probe_now()
        rollout_rc = None
        t2 = time.perf_counter()
        if train_rc == 0:
            with verb_span(verb):
                rollout_rc = pkg.cli.main(roll_argv)
        t3 = time.perf_counter()
        probe_now()
    return Pass(
        train_s=t1 - t0, rollout_s=t3 - t2, wall_s=(t1 - t0) + (t3 - t2),
        train_rc=train_rc, rollout_rc=rollout_rc,
        digests=_digests(train_dir, roll_dir),
        probes=tuple(probes) if probe is not None else None,
    )
