"""Benchmark of enkfcontrol: one workload, one seed, one measured run.

Run from the repository root:

    python3 bench/run.py --workload heat-full --seed 1 --seconds 30 --trace 0

The run writes configs for the workload and seed, measures the package's
set-up in fresh interpreters, then repeats ``train`` + rollout verb through
``enkfcontrol.cli.main`` in this process until ``--seconds`` have passed.
Passes cycle through a few config seeds derived from ``--seed``; every
pass is checked (see checks.py), and passes of one config must write
identical files.  Train and rollout times are scaled by a machine-speed
probe timed around each verb (see speed.py).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object; the result,
stamped with the machine and library versions, and the spans of a traced
run are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# None of these import numpy, so the BLAS threads can still be pinned.
import pipeline
from tracing import EMITTED_BYTES, RHS, Tracer
from workloads import WORKLOADS, config_text

SETUP_SAMPLES = 9
# Config seeds per run, derived from --seed.  The gain error and terminal
# ratios change from one seed to the next (EnKF sampling, DMDc snapshots,
# initial conditions), so a run reports their median over this many seeds.
CONFIG_SEEDS = 6
# One BLAS thread: on a host whose other tenants come and go, a second thread
# waits on whichever core is busy, and the EnKF's times scatter.
BLAS_THREADS = 1

# Set-up as a user pays it: import the package, build the parser and resolve
# the config.  Timed inside a fresh interpreter, so imports are not cached.
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from enkfcontrol import cli
cli.resolve_config(cli.build_parser().parse_args(["train", "--config", sys.argv[2]]))
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "rollout_steps_per_s": "steps/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "gain_rel_err": "ratio",
    "ratio_optimal": "ratio",
    "ratio_robust": "ratio",
}

# "<module>.<function>.<stat>" metrics read off the spans, plus two counts.
PER_LAYER = (
    "enkf.step_linear.calls",
    "enkf.step_linear.us_per_call",
    "dmdc.collect_snapshots.self_s",
    "dmdc.fit_dmdc.self_s",
    "dmdc.to_continuous.self_s",
    "pde.rk4_step.calls",
    "pde.rk4_step.us_per_call",
    "pde.rhs.calls_per_step",
    "controller.robust_control.us_per_call",
    "controller.minimize_hamiltonian.self_s",
    "controller.robust_term.self_s",
    "controller.estimate_b.calls",
    "dmdc.reduce_state.us_per_call",
    "harness.simulate_closed_loop.self_s",
    "harness.build_law.calls",
    "harness.build_law.self_s",
    "bundles.save_gain.self_s",
    "bundles.load_gain.self_s",
    "bundles.save_reduced_model.self_s",
    "bundles.load_reduced_model.self_s",
    "results.emit_results.self_s",
    "results.emit_results.bytes",
    "config.render_config.self_s",
)
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "us_per_call": "us",
    "calls_per_step": "calls/step",
    "bytes": "bytes",
}


def pin_blas(threads: int) -> None:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def git_sha(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: str, args, threads: int) -> dict:
    import numpy
    import scipy

    uname = platform.uname()
    return {
        "machine": f"{uname.node} {uname.system} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_sample(root: str, cfg_path: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, os.path.join(root, "src"), cfg_path],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def layer_metrics(tracer, trace_id: int, verb: str) -> dict[str, float]:
    stats = tracer.layer_stats(trace_id)
    out = {}
    for metric in PER_LAYER:
        span, stat = metric.rsplit(".", 1)
        entry = stats.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if stat == "calls":
            out[metric] = entry["calls"]
        elif stat == "self_s":
            out[metric] = entry["self_s"]
        elif stat == "us_per_call":
            out[metric] = 1e6 * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0
        elif metric == "pde.rhs.calls_per_step":
            steps = tracer.count(trace_id, "pde.rk4_step", phase=verb)
            out[metric] = tracer.count(trace_id, RHS, phase=verb) / steps if steps else 0.0
        elif metric == EMITTED_BYTES:
            out[metric] = tracer.count(trace_id, EMITTED_BYTES)
        else:
            raise ValueError(f"no rule for per-layer metric {metric}")
    return out


def measure(pkg, wl, seed: int, seconds: float, trace: bool, root: str, out: str):
    """Run the workload for ``seconds``; return (result, tracer or None, samples)."""
    import checks  # these import numpy: only after the BLAS threads are pinned
    import speed

    cfg_paths = []
    for k in range(CONFIG_SEEDS):
        cfg_paths.append(os.path.join(out, f"workload-{k}.cfg"))
        with open(cfg_paths[k], "w", newline="\n") as fh:
            fh.write(config_text(wl, seed * CONFIG_SEEDS + k))
    # Each set-up sample is scaled by the probes on either side of it.
    probe = speed.Probe()
    setup, setup_probes = [], [probe()]
    for _ in range(SETUP_SAMPLES):
        setup.append(setup_sample(root, cfg_paths[0]))
        setup_probes.append(probe())
    setup_s = statistics.median(
        speed.scaled(t, setup_probes[j], setup_probes[j + 1]) for j, t in enumerate(setup)
    )

    refs = [checks.References(pkg, pkg.config.load_config(path)) for path in cfg_paths]
    cfg = refs[0].cfg
    n_cells = len(cfg.grid_kinds) * len(cfg.grid_d0) * len(cfg.grid_lambda)
    trajectories = (3 if wl.verb == "batch" else n_cells) * cfg.n_trials
    steps = trajectories * max(1, int(round(cfg.T_sim / cfg.dt_sim)))
    pass_dir = os.path.join(out, "pass")
    tracer = Tracer() if trace else None

    passes = []  # (pass index, traced, Pass)
    attempted = failed = 0
    correct = True
    quality = {}  # config index -> Quality of its first plain pass
    digests = {}  # config index -> file digests of its first pass
    deadline = time.perf_counter() + seconds
    i = 0
    # A plain run cycles through the configs once before it may stop; a
    # traced run pairs each plain pass with a traced pass of the same config.
    while i < (2 if trace else CONFIG_SEEDS) or time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        k = (i // 2 if trace else i) % CONFIG_SEEDS
        with tracer.installed() if traced else contextlib.nullcontext():
            it = pipeline.run_pass(
                pkg, wl.verb, cfg_paths[k], pass_dir, cfg.model == "dmdc",
                tracer if traced else None, i, probe,
            )
        passes.append((i, traced, it))
        attempted += 1 + trajectories
        try:
            if it.train_rc != 0:
                raise checks.CheckError(f"train exited with {it.train_rc}")
            if it.rollout_rc != 0:
                raise checks.CheckError(f"{wl.verb} exited with {it.rollout_rc}")
            q = checks.evaluate(
                pkg, refs[k], wl, os.path.join(pass_dir, "train"), os.path.join(pass_dir, "rollout")
            )
            if digests.setdefault(k, it.digests) != it.digests:
                raise checks.CheckError("files differ from an earlier pass of the same config")
            failed += q.blowups
            if not traced:
                quality.setdefault(k, q)
        except checks.CheckError as exc:
            correct = False
            # A failed rollout verb owns its trajectories; any other failure
            # (train, or a check on the outputs) fails the whole pass.
            rollout_only = it.train_rc == 0 and it.rollout_rc != 0
            failed += trajectories if rollout_only else 1 + trajectories
            print(f"pass {i} (config {k}): check failed: {exc}", file=sys.stderr)
        i += 1

    plain = [it for _, traced, it in passes if not traced]
    if not trace:
        def quality_median(name):
            values = [getattr(v, name) for v in quality.values()]
            return statistics.median(values) if values else None

        # Verb times scaled to the probe's nominal host speed (speed.py).
        train_s = [speed.scaled(it.train_s, it.probes[0], it.probes[1]) for it in plain]
        rollout_s = [speed.scaled(it.rollout_s, it.probes[1], it.probes[2]) for it in plain]
        values = {
            "setup_s": setup_s,
            "train_s": statistics.median(train_s),
            "rollout_steps_per_s": statistics.median(steps / r for r in rollout_s),
            "total_s": statistics.median(setup_s + t + r for t, r in zip(train_s, rollout_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "gain_rel_err": quality_median("gain_rel_err"),
            "ratio_optimal": quality_median("ratio_optimal"),
            "ratio_robust": quality_median("ratio_robust"),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        per_pass = [layer_metrics(tracer, tid, wl.verb) for tid, traced, _ in passes if traced]
        metrics = {}
        for name in PER_LAYER:
            unit = STAT_UNITS[name.rsplit(".", 1)[1]]
            # Counts are exact, so report one that occurred rather than an average.
            median = statistics.median if unit in ("s", "us") else statistics.median_low
            metrics[name] = {"value": median(p[name] for p in per_pass), "unit": unit}
        traced_wall = statistics.median(it.wall_s for _, traced, it in passes if traced)
        metrics["trace_overhead_s"] = {
            "value": traced_wall - statistics.median(it.wall_s for it in plain),
            "unit": "s",
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    samples = {
        "setup_s": setup,
        "setup_probes_s": setup_probes,
        "passes": [
            {"pass": i, "traced": traced, "train_s": it.train_s, "rollout_s": it.rollout_s,
             "wall_s": it.wall_s, "probes_s": it.probes}
            for i, traced, it in passes
        ],
    }
    return result, tracer, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    threads = BLAS_THREADS
    pin_blas(threads)
    try:
        pkg = pipeline.import_program(os.path.join(root, "src"))
    except pipeline.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result, tracer, samples = measure(
        pkg, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root, out
    )
    info = stamp(root, args, threads)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump({"stamp": info, "result": result, "samples": samples}, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write(os.path.join(out, "spans.csv.gz"))
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
