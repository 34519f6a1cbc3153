"""Benchmark-local tests: reruns and traced runs must write identical files.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

import checks
import pipeline
from tracing import Tracer
from workloads import WORKLOADS, config_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Small versions of each workload: same verbs and code paths, fewer points,
# particles, snapshots and trials.
TINY = {
    "heat-full": {
        "experiment": {"p": 20, "m": 4, "n_trials": 2},
        "enkf": {"particles": 200},
    },
    "burgers-dmdc": {
        "experiment": {"p": 32, "m": 4, "T_sim": 0.2, "n_trials": 1},
        "enkf": {"particles": 200},
        "dmdc": {"order": 4, "trajectories": 4, "steps": 40},
    },
    "heat-dmdc-grid-sim": {
        "experiment": {"p": 20, "m": 4, "n_trials": 1},
        "enkf": {"particles": 200},
        "dmdc": {"order": 4, "trajectories": 4, "steps": 40},
        "grid": {"d0_list": "0, 0.1", "lambda_list": "0, 0.2", "kinds": "sin, const"},
    },
}


@pytest.fixture(scope="module")
def pkg():
    return pipeline.import_program(os.path.join(ROOT, "src"))


def _digests(pkg, name, tmp_path, tag, tracer=None):
    wl = WORKLOADS[name]
    cfg_path = tmp_path / "workload.cfg"
    cfg_path.write_text(config_text(wl, 7, TINY[name]))
    dmdc = wl.sections["experiment"]["model"] == "dmdc"
    it = pipeline.run_pass(pkg, wl.verb, str(cfg_path), str(tmp_path / tag), dmdc, tracer, 1)
    assert (it.train_rc, it.rollout_rc) == (0, 0)
    assert "rollout/trials.csv" in it.digests
    return it.digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rerun_writes_identical_files(pkg, name, tmp_path):
    assert _digests(pkg, name, tmp_path, "a") == _digests(pkg, name, tmp_path, "b")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_does_not_change_files(pkg, name, tmp_path):
    plain = _digests(pkg, name, tmp_path, "plain")
    bindings = {
        mod: dict(vars(module))
        for mod, module in sys.modules.items() if mod.startswith("enkfcontrol")
    }
    tracer = Tracer()
    with tracer.installed():
        traced = _digests(pkg, name, tmp_path, "traced", tracer)
    assert traced == plain
    assert tracer.layer_stats(1)["pde.rk4_step"]["calls"] > 0
    assert tracer.count(1, "pde.rhs") >= 4 * tracer.count(1, "pde.rk4_step")
    for mod, before in bindings.items():
        assert dict(vars(sys.modules[mod])) == before, f"{mod} bindings not restored"


def test_benchmark_json_matches_the_runner():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    expected = {name: run.STAT_UNITS[name.rsplit(".", 1)[1]] for name in run.PER_LAYER}
    expected["trace_overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_integrator_matches_the_program(pkg, name, tmp_path):
    _digests(pkg, name, tmp_path, "out")
    cfg = pkg.config.load_config(str(tmp_path / "workload.cfg"))
    train, rollout = tmp_path / "out" / "train", tmp_path / "out" / "rollout"
    refs = checks.References(pkg, cfg)
    model = pkg.bundles.load_reduced_model(str(train / "reduced_model.bundle")) if cfg.model == "dmdc" else None
    design = checks.Design(
        P=pkg.bundles.load_gain(str(train / "gain.bundle")).P,
        Bd=refs.B if model is None else model.B,
        Phi=None if model is None else model.Phi,
    )
    rows = checks.read_csv(str(rollout / "trials.csv"), checks.TRIALS_HEADER)
    for policy in sorted({r["policy"] for r in rows}):
        mine = [r for r in rows if r["policy"] == policy]
        cases = list(dict.fromkeys((r["kind"], r["d0"], r["lambda"]) for r in mine))
        ref = refs.terminal_ratios(cases, None if policy == "uncontrolled" else design)
        got = np.array([r["terminal_ratio"] for r in mine])
        want = np.concatenate([ref[case] for case in cases])
        np.testing.assert_allclose(got, want, rtol=checks.RATIO_RTOL, atol=0)
