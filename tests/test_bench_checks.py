"""The benchmark's Riccati reference still runs on the package.

``bench/checks.py`` computes ``gain_rel_err`` against ``References.dre_gain``,
which reads ``riccati.LtiSystem`` and ``riccati.solve_dre`` off the package
it is handed.  The benchmark's own tests are not collected here, so this
guard loads the module by path (registered, as its dataclasses need) and
takes one small reference gain.
"""

import importlib.util
import os
import sys

import numpy as np

import enkfcontrol
from enkfcontrol.config import heat_config
from enkfcontrol.harness import build_full_simulator

CHECKS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "checks.py")


def test_dre_gain_is_symmetric_positive_definite(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, checks)
    spec.loader.exec_module(checks)
    cfg = heat_config(p=8, m=2)
    sim = build_full_simulator(cfg)
    P = checks.References(enkfcontrol, cfg).dre_gain(sim.A, sim.control_matrix)
    assert P.shape == (cfg.p, cfg.p) and np.all(np.isfinite(P))
    assert np.array_equal(P, P.T)
    assert np.min(np.linalg.eigvalsh(P)) > 0
