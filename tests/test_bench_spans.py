"""Every function the benchmark's tracer rebinds exists in the package.

``bench/tracing.py`` wraps ``enkfcontrol.<module>.<fn>`` for each pair in its
``SPANNED`` table and counts ``pde.Simulator.rhs``; a traced benchmark run
fails if one of them is renamed or deleted.  The benchmark's own tests are
not collected here, so this guard reads the table without running it.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _spanned():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED


@pytest.mark.parametrize("module,fn", _spanned())
def test_spanned_function_exists(module, fn):
    assert callable(getattr(importlib.import_module(f"enkfcontrol.{module}"), fn, None))


def test_counted_rhs_exists():
    from enkfcontrol.pde import Simulator

    assert "rhs" in vars(Simulator)
