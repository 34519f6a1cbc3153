"""Every benchmark workload's config passes the package's config parser.

``bench/workloads.py`` hands each workload to the CLI as a partial config
file.  A new ``validate`` rule that rejects it, or a key the parser no
longer knows, would otherwise show only when the benchmark runs.  This
guard reads the workload table and runs nothing.
"""

import importlib.util
import os
import sys

import pytest

from enkfcontrol.config import parse_config_text

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


_module = _workloads()


@pytest.mark.parametrize("name", sorted(_module.WORKLOADS))
def test_workload_config_parses(name):
    parse_config_text(_module.config_text(_module.WORKLOADS[name], seed=1))
