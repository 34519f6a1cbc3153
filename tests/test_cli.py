import os

import pytest

from enkfcontrol.cli import main
from enkfcontrol.config import load_config

SMALL = """\
[experiment]
p = 16
m = 2
T_sim = 0.01
n_trials = 2
seed = 5

[enkf]
particles = 50
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGridEcho:
    def test_grid_flags_reach_the_echo(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "grid")
        argv = ["grid", "--config", small_cfg, "--out", out, "--grid-d0", "0.05",
                "--grid-lambda", "0.0", "0.2", "--grid-kinds", "const"]
        assert main(argv) == 0
        echoed = load_config(os.path.join(out, "config.echo"))
        assert echoed.grid_d0 == (0.05,)
        assert echoed.grid_lambda == (0.0, 0.2)
        assert echoed.grid_kinds == ("const",)
        rows = _read(os.path.join(out, "heatmap.csv")).decode().splitlines()
        assert len(rows) == 1 + 2

        # rerunning from the echo alone reproduces the heat map byte for byte
        again = str(tmp_path / "again")
        assert main(["grid", "--config", os.path.join(out, "config.echo"), "--out", again]) == 0
        for name in ("heatmap.csv", "config.echo"):
            assert _read(os.path.join(again, name)) == _read(os.path.join(out, name))

    def test_bad_grid_flag_fails_fast(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "bad")
        assert main(["grid", "--config", small_cfg, "--out", out, "--grid-d0", "-1"]) == 1
        assert "error" in capsys.readouterr().err
