import os

import numpy as np
import pytest

from enkfcontrol.config import default_config, render_config
from enkfcontrol.harness import Case, CaseResult
from enkfcontrol.results import EmitError, emit_results


def _text(path):
    with open(path) as fh:
        return fh.read()


def _result(case, offset=0.0, ratios=(1.0,)):
    t = np.array([0.0, 0.5])
    return CaseResult(
        case=case, t=t, mean=t + offset, variance=np.zeros(2), ratios=np.array(ratios), failures=0
    )


class TestEmit:
    def test_empty_result_set_writes_headers(self, tmp_path):
        cfg = default_config("heat")
        paths = emit_results(cfg, str(tmp_path))
        assert [os.path.basename(p) for p in paths] == ["timeseries.csv", "heatmap.csv", "config.echo"]
        assert _text(paths[0]) == "policy,t,mean,variance\n"
        assert _text(paths[1]) == "kind,d0,lambda,mean_terminal_ratio\n"
        assert _text(paths[2]) == render_config(cfg)
        assert not os.path.exists(tmp_path / "trials.csv")

    def test_empty_trials_still_writes_header(self, tmp_path):
        paths = emit_results(default_config("heat"), str(tmp_path), dump_trials=True)
        assert os.path.basename(paths[-1]) == "trials.csv"
        assert _text(paths[-1]) == "policy,kind,d0,lambda,trial,terminal_ratio\n"

    def test_rows_in_fixed_order_with_17_digits(self, tmp_path):
        # the series in POLICIES order, as batch passes it; rows follow the order given
        series = [
            _result(Case("uncontrolled", "sin", 0.1, 0.0), 0.2),
            _result(Case("robust", "sin", 0.1, 0.2), 0.1, ratios=(np.inf,)),
        ]
        cell = _result(Case("robust", "sin", 0.1, 0.2), ratios=(1 / 3,))
        paths = emit_results(default_config("heat"), str(tmp_path), timeseries=series, heatmap=[cell], dump_trials=True)
        assert _text(paths[0]).splitlines()[1:] == [
            "uncontrolled,0,0.20000000000000001,0",
            "uncontrolled,0.5,0.69999999999999996,0",
            "robust,0,0.10000000000000001,0",
            "robust,0.5,0.59999999999999998,0",
        ]
        assert _text(paths[1]).splitlines()[1] == "sin,0.10000000000000001,0.20000000000000001,0.33333333333333331"
        # trial rows follow the timeseries order, then the heat-map cells
        assert _text(paths[3]).splitlines()[1:] == [
            "uncontrolled,sin,0.10000000000000001,0,0,1",
            "robust,sin,0.10000000000000001,0.20000000000000001,0,inf",
            "robust,sin,0.10000000000000001,0.20000000000000001,0,0.33333333333333331",
        ]

    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(EmitError):
            emit_results(default_config("heat"), str(blocker / "out"))
