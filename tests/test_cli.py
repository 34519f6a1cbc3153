import os
import subprocess
import sys

import numpy as np
import pytest

from enkfcontrol import enkf, harness
from enkfcontrol.cli import main
from enkfcontrol.config import default_config, load_config

SMALL = """\
[experiment]
p = 16
m = 2
T_sim = 0.01
n_trials = 2
seed = 5

[enkf]
particles = 50

[dmdc]
order = 4
trajectories = 3
steps = 20
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _files(out):
    return {name: _read(os.path.join(out, name)) for name in sorted(os.listdir(out))}


class TestEchoRoundTrip:
    @pytest.mark.parametrize("verb,written", [
        ("train", ["config.echo", "gain.bundle", "heatmap.csv", "timeseries.csv"]),
        ("fit-dmdc", ["config.echo", "heatmap.csv", "reduced_model.bundle", "timeseries.csv"]),
        ("simulate", ["config.echo", "heatmap.csv", "timeseries.csv"]),
        ("batch", ["config.echo", "heatmap.csv", "timeseries.csv"]),
    ])
    def test_rerun_from_echo_is_byte_identical(self, verb, written, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "first")
        assert main([verb, "--config", small_cfg, "--out", out, "--p", "12", "--m", "3"]) == 0
        first = _files(out)
        assert list(first) == written
        # --p/--m reach the echo, so the echo alone reproduces the run
        echoed = load_config(os.path.join(out, "config.echo"))
        assert (echoed.p, echoed.m) == (12, 3)
        again = str(tmp_path / "again")
        assert main([verb, "--config", os.path.join(out, "config.echo"), "--out", again]) == 0
        assert _files(again) == first

    def test_trials_only_with_dump_flag(self, small_cfg, tmp_path, capsys):
        plain, dumped = str(tmp_path / "plain"), str(tmp_path / "dumped")
        assert main(["batch", "--config", small_cfg, "--out", plain]) == 0
        assert main(["batch", "--config", small_cfg, "--out", dumped, "--dump-trials"]) == 0
        assert "trials.csv" not in os.listdir(plain)
        rows = _read(os.path.join(dumped, "trials.csv")).decode().splitlines()
        assert rows[0] == "policy,kind,d0,lambda,trial,terminal_ratio"
        assert len(rows) == 1 + 3 * 2  # three policies x n_trials
        for name in ("timeseries.csv", "heatmap.csv", "config.echo"):
            assert _read(os.path.join(dumped, name)) == _read(os.path.join(plain, name))

    @pytest.mark.parametrize("verb", ["train", "fit-dmdc", "simulate", "batch"])
    def test_bad_flag_exits_1(self, verb, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "bad")
        assert main([verb, "--config", small_cfg, "--out", out, "--m", "0"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.exists(out)


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

    def test_dump_trials_rows_follow_the_heat_map(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "grid")
        argv = ["grid", "--config", small_cfg, "--out", out, "--dump-trials",
                "--grid-d0", "0.0", "0.05", "--grid-lambda", "0.0", "0.2",
                "--grid-kinds", "sin", "const"]
        assert main(argv) == 0
        cells = [row.split(",") for row in _read(os.path.join(out, "heatmap.csv")).decode().splitlines()[1:]]
        rows = [row.split(",") for row in _read(os.path.join(out, "trials.csv")).decode().splitlines()[1:]]
        n_trials = 2
        assert len(cells) == 2 * 2 * 2
        assert len(rows) == len(cells) * n_trials
        for i, (policy, kind, d0, lam, trial, _) in enumerate(rows):
            assert policy == "robust"
            assert [kind, d0, lam] == cells[i // n_trials][:3]
            assert trial == str(i % n_trials)
        for j, cell in enumerate(cells):
            ratios = [float(r[-1]) for r in rows[j * n_trials:(j + 1) * n_trials]]
            assert float(cell[-1]) == pytest.approx(np.mean(ratios), rel=1e-15)

    def test_bad_grid_flag_fails_fast(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "bad")
        assert main(["grid", "--config", small_cfg, "--out", out, "--grid-d0", "-1"]) == 1
        assert "error" in capsys.readouterr().err


class TestBurgersTrain:
    ARGV = ["train", "--pde", "burgers", "--p", "32", "--m", "4", "--particles", "200"]

    def test_defaults_train_on_the_reduced_model(self, tmp_path, capsys):
        out = str(tmp_path / "burgers")
        assert main(self.ARGV + ["--out", out]) == 0
        assert "model = dmdc\n" in _read(os.path.join(out, "config.echo")).decode()
        for name in ("gain.bundle", "reduced_model.bundle"):
            assert os.path.exists(os.path.join(out, name))

    def test_full_state_fails_before_any_ensemble_step(self, tmp_path, capsys, monkeypatch):
        def no_ensemble(*args, **kwargs):
            raise AssertionError("an ensemble ran")

        monkeypatch.setattr(harness, "run_dual_enkf_linear", no_ensemble)
        monkeypatch.setattr(enkf, "init_covariance", no_ensemble)
        out = str(tmp_path / "burgers")
        assert main(self.ARGV + ["--model", "full", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--model dmdc" in err and "--gain" in err
        assert not os.path.exists(os.path.join(out, "gain.bundle"))


class TestConfigFilePde:
    """Keys a --config file leaves out take the defaults of the final PDE."""

    @pytest.mark.parametrize("file_pde,flag_pde", [(None, "burgers"), ("burgers", "heat")])
    def test_unset_keys_follow_the_pde_flag(self, file_pde, flag_pde, tmp_path, capsys):
        path = tmp_path / "seed.cfg"
        path.write_text("[experiment]\n" + (f"pde = {file_pde}\n" if file_pde else "") + "seed = 3\n")
        out = str(tmp_path / "fit")
        argv = ["fit-dmdc", "--config", str(path), "--pde", flag_pde, "--p", "16", "--m", "2",
                "--out", out]
        assert main(argv) == 0
        echoed = load_config(os.path.join(out, "config.echo"))
        assert echoed == default_config(flag_pde, seed=3, p=16, m=2, model="dmdc")


class TestBadInput:
    def test_particles_not_above_the_design_dimension(self, small_cfg, tmp_path, capsys, monkeypatch):
        # N <= p fails as the config is read, naming the key, its value and p
        def no_step(*args, **kwargs):
            raise AssertionError("an EnKF step ran")

        monkeypatch.setattr(enkf, "step_linear", no_step)
        out = str(tmp_path / "bad")
        argv = ["train", "--config", small_cfg, "--out", out, "--p", "12", "--m", "2",
                "--particles", "12"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[enkf] particles = 12" in err and "[experiment] p = 12" in err
        assert not os.path.exists(os.path.join(out, "gain.bundle"))

    def test_particles_not_above_the_dmdc_order(self, small_cfg, tmp_path, capsys, monkeypatch):
        # fails as the config is read, before the snapshots for the fit
        def no_snapshots(*args, **kwargs):
            raise AssertionError("snapshots were collected")

        monkeypatch.setattr(harness.dmdc_mod, "collect_snapshots", no_snapshots)
        out = str(tmp_path / "bad")
        argv = ["train", "--config", small_cfg, "--out", out, "--model", "dmdc", "--particles", "4"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "[enkf] particles = 4" in err and "[dmdc] order = 4" in err
        assert not os.path.exists(os.path.join(out, "gain.bundle"))

    def test_negative_seed_names_the_setting(self, small_cfg, tmp_path, capsys):
        out = str(tmp_path / "bad")
        assert main(["train", "--config", small_cfg, "--out", out, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: config: [experiment] seed must be nonnegative\n"
        assert not os.path.exists(out)

    def test_malformed_gain_bundle_names_the_block(self, small_cfg, tmp_path, capsys):
        gain = tmp_path / "gain.bundle"
        gain.write_text("format=enkfcontrol-bundle-v1\nkind=gain\nn=2\n[S0]\n1,0\n0,1\n")
        out = str(tmp_path / "bad")
        assert main(["batch", "--config", small_cfg, "--gain", str(gain), "--out", out]) == 1
        assert capsys.readouterr().err == "error: BundleError: missing [P] block\n"
        assert not os.path.exists(out)


def test_oracle_prints_the_riccati_references():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-m", "enkfcontrol", "oracle"],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    scalar, diagonal, abscissa = run.stdout.splitlines()
    P = float(scalar.split("P = ")[1].split()[0])
    assert abs(P - 1.0) <= 1e-12
    errors = [float(scalar.rsplit("residual ", 1)[1]), float(diagonal.rsplit("= ", 1)[1])]
    assert max(errors) <= 1e-12
    assert abscissa.rsplit(": ", 1)[1] == f"{-np.sqrt(2.0):.6g}"  # -sqrt(2) as printed


def test_heat_full_train_imports_no_scipy(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("import sys; from enkfcontrol.cli import main; "
            "rc = main(['train', '--pde', 'heat', '--p', '12', '--m', '2', '--particles', '50', "
            "'--out', sys.argv[1]]); print(rc, 'scipy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"
