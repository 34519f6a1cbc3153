import glob
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from enkfcontrol import bundles, cli, dmdc, enkf, harness
from enkfcontrol.cli import build_parser, main, resolve_config
from enkfcontrol.config import default_config, load_config
from enkfcontrol.pde import GridSpec, build_control_matrix, second_difference_matrix
from enkfcontrol.riccati import LtiSystem, solve_dre

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


@pytest.mark.filterwarnings("error")  # a warning a verb writes to stderr fails the run
class TestEchoRoundTrip:
    @pytest.mark.parametrize("verb,written", [
        ("train", ["config.echo", "gain.bundle", "heatmap.csv", "timeseries.csv"]),
        ("fit-dmdc", ["config.echo", "heatmap.csv", "reduced_model.bundle", "timeseries.csv"]),
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

    @pytest.mark.parametrize("verb", ["train", "fit-dmdc", "batch"])
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

    def test_full_state_trains_on_the_linearization(self, tmp_path, capsys):
        # the design model is the Jacobian nu D2 at the origin with the plant's B, so the
        # learned P is near the Riccati solution of that pair (0.057 here, 0.051 at seed 1)
        out = str(tmp_path / "burgers")
        argv = ["train", "--pde", "burgers", "--model", "full", "--p", "32", "--m", "4", "--out", out]
        assert main(argv) == 0
        cfg = load_config(os.path.join(out, "config.echo"))
        P = bundles.load_gain(os.path.join(out, "gain.bundle")).P
        grid = GridSpec(p=cfg.p, L=cfg.L)
        A, B = cfg.nu * second_difference_matrix(grid, cfg.bc), build_control_matrix(grid, cfg.m)
        steps = max(1000, math.ceil(20.0 * cfg.T_sim * np.linalg.norm(A, 2)))
        system = LtiSystem(A, B, np.sqrt(cfg.q) * np.eye(cfg.p), cfg.r_input * np.eye(cfg.m),
                           cfg.g * np.eye(cfg.p))
        P_dre = solve_dre(system, cfg.T_sim, cfg.T_sim / steps)
        assert np.linalg.norm(P - P_dre) <= 0.1 * np.linalg.norm(P_dre)

    def test_full_state_batch_trains_its_own_gain(self, tmp_path, capsys):
        out = str(tmp_path / "burgers")
        argv = ["batch", "--pde", "burgers", "--model", "full", "--p", "32", "--m", "4",
                "--trials", "2", "--out", out]
        assert main(argv) == 0
        assert "model = full\n" in _read(os.path.join(out, "config.echo")).decode()
        assert os.path.exists(os.path.join(out, "timeseries.csv"))


class TestConfigFilePde:
    """Keys a --config file leaves out take the defaults of the final PDE, and flags override the rest."""

    def test_flags_apply_before_the_file_is_validated(self, tmp_path):
        # order 110 is out of range at heat's default p = 100, but not at the p = 128 the flag sets
        path = tmp_path / "big.cfg"
        path.write_text("[experiment]\nmodel = dmdc\n\n[dmdc]\norder = 110\n")
        argv = ["train", "--config", str(path), "--p", "128", "--m", "4", "--particles", "200"]
        cfg = resolve_config(build_parser().parse_args(argv))
        assert (cfg.p, cfg.m, cfg.dmdc_order, cfg.enkf_particles) == (128, 4, 110, 200)

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
        assert capsys.readouterr().err == "error: config: [experiment] seed must be nonnegative, got -1\n"
        assert not os.path.exists(out)

    def test_zero_dmdc_amplitude_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        # with no excitation the reduced B would be 0 and only a later batch would notice
        def no_snapshots(*args, **kwargs):
            raise AssertionError("snapshots were collected")

        monkeypatch.setattr(harness.dmdc_mod, "collect_snapshots", no_snapshots)
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SMALL + "amplitude = 0\n")
        out = str(tmp_path / "bad")
        assert main(["train", "--config", str(cfg), "--model", "dmdc", "--out", out]) == 1
        assert capsys.readouterr().err == "error: config: [dmdc] amplitude must be positive, got 0\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flag,text,err",
        [
            ("--config", "p = 10\n",
             "config: malformed config file: line 1: 'p = 10' comes before any [section] header"),
            ("--config", "[experiment]\np 10\n",
             "config: malformed config file: line 2: 'p 10' is neither a [section] header nor key = value"),
            ("--config", "[experiment]\np = 10\n\n[experiment]\nm = 2\n",
             "config: malformed config file: line 4: '[experiment]' repeats a section above it"),
            ("--config", None, "io: [Errno 2] No such file or directory: {path!r}"),
            ("--gain", None, "io: [Errno 2] No such file or directory: {path!r}"),
        ],
        ids=["no-header", "no-delimiter", "duplicate-section", "missing-config", "missing-gain"],
    )
    def test_unreadable_input_file_is_one_line(self, flag, text, err, small_cfg, tmp_path, capsys):
        # configparser's own messages span lines and name '<string>'; a file that is not there is one io line
        path, out = tmp_path / "input", str(tmp_path / "bad")
        if text is not None:
            path.write_text(text)
        argv = ["batch", *(["--config", small_cfg] if flag == "--gain" else []), flag, str(path), "--out", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: " + err.format(path=str(path)) + "\n"
        assert not os.path.exists(out)

    def test_malformed_gain_bundle_names_the_block(self, small_cfg, tmp_path, capsys):
        gain = tmp_path / "gain.bundle"
        gain.write_text("format=enkfcontrol-bundle-v1\nkind=gain\nn=2\n[S0]\n1,0\n0,1\n")
        out = str(tmp_path / "bad")
        assert main(["batch", "--config", small_cfg, "--gain", str(gain), "--out", out]) == 1
        assert capsys.readouterr().err == "error: BundleError: missing [P] block\n"
        assert not os.path.exists(out)

    def test_dmdc_failures_name_the_settings_to_change(self, small_cfg, tmp_path, capsys, monkeypatch):
        # heat at p = 20 from one 30-step trajectory supports rank 14, below order 20
        thin = tmp_path / "thin.cfg"
        thin.write_text("[experiment]\np = 20\nm = 4\n\n[dmdc]\norder = 20\ntrajectories = 1\nsteps = 30\n")
        assert main(["fit-dmdc", "--config", str(thin), "--out", str(tmp_path / "thin")]) == 1
        assert capsys.readouterr().err == (
            "error: FitError: snapshot data supports rank 14 < requested n=20; lower [dmdc] order = 20, "
            "or raise [dmdc] trajectories = 1 or [dmdc] steps = 30\n")

        def not_real(*args):
            raise dmdc.ConversionError("matrix logarithm is not real")

        monkeypatch.setattr(harness.dmdc_mod, "to_continuous", not_real)
        assert main(["fit-dmdc", "--config", small_cfg, "--out", str(tmp_path / "small")]) == 1
        assert capsys.readouterr().err == (
            "error: ConversionError: matrix logarithm is not real; try a smaller [experiment] dt_sim = 0.001 "
            "or another [dmdc] order = 4\n")

    def test_rank_deficient_reduced_b_fails_the_rollout(self, small_cfg, tmp_path, capsys):
        # the design B has a zero column: train takes it, and the first controlled rollout names the
        # column (an uncontrolled-only rollout, which compiles no law, is in test_harness)
        B = np.zeros((4, 2))
        B[0, 0] = 1.0
        model = tmp_path / "reduced_model.bundle"
        bundles.save_reduced_model(dmdc.ReducedModel(A=-np.eye(4), B=B, Phi=np.eye(4, 16)), str(model))
        flags = ["--config", small_cfg, "--model", "dmdc", "--reduced-model", str(model)]
        assert main(["train", *flags, "--out", str(tmp_path / "train")]) == 0
        out = str(tmp_path / "batch")
        assert main(["batch", *flags, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: RankDeficientError: input matrix has column rank 1 < m=2; null space involves columns [1]; "
            "refit the reduced model with fit-dmdc at [dmdc] order >= [experiment] m = 2 (now 4)\n")
        assert not os.path.exists(out)

    def test_reduced_order_below_m_names_the_refit(self, tmp_path, capsys):
        # a fit of order 3 has a 3 x 4 B, of rank 3 < m = 4: train takes it, and the controlled
        # rollout names the fit-dmdc setting that fixes it
        order = tmp_path / "order.cfg"
        order.write_text(SMALL.replace("order = 4", "order = 3"))
        flags = ["--config", str(order), "--m", "4", "--model", "dmdc"]
        assert main(["train", *flags, "--out", str(tmp_path / "train")]) == 0
        capsys.readouterr()
        assert main(["batch", *flags, "--out", str(tmp_path / "batch")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: RankDeficientError: input matrix has column rank 3 < m=4; ")
        assert err.endswith("; refit the reduced model with fit-dmdc at [dmdc] order >= [experiment] m = 4 (now 3)\n")

    def test_diverging_chain_names_the_step_to_change(self, tmp_path, capsys):
        # [enkf] dt = 0.05 is five times 0.75/|nu D2|_2 on the 32-cell Burgers linearization, so
        # the chain diverges; the error keeps its time and names the key, the step taken and the stable one
        cfg = tmp_path / "dt.cfg"
        cfg.write_text("[enkf]\ndt = 0.05\n")
        argv = ["train", "--config", str(cfg), "--pde", "burgers", "--model", "full", "--p", "32", "--m", "4"]
        out = str(tmp_path / "out")
        assert main([*argv, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: DivergenceError: ensemble covariance became non-finite or indefinite at t=2.75; the chain "
            "stepped 0.05 ([enkf] dt = 0.05); set [enkf] dt at or below the stable step 0.75/|A|_2 = 0.0092\n")
        assert not os.path.exists(out)
        with pytest.raises(enkf.DivergenceError) as err:
            harness.build_artifacts(resolve_config(build_parser().parse_args([*argv, "--out", out])))
        assert err.value.t == pytest.approx(2.75)

    def test_train_checks_no_rank_and_a_batch_compiles_one_law(self, small_cfg, tmp_path, capsys, monkeypatch):
        # the rank check lives in compile_law's one SVD of the design B: train calls no SVD,
        # and a batch's three policies share one stack, so one law and one SVD
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        train = str(tmp_path / "train")
        assert main(["train", "--config", small_cfg, "--out", train]) == 0
        assert shapes == []
        gain = os.path.join(train, "gain.bundle")
        assert main(["batch", "--config", small_cfg, "--gain", gain, "--out", str(tmp_path / "batch")]) == 0
        assert shapes == [(16, 2)]

    @pytest.mark.parametrize("model,fix", [
        ("dmdc", "; pass --reduced-model, or drop --gain so the run fits and trains its own\n"),
        ("full", "; run with the settings the gain was trained with (a dmdc gain: --model dmdc "
                 "--reduced-model), or retrain it with train\n"),
    ], ids=["dmdc", "full"])
    def test_dmdc_gain_without_its_reduced_model_names_the_fix(self, model, fix, small_cfg, tmp_path, capsys):
        train = str(tmp_path / "train")
        assert main(["train", "--config", small_cfg, "--model", "dmdc", "--out", train]) == 0
        capsys.readouterr()
        out = str(tmp_path / "batch")
        argv = ["batch", "--config", small_cfg, "--model", model, "--gain", os.path.join(train, "gain.bundle"),
                "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HarnessError: ") and err.endswith(fix)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--gain", "--reduced-model"])
    def test_fit_dmdc_rejects_a_bundle_flag(self, flag, tmp_path, capsys, monkeypatch):
        # fit-dmdc loads no bundle, so argparse rejects a bundle flag before any snapshot
        def no_snapshots(*args, **kwargs):
            raise AssertionError("snapshots were collected")

        monkeypatch.setattr(harness.dmdc_mod, "collect_snapshots", no_snapshots)
        out = str(tmp_path / "fit")
        argv = ["fit-dmdc", "--pde", "heat", "--p", "16", "--m", "2", flag, "/nonexistent.bundle",
                "--out", out]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} /nonexistent.bundle" in capsys.readouterr().err
        assert not os.path.exists(out)


# a non-default value for each flag that sets a config field: (argv values, field, field value)
OVERRIDES = {
    "--pde": (["burgers"], "pde", "burgers"),
    "--nu": (["0.01"], "nu", 0.01),
    "--lambda": (["0.3"], "lam", 0.3),
    "--d0": (["0.4"], "d0", 0.4),
    "--disturbance": (["const"], "dist_kind", "const"),
    "--trials": (["7"], "n_trials", 7),
    "--seed": (["9"], "seed", 9),
    "--p": (["40"], "p", 40),
    "--m": (["4"], "m", 4),
    "--particles": (["500"], "enkf_particles", 500),
    "--model": (["dmdc"], "model", "dmdc"),
    "--grid-d0": (["0.05", "0.3"], "grid_d0", (0.05, 0.3)),
    "--grid-lambda": (["0.0", "0.3"], "grid_lambda", (0.0, 0.3)),
    "--grid-kinds": (["const"], "grid_kinds", ("const",)),
}
# argv values for every flag of cli.FLAGS
FLAG_VALUES = {
    **{flag: values for flag, (values, _, _) in OVERRIDES.items()},
    "--config": ["run.cfg"], "--out": ["run"], "--gain": ["gain.bundle"],
    "--reduced-model": ["reduced_model.bundle"], "--dump-trials": [],
}
CONFIG_VERBS = list(cli.VERBS)


class TestVerbFlags:
    """Each verb takes exactly the flags its row of cli.VERBS lists."""

    def test_flag_sets(self):
        config = {"--config", "--pde", "--nu", "--lambda", "--d0", "--disturbance", "--trials",
                  "--seed", "--p", "--m", "--particles", "--out"}
        rollout = config | {"--model", "--gain", "--reduced-model", "--dump-trials"}
        assert {name: set(verb.flags) for name, verb in cli.VERBS.items()} == {
            "train": config | {"--model", "--reduced-model"},
            "fit-dmdc": config,
            "batch": rollout,
            "grid": rollout | {"--grid-d0", "--grid-lambda", "--grid-kinds"},
        }
        with pytest.raises(SystemExit) as exc:
            main(["oracle"])  # a verb no longer offered is a usage error
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb,flag", [
        (verb, flag) for verb, row in cli.VERBS.items() for flag in cli.FLAGS if flag not in row.flags
    ])
    def test_unlisted_flag_exits_2_before_any_work(self, verb, flag, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(harness, "run_dual_enkf_linear", no_work)
        monkeypatch.setattr(harness.dmdc_mod, "collect_snapshots", no_work)
        out = str(tmp_path / "out")
        argv = [verb] + (["--out", out] if "--out" in cli.VERBS[verb].flags else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag] + FLAG_VALUES[flag])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith("error: unrecognized arguments: " + " ".join([flag] + FLAG_VALUES[flag]))
        assert not os.path.exists(out)

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_main_parses_as_the_full_parser(self, verb, monkeypatch):
        # main builds only the named verb's flags; a full flag line reads the same
        parsed = []
        monkeypatch.setitem(cli.VERBS, verb, cli.VERBS[verb]._replace(fn=parsed.append))
        argv = [verb] + [word for flag in cli.VERBS[verb].flags for word in [flag] + FLAG_VALUES[flag]]
        assert main(argv) is None
        assert parsed == [build_parser().parse_args(argv)]

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    @pytest.mark.parametrize("bad", [["--grid-d0", "1", "--bogus"], ["--p", "x"], ["--pde"]],
                             ids=["unknown-flag", "bad-value", "missing-value"])
    def test_main_fails_as_the_full_parser(self, verb, bad, capsys):
        # main's one-verb parser prints the usage and error the full parser does, byte for byte
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args([verb, *bad])
        want = capsys.readouterr().err
        with pytest.raises(SystemExit) as one:
            main([verb, *bad])
        assert one.value.code == full.value.code == 2
        assert capsys.readouterr().err == want
        assert want.startswith("usage: enkfcontrol ")

    @pytest.mark.parametrize("verb,flag", [
        (verb, flag) for verb in CONFIG_VERBS for flag in cli.VERBS[verb].flags if flag in OVERRIDES
    ])
    def test_a_dest_naming_a_field_overrides_it(self, verb, flag):
        values, field, value = OVERRIDES[flag]
        base = resolve_config(build_parser().parse_args([verb]))
        assert getattr(base, field) != value
        cfg = resolve_config(build_parser().parse_args([verb, flag] + values))
        assert getattr(cfg, field) == value
        if flag != "--pde":  # the PDE picks every default; any other flag sets its field alone
            assert cfg == replace(base, **{field: value})

    def test_fit_dmdc_validates_as_the_model_it_fits(self, tmp_path, capsys):
        # N only has to exceed the reduced order, not p
        out = str(tmp_path / "fit")
        argv = ["fit-dmdc", "--pde", "heat", "--p", "16", "--m", "2", "--particles", "12", "--out", out]
        assert main(argv) == 0
        echo = _read(os.path.join(out, "config.echo")).decode().splitlines()
        assert "model = dmdc" in echo and "particles = 12" in echo

    def test_train_on_a_fitted_reduced_model(self, small_cfg, tmp_path, capsys, monkeypatch):
        fit = str(tmp_path / "fit")
        assert main(["fit-dmdc", "--config", small_cfg, "--out", fit]) == 0
        bundle = os.path.join(fit, "reduced_model.bundle")

        def no_snapshots(*args, **kwargs):
            raise AssertionError("snapshots were collected")

        monkeypatch.setattr(harness.dmdc_mod, "collect_snapshots", no_snapshots)
        out = str(tmp_path / "train")
        argv = ["train", "--config", small_cfg, "--model", "dmdc", "--reduced-model", bundle,
                "--out", out]
        assert main(argv) == 0
        order = bundles.load_reduced_model(bundle).n
        assert order == 4
        assert bundles.load_gain(os.path.join(out, "gain.bundle")).n == order
        assert _read(os.path.join(out, "reduced_model.bundle")) == _read(bundle)


def _subprocess_env():
    """This environment with the package sources first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _fresh_modules(statement):
    """The modules a fresh interpreter holds after running ``statement``."""
    code = statement + "; import sys; print(' '.join(sys.modules))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_subprocess_env(), check=True)
    return set(run.stdout.split())


def test_simulate_is_no_verb():
    # one trial of one policy is batch --trials 1, so simulate is argparse's invalid choice
    run = subprocess.run([sys.executable, "-m", "enkfcontrol", "simulate", "--pde", "heat"],
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 2
    assert "invalid choice: 'simulate'" in run.stderr


def test_package_import_loads_nothing():
    # python -m enkfcontrol pins the BLAS threads before numpy loads, after the package __init__ ran
    loaded = _fresh_modules("import enkfcontrol")
    assert "enkfcontrol" in loaded and "numpy" not in loaded
    assert sorted(name for name in loaded if name.startswith("enkfcontrol.")) == []


def test_cli_import_loads_every_module():
    # bench/pipeline.py imports enkfcontrol.cli alone; bench/checks.py then reads pkg.riccati, pkg.pde,
    # pkg.harness, pkg.bundles and pkg.config, and the tracer takes each module its SPANNED table names
    # from sys.modules.  So every module of the package is loaded, in a fresh interpreter
    package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "enkfcontrol")
    modules = {os.path.basename(path)[:-3] for path in glob.glob(os.path.join(package, "*.py"))}
    modules -= {"__init__", "__main__"}
    assert {"riccati", "pde", "harness", "bundles", "config", "enkf", "dmdc", "controller", "results"} < modules
    assert {"enkfcontrol." + name for name in modules} <= _fresh_modules("import enkfcontrol.cli")


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # LAPACK's cholesky, inv and eigh give other bits at two threads than at one, so the
    # CLI pins one; heat training, its batch and the DMDc fit and training all call them
    digests = {}
    for threads in ("unset", "1", "2"):
        env = {k: v for k, v in _subprocess_env().items() if k not in BLAS_THREADS}
        if threads != "unset":
            env.update(dict.fromkeys(BLAS_THREADS, threads))
        out = tmp_path / threads
        for argv in (["train", "--pde", "heat", "--out", str(out / "full")],
                     ["batch", "--pde", "heat", "--gain", str(out / "full" / "gain.bundle"),
                      "--dump-trials", "--out", str(out / "batch")],
                     ["train", "--pde", "heat", "--model", "dmdc", "--out", str(out / "dmdc")]):
            run = subprocess.run([sys.executable, "-m", "enkfcontrol", *argv],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
        digests[threads] = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in out.rglob("*") if path.is_file()}
    assert {"full/gain.bundle", "batch/trials.csv", "dmdc/reduced_model.bundle"} <= set(digests["1"])
    assert digests["unset"] == digests["1"] == digests["2"]


@pytest.mark.parametrize("argv", [
    ["train", "--pde", "heat", "--p", "12", "--m", "2", "--particles", "50"],
    ["fit-dmdc", "--pde", "heat"],
    ["train", "--pde", "heat", "--model", "dmdc", "--p", "16", "--m", "2", "--particles", "50",
     "--trials", "2"],
], ids=["heat-full-train", "fit-dmdc", "train-dmdc"])
def test_verb_imports_no_scipy(tmp_path, argv):
    argv = argv + ["--out", str(tmp_path / "out")]
    code = ("import sys; from enkfcontrol.cli import main; "
            "rc = main(sys.argv[1:]); print(rc, 'scipy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


def test_no_module_imports_scipy():
    package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "enkfcontrol")
    modules = glob.glob(os.path.join(package, "**", "*.py"), recursive=True)
    assert len(modules) > 10
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert "import scipy" not in text and "from scipy" not in text, path
