import math
from dataclasses import fields, replace

import pytest

from enkfcontrol.config import (
    ConfigError,
    ExperimentConfig,
    default_config,
    parse_config_text,
    render_config,
)


class TestDefaults:
    def test_heat_defaults(self):
        cfg = default_config("heat")
        assert cfg.p == 100 and cfg.m == 8
        assert cfg.nu == 0.002
        assert cfg.T_sim == 0.1 and cfg.dt_sim == 1e-3
        assert cfg.enkf_particles == 10_000
        assert cfg.q == cfg.r_input == cfg.g == 1.0
        assert cfg.r_robust == 0.002

    def test_burgers_defaults(self):
        cfg = default_config("burgers")
        assert cfg.p == 128 and cfg.m == 10
        assert cfg.T_sim == 3.0
        assert cfg.r_input == 0.1
        assert cfg.enkf_particles == 1000
        assert cfg.dmdc_order == 10
        assert cfg.model == "dmdc"

    def test_overrides_validate(self):
        with pytest.raises(ConfigError):
            default_config("heat", m=200)  # m > p
        with pytest.raises(ConfigError):
            default_config("burgers", dist_kind="sawtooth")


class TestRoundTrip:
    def test_render_parse_identity(self):
        cfg = default_config("burgers", seed=7, lam=0.4, d0=0.05, nu=0.002,
                             grid_d0=(0.0, 0.1), channel=(1.0,) * 10)
        text = render_config(cfg)
        assert parse_config_text(text) == cfg

    def test_render_is_canonical(self):
        cfg = default_config("heat", seed=3)
        once = render_config(cfg)
        twice = render_config(parse_config_text(once))
        assert once == twice

    def test_auto_fields_roundtrip(self):
        cfg = default_config("heat", enkf_T=None, enkf_dt=None)
        text = render_config(cfg)
        assert "T = auto" in text
        loaded = parse_config_text(text)
        assert loaded.enkf_T is None and loaded.enkf_dt is None

    def test_every_setting_roundtrips(self):
        cfg = ExperimentConfig(
            pde="burgers", model="dmdc", nu=0.01, p=20, L=2.0, m=3, bc="dirichlet", T_sim=0.5,
            dt_sim=0.01, n_trials=5, seed=3, q=2.0, r_input=0.5, g=3.0, lam=0.3, r_robust=0.01,
            lambda_units="state", enkf_particles=50, enkf_T=0.25, enkf_dt=0.005, dist_kind="const",
            d0=0.2, channel=(1.0, 0.5, 0.25), dmdc_order=5, dmdc_trajectories=4, dmdc_steps=30,
            dmdc_amplitude=0.25, grid_d0=(0.0, 0.3), grid_lambda=(0.1,), grid_kinds=("none", "sin"),
        ).validate()
        # a field added later without a value here fails this line
        assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == f.default] == []
        auto = replace(cfg, enkf_T=None, enkf_dt=None, channel=None)
        for c, spelled in ((cfg, []), (auto, ["T = auto", "dt = auto", "channel = none"])):
            text = render_config(c)
            assert parse_config_text(text) == c
            lines = text.splitlines()
            assert all(line in lines for line in spelled)
            headers = [line for line in lines if line.startswith("[")]
            assert len(set(headers)) == len(headers) == 7


class TestStrictness:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config_text("[nonsense]\nkey = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[experiment]\nfoo = bar\n")

    def test_bad_number(self):
        # the message names the key whose value does not parse
        with pytest.raises(ConfigError, match=r"^\[experiment\] nu: expected a number, got 'not-a-number'$"):
            parse_config_text("[experiment]\nnu = not-a-number\n")
        with pytest.raises(ConfigError, match=r"^\[enkf\] particles: expected an integer, got '1e4'$"):
            parse_config_text("[enkf]\nparticles = 1e4\n")
        with pytest.raises(ConfigError, match=r"^\[grid\] d0_list: expected a number, got 'x'$"):
            parse_config_text("[grid]\nd0_list = 0.1, x\n")

    @pytest.mark.parametrize("text", ["[DEFAULT]\nnu = 0.5\n", "[DEFAULT]\np = 50\n[experiment]\nm = 4\n"])
    def test_default_section_is_unknown(self, text):
        # configparser's [DEFAULT] would otherwise be skipped, or fill in keys of every other section
        with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
            parse_config_text(text)

    def test_partial_file_fills_defaults(self):
        cfg = parse_config_text("[experiment]\npde = burgers\nnu = 0.002\n")
        assert cfg.pde == "burgers"
        assert cfg.nu == 0.002
        assert cfg.p == 128  # burgers default applied

    def test_default_config_rejects_unknown_pde(self):
        with pytest.raises(ConfigError):
            default_config("advection")


class TestRetiredKey:
    """[robust] b_access is no longer read: an old file's value is skipped."""

    TEXT = "[experiment]\nmodel = dmdc\n\n[robust]\nlambda = 0.3\n"

    @pytest.mark.parametrize("value", ["auto", "known", "simulator"])
    def test_old_value_parses_as_if_absent(self, value):
        old = self.TEXT + f"b_access = {value}\n"
        assert parse_config_text(old) == parse_config_text(self.TEXT)

    def test_render_writes_no_b_access_line(self):
        assert "b_access" not in render_config(default_config("heat"))

    def test_other_value_rejected_with_the_key_named(self):
        with pytest.raises(ConfigError, match=r"^\[robust\] b_access is no longer read; .* "
                                              r"one of auto, known, simulator, got probe$"):
            parse_config_text(self.TEXT + "b_access = probe\n")


class TestRangeChecks:
    @pytest.mark.parametrize(
        "overrides,named",
        [
            ({"seed": -1}, r"\[experiment\] seed"),
            ({"T_sim": math.inf}, r"\[experiment\] T_sim must be finite"),
            ({"lam": math.inf}, r"\[robust\] lambda must be finite"),
            ({"nu": math.nan}, r"\[experiment\] nu must be finite"),
            ({"enkf_dt": math.inf}, r"\[enkf\] dt must be finite"),
            ({"grid_d0": (0.0, math.inf)}, r"\[grid\] d0_list must be finite"),
            ({"grid_lambda": (math.nan,)}, r"\[grid\] lambda_list must be finite"),
            ({"channel": (1.0,) * 7 + (math.inf,)}, r"\[disturbance\] channel must be finite"),
            ({"p": 2, "m": 1}, r"\[experiment\] p must be at least 3, got 2$"),
            ({"L": 0.0}, r"\[experiment\] L must be positive, got 0$"),
            ({"m": 0}, r"\[experiment\] m must be between 1 and \[experiment\] p = 100, got 0$"),
            ({"m": 101}, r"\[experiment\] m must be between 1 and \[experiment\] p = 100, got 101$"),
            ({"nu": -0.002}, r"\[experiment\] nu must be positive, got -0.002$"),
            ({"bc": "neumann"}, r"\[experiment\] bc must be one of periodic, dirichlet, got neumann$"),
            ({"q": 0.0}, r"\[weights\] q must be positive, got 0$"),
            ({"r_input": -1.0}, r"\[weights\] r must be positive, got -1$"),
            ({"g": 0.0}, r"\[weights\] g must be positive, got 0$"),
            ({"enkf_particles": 100}, r"\[enkf\] particles = 100 must exceed the design dimension, \[experiment\] p = 100$"),
            ({"model": "dmdc", "enkf_particles": 10},
             r"\[enkf\] particles = 10 must exceed the design dimension, \[dmdc\] order = 10$"),
            ({"enkf_T": 0.0}, r"\[enkf\] T must be positive or auto, got 0$"),
            ({"enkf_dt": -1e-3}, r"\[enkf\] dt must be positive or auto, got -0.001$"),
            ({"lam": -0.25}, r"\[robust\] lambda must be nonnegative, got -0.25$"),
            ({"d0": -0.5}, r"\[disturbance\] d0 must be nonnegative, got -0.5$"),
            ({"r_robust": 0.0}, r"\[robust\] r must be positive, got 0$"),
            ({"grid_d0": ()}, r"\[grid\] d0_list must be nonempty, got nothing$"),
            ({"grid_kinds": ()}, r"\[grid\] kinds must be nonempty, got nothing$"),
            ({"grid_d0": (0.5, -0.5)}, r"\[grid\] d0_list must be nonnegative, got 0.5, -0.5$"),
            ({"grid_lambda": (-0.25,)}, r"\[grid\] lambda_list must be nonnegative, got -0.25$"),
            ({"grid_kinds": ("sin", "square")},
             r"\[grid\] kinds must each be one of sin, const, none, got sin, square$"),
            ({"lambda_units": "volts"}, r"\[robust\] lambda_units must be one of amplitude, state, got volts$"),
            ({"model": "dmdc", "dmdc_amplitude": 0.0}, r"\[dmdc\] amplitude must be positive, got 0$"),
            ({"model": "dmdc", "dmdc_amplitude": -0.5}, r"\[dmdc\] amplitude must be positive, got -0.5$"),
            ({"model": "dmdc", "dmdc_trajectories": 1, "dmdc_steps": 5},
             r"\[dmdc\] trajectories = 1 times \[dmdc\] steps = 5 gives 5 snapshots; "
             r"the fit needs at least \[dmdc\] order \+ \[experiment\] m = 18$"),
            # the shortest float that round-trips, not 17 digits
            ({"r_robust": -0.3}, r"\[robust\] r must be positive, got -0\.3$"),
            ({"grid_lambda": (0.1, -0.1)}, r"\[grid\] lambda_list must be nonnegative, got 0\.1, -0\.1$"),
            ({"channel": (1.0, 0.5)}, r"\[disturbance\] channel must have \[experiment\] m = 8 weights, got 1, 0\.5$"),
        ],
    )
    def test_rejected_with_the_key_named(self, overrides, named):
        with pytest.raises(ConfigError, match=named):
            default_config("heat", **overrides)

    def test_infinite_value_in_a_file_rejected(self):
        with pytest.raises(ConfigError, match=r"\[experiment\] T_sim must be finite"):
            parse_config_text("[experiment]\nT_sim = inf\n")

    def test_horizon_must_be_whole_steps(self):
        # the rollout would run to t = 0.02, past the configured horizon
        with pytest.raises(ConfigError, match=r"T_sim = 0\.015 .* dt_sim = 0\.01; the nearest valid T_sim is 0\.02$"):
            default_config("heat", T_sim=0.015, dt_sim=0.01)
        with pytest.raises(ConfigError, match="nearest valid T_sim is 0.001$"):
            parse_config_text("[experiment]\nT_sim = 0.0004\n")
        # 0.1 / 1e-3 is 100.00000000000001 in floating point
        assert default_config("heat", T_sim=0.1, dt_sim=1e-3).T_sim == 0.1
        assert default_config("heat", T_sim=0.3, dt_sim=0.1).T_sim == 0.3

    def test_dmdc_order_above_p_only_matters_for_the_dmdc_model(self):
        default_config("heat", p=9)  # order 10 > p, but model=full fits no reduced model
        with pytest.raises(ConfigError, match=r"\[dmdc\] order must be at most \[experiment\] p = 9, got 10$"):
            default_config("heat", p=9, model="dmdc")

    def test_unused_dmdc_settings_only_matter_for_the_dmdc_model(self):
        # model=full collects no snapshots, so their amplitude and count are not read
        default_config("heat", dmdc_amplitude=0.0, dmdc_trajectories=1, dmdc_steps=1)
