import math

import pytest

from enkfcontrol.config import (
    ConfigError,
    burgers_config,
    default_config,
    heat_config,
    parse_config_text,
    render_config,
)


class TestDefaults:
    def test_heat_defaults(self):
        cfg = heat_config()
        assert cfg.p == 100 and cfg.m == 8
        assert cfg.nu == 0.002
        assert cfg.T_sim == 0.1 and cfg.dt_sim == 1e-3
        assert cfg.enkf_particles == 10_000
        assert cfg.q == cfg.r_input == cfg.g == 1.0
        assert cfg.r_robust == 0.002

    def test_burgers_defaults(self):
        cfg = burgers_config()
        assert cfg.p == 128 and cfg.m == 10
        assert cfg.T_sim == 3.0
        assert cfg.r_input == 0.1
        assert cfg.enkf_particles == 1000
        assert cfg.dmdc_order == 10
        assert cfg.model == "dmdc"

    def test_overrides_validate(self):
        with pytest.raises(ConfigError):
            heat_config(m=200)  # m > p
        with pytest.raises(ConfigError):
            burgers_config(dist_kind="sawtooth")


class TestRoundTrip:
    def test_render_parse_identity(self):
        cfg = burgers_config(seed=7, lam=0.4, d0=0.05, nu=0.002,
                             grid_d0=(0.0, 0.1), channel=(1.0,) * 10)
        text = render_config(cfg)
        assert parse_config_text(text) == cfg

    def test_render_is_canonical(self):
        cfg = heat_config(seed=3)
        once = render_config(cfg)
        twice = render_config(parse_config_text(once))
        assert once == twice

    def test_auto_fields_roundtrip(self):
        cfg = heat_config(enkf_T=None, enkf_dt=None)
        text = render_config(cfg)
        assert "T = auto" in text
        loaded = parse_config_text(text)
        assert loaded.enkf_T is None and loaded.enkf_dt is None


class TestStrictness:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config_text("[nonsense]\nkey = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[experiment]\nfoo = bar\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config_text("[experiment]\nnu = not-a-number\n")

    def test_partial_file_fills_defaults(self):
        cfg = parse_config_text("[experiment]\npde = burgers\nnu = 0.002\n")
        assert cfg.pde == "burgers"
        assert cfg.nu == 0.002
        assert cfg.p == 128  # burgers default applied

    def test_default_config_rejects_unknown_pde(self):
        with pytest.raises(ConfigError):
            default_config("advection")


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
            ({"b_access": "probe"}, r"\[robust\] b_access must be one of auto, known, simulator, got probe$"),
            ({"model": "dmdc", "dmdc_amplitude": 0.0}, r"\[dmdc\] amplitude must be positive, got 0$"),
            ({"model": "dmdc", "dmdc_amplitude": -0.5}, r"\[dmdc\] amplitude must be positive, got -0.5$"),
            ({"model": "dmdc", "dmdc_trajectories": 1, "dmdc_steps": 5},
             r"\[dmdc\] trajectories = 1 times \[dmdc\] steps = 5 gives 5 snapshots; "
             r"the fit needs at least \[dmdc\] order \+ \[experiment\] m = 18$"),
        ],
    )
    def test_rejected_with_the_key_named(self, overrides, named):
        with pytest.raises(ConfigError, match=named):
            heat_config(**overrides)

    def test_infinite_value_in_a_file_rejected(self):
        with pytest.raises(ConfigError, match=r"\[experiment\] T_sim must be finite"):
            parse_config_text("[experiment]\nT_sim = inf\n")

    def test_horizon_must_be_whole_steps(self):
        # the rollout would run to t = 0.02, past the configured horizon
        with pytest.raises(ConfigError, match=r"T_sim = 0\.015 .* dt_sim = 0\.01; the nearest valid T_sim is 0\.02$"):
            heat_config(T_sim=0.015, dt_sim=0.01)
        with pytest.raises(ConfigError, match="nearest valid T_sim is 0.001$"):
            parse_config_text("[experiment]\nT_sim = 0.0004\n")
        # 0.1 / 1e-3 is 100.00000000000001 in floating point
        assert heat_config(T_sim=0.1, dt_sim=1e-3).T_sim == 0.1
        assert heat_config(T_sim=0.3, dt_sim=0.1).T_sim == 0.3

    def test_dmdc_order_above_p_only_matters_for_the_dmdc_model(self):
        heat_config(p=9)  # order 10 > p, but model=full fits no reduced model
        with pytest.raises(ConfigError, match=r"\[dmdc\] order must be at most \[experiment\] p = 9, got 10$"):
            heat_config(p=9, model="dmdc")

    def test_unused_dmdc_settings_only_matter_for_the_dmdc_model(self):
        # model=full collects no snapshots, so their amplitude and count are not read
        heat_config(dmdc_amplitude=0.0, dmdc_trajectories=1, dmdc_steps=1)
