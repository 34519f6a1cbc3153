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
        ],
    )
    def test_rejected_with_the_key_named(self, overrides, named):
        with pytest.raises(ConfigError, match=named):
            heat_config(**overrides)

    def test_infinite_value_in_a_file_rejected(self):
        with pytest.raises(ConfigError, match=r"\[experiment\] T_sim must be finite"):
            parse_config_text("[experiment]\nT_sim = inf\n")
