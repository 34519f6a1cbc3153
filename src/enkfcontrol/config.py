"""Experiment configuration: defaults, validation, strict file format.

Config files are flat ``key = value`` text with section headers.  Parsing is
strict: unknown sections or keys are errors, so a saved ``config.echo`` is
always a complete, loadable record of a run.  Floats are echoed with 17
significant digits; rerunning from an echo reproduces the run byte for byte.

:meth:`ExperimentConfig.validate` is the package's one range check, and
each of its messages names the ``[section] key`` to change.  The engine
(``pde``, ``enkf``, ``dmdc``, ``controller``, ``harness``) trusts a
validated config and a bundle that ``bundles`` loaded, and checks no range
again; it raises only when the numerics fail.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields, replace

from .pde import BOUNDARY_CONDITIONS

PDE_KINDS = ("heat", "burgers")
MODEL_PATHS = ("full", "dmdc")
DISTURBANCE_KINDS = ("sin", "const", "none")
B_ACCESS_CHOICES = ("auto", "known", "simulator")
LAMBDA_UNITS = ("amplitude", "state")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    # experiment
    pde: str = "heat"
    model: str = "full"
    nu: float = 0.002
    p: int = 100
    L: float = 1.0
    m: int = 8
    bc: str = "periodic"
    T_sim: float = 0.1
    dt_sim: float = 1e-3
    n_trials: int = 100
    seed: int = 0
    # cost weights, scaled identities
    q: float = 1.0
    r_input: float = 1.0
    g: float = 1.0
    # robust term
    lam: float = 0.2
    r_robust: float = 0.002
    b_access: str = "auto"
    lambda_units: str = "amplitude"
    # dual EnKF
    enkf_particles: int = 10000
    enkf_T: float | None = None  # None = auto
    enkf_dt: float | None = None  # None = auto
    # disturbance
    dist_kind: str = "sin"
    d0: float = 0.1
    channel: tuple[float, ...] | None = None
    # reduced model
    dmdc_order: int = 10
    dmdc_trajectories: int = 20
    dmdc_steps: int = 150
    dmdc_amplitude: float = 0.5
    # grid sweep
    grid_d0: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
    grid_lambda: tuple[float, ...] = (0.0, 0.1, 0.2, 0.4)
    grid_kinds: tuple[str, ...] = ("sin", "const")

    def validate(self) -> "ExperimentConfig":
        """This config, after every range check the package makes on it.

        Each message names the rule's ``[section] key`` and the value it
        rejects.
        """
        def expect(cond, msg):
            if not cond:
                raise ConfigError(msg)

        def must(name, requirement):
            return f"{_FILE_KEYS[name]} must {requirement}, got {_fmt(getattr(self, name)) or 'nothing'}"

        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            expect(all(math.isfinite(v) for v in values if isinstance(v, float)), must(f.name, "be finite"))
        expect(self.seed >= 0, must("seed", "be nonnegative"))
        for name, choices in (("pde", PDE_KINDS), ("model", MODEL_PATHS), ("bc", BOUNDARY_CONDITIONS),
                              ("dist_kind", DISTURBANCE_KINDS), ("b_access", B_ACCESS_CHOICES),
                              ("lambda_units", LAMBDA_UNITS)):
            expect(getattr(self, name) in choices, must(name, f"be one of {', '.join(choices)}"))
        for name in ("nu", "L", "T_sim", "dt_sim", "q", "r_input", "g", "r_robust"):
            expect(getattr(self, name) > 0, must(name, "be positive"))
        expect(self.p >= 3, must("p", "be at least 3"))
        expect(1 <= self.m <= self.p, must("m", f"be between 1 and [experiment] p = {self.p}"))
        steps = self.T_sim / self.dt_sim  # the rollout takes round(steps) steps
        expect(abs(steps - round(steps)) <= 1e-9 * steps,
               f"[experiment] T_sim = {self.T_sim!r} is not a whole number of steps of "
               f"dt_sim = {self.dt_sim!r}; the nearest valid T_sim is "
               f"{max(1, round(steps)) * self.dt_sim:.12g}")
        expect(self.n_trials >= 1, must("n_trials", "be at least 1"))
        expect(self.lam >= 0, must("lam", "be nonnegative"))
        expect(self.d0 >= 0, must("d0", "be nonnegative"))
        # the ensemble covariance of the design model must have full rank
        key, design = (("[dmdc] order", self.dmdc_order) if self.model == "dmdc"
                       else ("[experiment] p", self.p))
        expect(self.enkf_particles > design,
               f"[enkf] particles = {self.enkf_particles} must exceed the design dimension, {key} = {design}")
        for name in ("enkf_T", "enkf_dt"):
            expect(getattr(self, name) is None or getattr(self, name) > 0, must(name, "be positive or auto"))
        if self.channel is not None:
            expect(len(self.channel) == self.m, must("channel", f"have [experiment] m = {self.m} weights"))
        for name in ("dmdc_order", "dmdc_trajectories", "dmdc_steps"):
            expect(getattr(self, name) >= 1, must(name, "be at least 1"))
        if self.model == "dmdc":
            expect(self.dmdc_order <= self.p, must("dmdc_order", f"be at most [experiment] p = {self.p}"))
            expect(self.dmdc_amplitude > 0, must("dmdc_amplitude", "be positive"))
            snapshots, needed = self.dmdc_trajectories * self.dmdc_steps, self.dmdc_order + self.m
            expect(snapshots >= needed,
                   f"[dmdc] trajectories = {self.dmdc_trajectories} times [dmdc] steps = "
                   f"{self.dmdc_steps} gives {snapshots} snapshots; the fit needs at least "
                   f"[dmdc] order + [experiment] m = {needed}")
        for name in ("grid_d0", "grid_lambda", "grid_kinds"):
            expect(len(getattr(self, name)) > 0, must(name, "be nonempty"))
        for name in ("grid_d0", "grid_lambda"):
            expect(min(getattr(self, name)) >= 0, must(name, "be nonnegative"))
        expect(set(self.grid_kinds) <= set(DISTURBANCE_KINDS),
               must("grid_kinds", f"each be one of {', '.join(DISTURBANCE_KINDS)}"))
        return self


def heat_config(**overrides) -> ExperimentConfig:
    """Heat-equation defaults: p=100, m=8, nu=0.002, T=0.1, N=10^4, Q=G=R=I."""
    return replace(ExperimentConfig(), **overrides).validate()


def burgers_config(**overrides) -> ExperimentConfig:
    """Burgers defaults: p=128, m=10, T=3, N=10^3, Q=G=I, R=0.1 I, model=dmdc."""
    base = ExperimentConfig(
        pde="burgers",
        model="dmdc",
        nu=0.02,
        p=128,
        m=10,
        T_sim=3.0,
        r_input=0.1,
        enkf_particles=1000,
    )
    return replace(base, **overrides).validate()


def default_config(pde: str, **overrides) -> ExperimentConfig:
    if pde == "heat":
        return heat_config(**overrides)
    if pde == "burgers":
        return burgers_config(**overrides)
    raise ConfigError(f"pde must be one of {PDE_KINDS}, got {pde!r}")


# --- file format ------------------------------------------------------------

def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_opt_float(s: str):
    if s.strip().lower() == "auto":
        return None
    return _parse_float(s)


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in s.split(",") if v.strip())


def _parse_str_list(s: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in s.split(",") if v.strip())


def _parse_opt_float_list(s: str):
    if s.strip().lower() == "none":
        return None
    return _parse_float_list(s)


def _fmt(v) -> str:
    if v is None:
        return "auto"
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, tuple):
        return ", ".join(_fmt(x) for x in v)
    return str(v)


# section -> {file key: (dataclass field, parser)}
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "experiment": {
        "pde": ("pde", str),
        "model": ("model", str),
        "nu": ("nu", _parse_float),
        "p": ("p", _parse_int),
        "L": ("L", _parse_float),
        "m": ("m", _parse_int),
        "bc": ("bc", str),
        "T_sim": ("T_sim", _parse_float),
        "dt_sim": ("dt_sim", _parse_float),
        "n_trials": ("n_trials", _parse_int),
        "seed": ("seed", _parse_int),
    },
    "weights": {
        "q": ("q", _parse_float),
        "r": ("r_input", _parse_float),
        "g": ("g", _parse_float),
    },
    "robust": {
        "lambda": ("lam", _parse_float),
        "r": ("r_robust", _parse_float),
        "b_access": ("b_access", str),
        "lambda_units": ("lambda_units", str),
    },
    "enkf": {
        "particles": ("enkf_particles", _parse_int),
        "T": ("enkf_T", _parse_opt_float),
        "dt": ("enkf_dt", _parse_opt_float),
    },
    "disturbance": {
        "kind": ("dist_kind", str),
        "d0": ("d0", _parse_float),
        "channel": ("channel", _parse_opt_float_list),
    },
    "dmdc": {
        "order": ("dmdc_order", _parse_int),
        "trajectories": ("dmdc_trajectories", _parse_int),
        "steps": ("dmdc_steps", _parse_int),
        "amplitude": ("dmdc_amplitude", _parse_float),
    },
    "grid": {
        "d0_list": ("grid_d0", _parse_float_list),
        "lambda_list": ("grid_lambda", _parse_float_list),
        "kinds": ("grid_kinds", _parse_str_list),
    },
}

# dataclass field -> its key as a config file writes it, for messages
_FILE_KEYS = {
    field_name: f"[{section}] {key}"
    for section, keys in _SCHEMA.items()
    for key, (field_name, _) in keys.items()
}


def parse_config_text(text: str, pde: str | None = None) -> ExperimentConfig:
    """Parse the strict sectioned key=value format into a config.

    Keys the text leaves out take the defaults of ``pde``, else of its own.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None

    raw: dict[str, object] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in cp[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, parser = _SCHEMA[section][key]
            raw[field_name] = parser(value)

    file_pde = raw.pop("pde", "heat")
    return default_config(pde or str(file_pde), **raw)


def load_config(path, pde: str | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), pde)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of a config; loading it back reproduces the run."""
    by_field = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    out = io.StringIO()
    for si, (section, keys) in enumerate(_SCHEMA.items()):
        if si:
            out.write("\n")
        out.write(f"[{section}]\n")
        for key, (field_name, _) in keys.items():
            value = by_field[field_name]
            if field_name == "channel" and value is None:
                text = "none"
            else:
                text = _fmt(value)
            out.write(f"{key} = {text}\n")
    return out.getvalue()
