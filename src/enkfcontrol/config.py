"""Experiment configuration: defaults, validation, strict file format.

Config files are flat ``key = value`` text with section headers.  Each
:class:`ExperimentConfig` field declares its ``[section] key`` once, and the
file schema, its parsers (one per annotation) and the order ``config.echo``
writes are derived from the fields.  Parsing is strict: unknown sections
(``[DEFAULT]`` among them) or keys are errors, and a value that does not
parse names its key, so a saved ``config.echo`` is always a complete,
loadable record of a run.  Floats are echoed with 17 significant digits;
rerunning from an echo reproduces the run byte for byte.  The retired key
``[robust] b_access`` is skipped when it holds one of its old values
(``auto``, ``known``, ``simulator``), so old echoes still load.

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
from dataclasses import dataclass, field, fields, replace

from .pde import BOUNDARY_CONDITIONS

# each PDE's defaults, as overrides of the field defaults, which are heat's
_PDE_DEFAULTS: dict[str, dict] = {
    "heat": {},
    "burgers": dict(pde="burgers", model="dmdc", nu=0.02, p=128, m=10, T_sim=3.0, r_input=0.1,
                    enkf_particles=1000),
}
PDE_KINDS = tuple(_PDE_DEFAULTS)
MODEL_PATHS = ("full", "dmdc")
DISTURBANCE_KINDS = ("sin", "const", "none")
LAMBDA_UNITS = ("amplitude", "state")


class ConfigError(ValueError):
    pass


def _setting(section: str, key: str, default):
    """A field with its default, which a config file writes as ``[section] key``."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    pde: str = _setting("experiment", "pde", "heat")
    model: str = _setting("experiment", "model", "full")
    nu: float = _setting("experiment", "nu", 0.002)
    p: int = _setting("experiment", "p", 100)
    L: float = _setting("experiment", "L", 1.0)
    m: int = _setting("experiment", "m", 8)
    bc: str = _setting("experiment", "bc", "periodic")
    T_sim: float = _setting("experiment", "T_sim", 0.1)
    dt_sim: float = _setting("experiment", "dt_sim", 1e-3)
    n_trials: int = _setting("experiment", "n_trials", 100)
    seed: int = _setting("experiment", "seed", 0)
    q: float = _setting("weights", "q", 1.0)  # the cost weights are scaled identities
    r_input: float = _setting("weights", "r", 1.0)
    g: float = _setting("weights", "g", 1.0)
    lam: float = _setting("robust", "lambda", 0.2)
    r_robust: float = _setting("robust", "r", 0.002)
    lambda_units: str = _setting("robust", "lambda_units", "amplitude")
    enkf_particles: int = _setting("enkf", "particles", 10000)
    enkf_T: float | None = _setting("enkf", "T", None)  # None = auto
    enkf_dt: float | None = _setting("enkf", "dt", None)  # None = auto
    dist_kind: str = _setting("disturbance", "kind", "sin")
    d0: float = _setting("disturbance", "d0", 0.1)
    channel: tuple[float, ...] | None = _setting("disturbance", "channel", None)  # None = all ones
    dmdc_order: int = _setting("dmdc", "order", 10)
    dmdc_trajectories: int = _setting("dmdc", "trajectories", 20)
    dmdc_steps: int = _setting("dmdc", "steps", 150)
    dmdc_amplitude: float = _setting("dmdc", "amplitude", 0.5)
    grid_d0: tuple[float, ...] = _setting("grid", "d0_list", (0.0, 0.05, 0.1, 0.2))
    grid_lambda: tuple[float, ...] = _setting("grid", "lambda_list", (0.0, 0.1, 0.2, 0.4))
    grid_kinds: tuple[str, ...] = _setting("grid", "kinds", ("sin", "const"))

    def validate(self) -> "ExperimentConfig":
        """This config, after every range check the package makes on it.

        Each message names the rule's ``[section] key`` and the value it
        rejects, and is formatted only when its check fails.
        """
        def expect(cond, name, requirement):
            if not cond:
                fail(name, requirement)

        def fail(name, requirement):
            value = _fmt(getattr(self, name), shortest=True)
            raise ConfigError(f"{_FILE_KEYS[name]} must {requirement}, got {value or 'nothing'}")

        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            expect(all(math.isfinite(v) for v in values if isinstance(v, float)), f.name, "be finite")
        expect(self.seed >= 0, "seed", "be nonnegative")
        for name, choices in (("pde", PDE_KINDS), ("model", MODEL_PATHS), ("bc", BOUNDARY_CONDITIONS),
                              ("dist_kind", DISTURBANCE_KINDS), ("lambda_units", LAMBDA_UNITS)):
            if getattr(self, name) not in choices:
                fail(name, f"be one of {', '.join(choices)}")
        for name in ("nu", "L", "T_sim", "dt_sim", "q", "r_input", "g", "r_robust"):
            expect(getattr(self, name) > 0, name, "be positive")
        expect(self.p >= 3, "p", "be at least 3")
        if not 1 <= self.m <= self.p:
            fail("m", f"be between 1 and [experiment] p = {self.p}")
        steps = self.T_sim / self.dt_sim  # the rollout takes round(steps) steps
        if not abs(steps - round(steps)) <= 1e-9 * steps:
            raise ConfigError(
                f"[experiment] T_sim = {self.T_sim!r} is not a whole number of steps of "
                f"dt_sim = {self.dt_sim!r}; the nearest valid T_sim is "
                f"{max(1, round(steps)) * self.dt_sim:.12g}")
        expect(self.n_trials >= 1, "n_trials", "be at least 1")
        expect(self.lam >= 0, "lam", "be nonnegative")
        expect(self.d0 >= 0, "d0", "be nonnegative")
        # the ensemble covariance of the design model must have full rank
        key, design = (("[dmdc] order", self.dmdc_order) if self.model == "dmdc"
                       else ("[experiment] p", self.p))
        if not self.enkf_particles > design:
            raise ConfigError(
                f"[enkf] particles = {self.enkf_particles} must exceed the design dimension, {key} = {design}")
        for name in ("enkf_T", "enkf_dt"):
            expect(getattr(self, name) is None or getattr(self, name) > 0, name, "be positive or auto")
        if self.channel is not None and len(self.channel) != self.m:
            fail("channel", f"have [experiment] m = {self.m} weights")
        for name in ("dmdc_order", "dmdc_trajectories", "dmdc_steps"):
            expect(getattr(self, name) >= 1, name, "be at least 1")
        if self.model == "dmdc":
            if not self.dmdc_order <= self.p:
                fail("dmdc_order", f"be at most [experiment] p = {self.p}")
            expect(self.dmdc_amplitude > 0, "dmdc_amplitude", "be positive")
            snapshots, needed = self.dmdc_trajectories * self.dmdc_steps, self.dmdc_order + self.m
            if not snapshots >= needed:
                raise ConfigError(
                    f"[dmdc] trajectories = {self.dmdc_trajectories} times [dmdc] steps = "
                    f"{self.dmdc_steps} gives {snapshots} snapshots; the fit needs at least "
                    f"[dmdc] order + [experiment] m = {needed}")
        for name in ("grid_d0", "grid_lambda", "grid_kinds"):
            expect(len(getattr(self, name)) > 0, name, "be nonempty")
        for name in ("grid_d0", "grid_lambda"):
            expect(min(getattr(self, name)) >= 0, name, "be nonnegative")
        if not set(self.grid_kinds) <= set(DISTURBANCE_KINDS):
            fail("grid_kinds", f"each be one of {', '.join(DISTURBANCE_KINDS)}")
        return self


def default_config(pde: str, **overrides) -> ExperimentConfig:
    """The defaults of ``pde`` with ``overrides`` (fields) replaced, validated."""
    if pde not in _PDE_DEFAULTS:
        raise ConfigError(f"pde must be one of {PDE_KINDS}, got {pde!r}")
    return replace(ExperimentConfig(), **{**_PDE_DEFAULTS[pde], **overrides}).validate()


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


def _parse_str_list(s: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in s.split(",") if v.strip())


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in _parse_str_list(s))


def _optional(word: str, parse):
    """``parse``, but None for ``word``, the spelling of an unset value."""
    return lambda s: None if s.strip().lower() == word else parse(s)


def _fmt(v, shortest: bool = False) -> str:
    if v is None:
        return "auto"
    if isinstance(v, float):  # 17 digits, as config.echo writes it, or the fewest that read back as v
        digits = next((d for d in range(1, 17) if float("%.*g" % (d, v)) == v), 17) if shortest else 17
        return "%.*g" % (digits, v)
    if isinstance(v, tuple):
        return ", ".join(_fmt(x, shortest) for x in v)
    return str(v)


# a field's annotation -> the parser of its file value; an annotation missing here fails at import
_PARSERS = {
    "str": str,
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _optional("auto", _parse_float),
    "tuple[float, ...]": _parse_float_list,
    "tuple[float, ...] | None": _optional("none", _parse_float_list),
    "tuple[str, ...]": _parse_str_list,
}

# section -> {file key: (dataclass field, parser)}, in the order the fields are declared
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {}
for _f in fields(ExperimentConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = (_f.name, _PARSERS[_f.type])

# dataclass field -> its key as a config file writes it, for messages
_FILE_KEYS = {f.name: f"[{f.metadata['section']}] {f.metadata['key']}" for f in fields(ExperimentConfig)}

# what is wrong with the line each error of configparser.read_string names, subclasses first
_MALFORMED = {configparser.MissingSectionHeaderError: "comes before any [section] header",
              configparser.DuplicateSectionError: "repeats a section above it",
              configparser.DuplicateOptionError: "repeats a key of its section",
              configparser.ParsingError: "is neither a [section] header nor key = value"}


def parse_config_text(text: str, pde: str | None = None, **overrides) -> ExperimentConfig:
    """Parse the strict sectioned key=value format into a config.

    Keys the text leaves out take the defaults of ``pde``, else of its own;
    ``overrides`` (fields but ``pde``) replace its values before the one validation.
    """
    cp = configparser.ConfigParser(interpolation=None, default_section="")  # [DEFAULT] is no special section
    cp.optionxform = str  # keys are case sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:  # its own message spans lines and names '<string>'
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        line = text.split("\n")[lineno - 1].strip()  # read_string splits at "\n" alone
        why = next(why for cls, why in _MALFORMED.items() if isinstance(exc, cls))
        raise ConfigError(f"malformed config file: line {lineno}: {line!r} {why}") from None

    raw: dict[str, object] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in cp[section].items():
            if (section, key) == ("robust", "b_access"):  # retired; an old file's value is skipped
                if value not in ("auto", "known", "simulator"):
                    raise ConfigError("[robust] b_access is no longer read; an old file's value must "
                                      f"be one of auto, known, simulator, got {value}")
                continue
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, parser = _SCHEMA[section][key]
            try:
                raw[field_name] = parser(value)
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None

    file_pde = raw.pop("pde", "heat")
    return default_config(pde or str(file_pde), **{**raw, **overrides})


def load_config(path, pde: str | None = None, **overrides) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), pde, **overrides)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of a config; loading it back reproduces the run."""
    out = io.StringIO()
    for si, (section, keys) in enumerate(_SCHEMA.items()):
        if si:
            out.write("\n")
        out.write(f"[{section}]\n")
        for key, (field_name, _) in keys.items():
            value = getattr(cfg, field_name)
            out.write(f"{key} = {'none' if field_name == 'channel' and value is None else _fmt(value)}\n")
    return out.getvalue()
