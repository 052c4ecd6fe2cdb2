"""Run configuration: INI-style text with strict validation.

Grammar: the sections [grid], [gas], [solver], [initial], [output] and
the optional [convergence]; keys are listed in ``_SCHEMA``.  Unknown
sections or keys are rejected with the offending line number, as are
invalid values.  See the README for the full key reference and defaults.
"""

import configparser
from dataclasses import dataclass, field
import math
import re

from .fluxes import LambdaVariant
from .grid import grid_shape
from .initial import PRESETS, check_initial
from .thermo import GasParams
from .timestep import SolverParams

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(Exception):
    """Invalid configuration text; message carries a line number when known."""


_VARIANTS = {
    "first-order": LambdaVariant.FIRST_ORDER,
    "first_order": LambdaVariant.FIRST_ORDER,
    "second-order": LambdaVariant.SECOND_ORDER,
    "second_order": LambdaVariant.SECOND_ORDER,
}

# section -> the keys it accepts
_SCHEMA = {
    "grid": {"n", "extent"},
    "gas": {"gamma", "r", "mu0", "mu1", "kappa_r"},
    "solver": {"cfl", "lambda_variant", "t_end", "dt_min", "max_rejects"},
    "initial": {"preset", "rho", "temperature", "floor", "amplitude", "width",
                "rho_amp", "temp_amp", "vel_amp", "omega"},
    "output": {"directory", "cadence", "snapshots", "apriori_report"},
    "convergence": {"grids", "mode"},
}


@dataclass
class RunConfig:
    grid_n: tuple = (16, 16, 16)
    extent: tuple = (1.0, 1.0, 1.0)
    gas: GasParams = field(default_factory=GasParams)
    solver: SolverParams = field(default_factory=SolverParams)
    t_end: float = 0.1
    initial: dict = field(default_factory=lambda: {"preset": "uniform_rest"})
    output_dir: str = "out"
    cadence: int = 10
    snapshots: bool = True
    apriori_report: bool = False
    convergence_grids: tuple = ()
    convergence_mode: str = "mms"


def _line_of(text, section, key=None):
    """Best-effort line number of a section header or of a key inside it."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if key is None and current == section:
                return lineno
        elif key is not None and current == section and line and not line.startswith(("#", ";")):
            name = line.split("=", 1)[0].split(":", 1)[0].strip().lower()
            if name == key:
                return lineno
    return None


def _fail(text, section, key, message):
    """Raise at ``key``'s line, or at the section header if ``key`` is None."""
    lineno = _line_of(text, section, key)
    where = f"line {lineno}: " if lineno else ""
    raise ConfigError(f"{where}[{section}]{f' {key}' if key else ''}: {message}")


def _named(keys, exc):
    """The ``keys`` that the message of ``exc`` names, in order."""
    return [k for k in keys if re.search(rf"\b{k}\b", str(exc), re.IGNORECASE)]


def _fail_named(text, section, keys, exc):
    """Report ``exc`` under the first of ``keys`` its message names, else keys[0]."""
    _fail(text, section, (_named(keys, exc) or keys)[0], str(exc))


def _initial_culprit(cfg):
    """The first key of ``cfg.initial`` without which the block passes
    :func:`~gasbox.initial.check_initial`, or None if no single key does."""
    for key in [k for k in cfg.initial if k != "preset"]:
        try:
            check_initial({k: v for k, v in cfg.initial.items() if k != key}, cfg.grid_n, cfg.extent, cfg.gas)
            return key
        except ValueError:
            pass
    return None


def _floats(value, count):
    parts = value.replace(",", " ").split()
    if len(parts) == 1:
        parts = parts * count
    if len(parts) != count:
        raise ValueError(f"expected {count} values")
    return tuple(float(p) for p in parts)


def _ints(value, count=None):
    parts = value.replace(",", " ").split()
    if count is not None and len(parts) == 1:
        parts = parts * count
    if count is not None and len(parts) != count:
        raise ValueError(f"expected {count} values")
    return tuple(int(p) for p in parts)


def _bool(value):
    v = value.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean")


def parse_config(text):
    """Parse and validate a configuration document into a :class:`RunConfig`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    for section in parser.sections():
        sec = section.lower()
        if sec not in _SCHEMA:
            lineno = _line_of(text, sec)
            where = f"line {lineno}: " if lineno else ""
            raise ConfigError(f"{where}unknown section [{section}]")
        for key in parser.options(section):
            if key.lower() not in _SCHEMA[sec]:
                _fail(text, sec, key.lower(), "unknown key")

    cfg = RunConfig()

    def get(section, key, convert, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return convert(raw)
            except ValueError as exc:
                _fail(text, section, key, f"{exc} (got {raw!r})")
        return default

    cfg.grid_n = get("grid", "n", lambda v: _ints(v, 3), cfg.grid_n)
    cfg.extent = get("grid", "extent", lambda v: _floats(v, 3), cfg.extent)
    try:
        grid_shape(cfg.grid_n, cfg.extent)
    except ValueError as exc:
        _fail_named(text, "grid", ("n", "extent"), exc)

    # only the keys the config sets: the defaults live in the dataclasses
    gas_kwargs = {attr: get("gas", key, float, None)
                  for key, attr in (("gamma", "gamma"), ("r", "R"), ("mu0", "mu0"),
                                    ("mu1", "mu1"), ("kappa_r", "kappa_r"))
                  if parser.has_option("gas", key)}
    try:
        cfg.gas = GasParams(**gas_kwargs)
    except ValueError as exc:
        _fail_named(text, "gas", ("gamma", "r", "mu0", "mu1", "kappa_r"), exc)

    def _variant(value):
        v = value.strip().lower()
        if v not in _VARIANTS:
            raise ValueError(f"expected one of {sorted(set(_VARIANTS))}")
        return _VARIANTS[v]

    solver_kwargs = {key: get("solver", key, convert, None)
                     for key, convert in (("cfl", float), ("lambda_variant", _variant),
                                          ("dt_min", float), ("max_rejects", int))
                     if parser.has_option("solver", key)}
    try:
        cfg.solver = SolverParams(**solver_kwargs)
    except ValueError as exc:
        _fail_named(text, "solver", ("cfl", "dt_min", "max_rejects"), exc)
    cfg.t_end = get("solver", "t_end", float, cfg.t_end)
    if not 0.0 < cfg.t_end < math.inf:
        _fail(text, "solver", "t_end", "must be positive and finite")

    preset = get("initial", "preset", str, "uniform_rest").strip().lower()
    if preset not in PRESETS:
        _fail(text, "initial", "preset", f"expected one of {tuple(PRESETS)}")
    cfg.initial = {"preset": preset}
    if parser.has_section("initial"):
        for key in parser.options("initial"):
            if key == "preset":
                continue
            cfg.initial[key] = get("initial", key, float, None)
    try:
        check_initial(cfg.initial, cfg.grid_n, cfg.extent, cfg.gas)
    except ValueError as exc:
        # a message naming no key: blame the key whose removal admits the block
        named = _named([k for k in cfg.initial if k != "preset"] + ["preset"], exc)
        _fail(text, "initial", named[0] if named else _initial_culprit(cfg), str(exc))

    cfg.output_dir = get("output", "directory", str, cfg.output_dir)
    cfg.cadence = get("output", "cadence", int, cfg.cadence)
    if cfg.cadence < 1:
        _fail(text, "output", "cadence", "must be >= 1")
    cfg.snapshots = get("output", "snapshots", _bool, cfg.snapshots)
    cfg.apriori_report = get("output", "apriori_report", _bool, cfg.apriori_report)

    cfg.convergence_grids = get("convergence", "grids", _ints, cfg.convergence_grids)
    cfg.convergence_mode = get("convergence", "mode", str, cfg.convergence_mode).strip().lower()
    if cfg.convergence_mode not in ("mms", "richardson"):
        _fail(text, "convergence", "mode", "expected 'mms' or 'richardson'")

    return cfg
