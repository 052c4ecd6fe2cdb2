"""Run configuration: INI-style text with strict validation.

The grammar, read in one pass by ``_read``: ``[section]`` headers and
``key = value`` or ``key: value`` lines; ``#`` or ``;`` at the start of a
line or after whitespace starts a comment.  Names are case-insensitive,
leading whitespace is not significant and values are literal (``%`` is a
character).  Any other line is rejected at its line number, as is a
section or key that ``_SCHEMA`` does not list (``[DEFAULT]`` among them),
a repeated one, a key before the first header and a continuation line.
``_SCHEMA`` also holds the conversion that checks each value; the README
lists the keys and their defaults.  A grid, gas, solver or ``[initial]``
section that its build rejects is reported at the first key without which
it builds (in file order, ``preset`` last), else at the first key the
message names, as when two keys are at fault, else at its header.
"""

from dataclasses import dataclass, field
import re
import warnings

from .fluxes import LambdaVariant
from .grid import grid_sequence, grid_shape
from .initial import PRESETS, check_initial
from .thermo import GasParams
from .timestep import SolverParams

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(Exception):
    """Invalid configuration text; message carries a line number when known."""


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


def _numbers(kind, count=None):
    """Conversion of numbers split by blanks or commas: any number, or
    ``count`` of them, one value standing for all."""
    def convert(value):
        parts = value.replace(",", " ").split()
        if count is not None and len(parts) == 1:
            parts = parts * count
        if count is not None and len(parts) != count:
            raise ValueError(f"expected {count} values")
        return tuple(kind(p) for p in parts)
    return convert


def _one_of(options):
    """Conversion of a case-insensitive name to ``options[name]``."""
    def convert(value):
        try:
            return options[value.lower()]
        except KeyError:
            raise ValueError(f"expected one of {tuple(options)}") from None
    return convert


def _checked(kind, accept, rule):
    """Conversion by ``kind`` of a value that ``accept`` then admits."""
    def convert(value):
        converted = kind(value)
        if not accept(converted):
            raise ValueError(rule)
        return converted
    return convert


_bool = _one_of({"true": True, "yes": True, "on": True, "1": True,
                 "false": False, "no": False, "off": False, "0": False})

# section -> key -> the conversion that reads and checks its value
_SCHEMA = {
    "grid": {"n": _numbers(int, 3), "extent": _numbers(float, 3)},
    "gas": dict.fromkeys(("gamma", "r", "mu0", "mu1", "kappa_r"), float),
    "solver": {"cfl": float, "dt_min": float, "max_rejects": int,
               "lambda_variant": _one_of({s: v for v in LambdaVariant
                                          for s in (v.value, v.value.replace("-", "_"))}),
               "t_end": _checked(float, lambda t: 0.0 < t < float("inf"), "must be positive and finite")},
    "initial": {"preset": _one_of({name: name for name in PRESETS}),
                **dict.fromkeys(("rho", "temperature", "floor", "amplitude", "width",
                                 "rho_amp", "temp_amp", "vel_amp", "omega"), float)},
    "output": {"directory": str, "cadence": _checked(int, lambda c: c >= 1, "must be >= 1"),
               "snapshots": _bool, "apriori_report": _bool},
    "convergence": {"grids": lambda value: grid_sequence(_numbers(int)(value)),
                    "mode": _one_of({"mms": "mms", "richardson": "richardson"})},
}

# (section, key, RunConfig field) of the values a field takes as they are
_FIELDS = (("grid", "n", "grid_n"), ("grid", "extent", "extent"), ("solver", "t_end", "t_end"),
           ("output", "directory", "output_dir"), ("output", "cadence", "cadence"),
           ("output", "snapshots", "snapshots"), ("output", "apriori_report", "apriori_report"),
           ("convergence", "grids", "convergence_grids"), ("convergence", "mode", "convergence_mode"))

_COMMENT = re.compile(r"(?:^|\s)[#;]")
_HEADER = re.compile(r"\[\s*(.*?)\s*\]")
_KEY = re.compile(r"(.+?)\s*[=:]\s*(.*)")


def _read(text):
    """``{section: {key: converted value}}`` of what ``text`` sets, and
    ``{(section, key): line number}`` (key None for a header); raises
    ConfigError at the first line the grammar or a conversion rejects."""
    values, lines, section = {}, {}, None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if header := _HEADER.fullmatch(line):
            section = header[1].lower()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{header[1]}]")
            if section in values:
                raise ConfigError(f"line {lineno}: repeated section [{section}]")
            values[section], lines[section, None] = {}, lineno
        elif (setting := _KEY.fullmatch(line)) is None:
            raise ConfigError(f"line {lineno}: expected [section], key = value or a comment (got {line!r})")
        elif section is None:
            raise ConfigError(f"line {lineno}: key {setting[1]!r} before the first [section]")
        else:
            key, value = setting[1].lower(), setting[2]
            where = f"line {lineno}: [{section}] {key}"
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{where}: unknown key")
            if key in values[section]:
                raise ConfigError(f"{where}: repeated key")
            try:
                values[section][key] = _SCHEMA[section][key](value)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc} (got {value!r})") from None
            lines[section, key] = lineno
    return values, lines


def _fail(lines, section, key, message):
    """Raise at ``key``'s line, else (key None or unset) at the section header."""
    lineno = lines.get((section, key)) or lines.get((section, None))
    where = f"line {lineno}: " if lineno else ""
    raise ConfigError(f"{where}[{section}]{f' {key}' if key else ''}: {message}")


def _named(keys, exc):
    """The ``keys`` that the message of ``exc`` names, in order."""
    return [k for k in keys if re.search(rf"\b{k}\b", str(exc), re.IGNORECASE)]


def _builds(build, setting):
    """Whether ``build(setting)`` succeeds, its warnings unprinted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            build(setting)
        except ValueError:
            return False
    return True


def _build(lines, section, build, setting):
    """``build(setting)`` of the keys a section sets; on ValueError, fail by the module docstring's rule."""
    try:
        return build(setting)
    except ValueError as exc:
        keys = sorted(setting, key=lambda k: k == "preset")
        culprit = next((k for k in keys if _builds(build, {j: v for j, v in setting.items() if j != k})), None)
        _fail(lines, section, culprit or (_named(keys, exc) or [None])[0], str(exc))


def parse_config(text):
    """Parse and validate a configuration document into a :class:`RunConfig`."""
    values, lines = _read(text)
    grid, gas, solver, initial = (values.get(s, {}) for s in ("grid", "gas", "solver", "initial"))
    # only the keys the config sets: the defaults live in the dataclasses
    cfg = RunConfig(**{name: values[s][k] for s, k, name in _FIELDS if k in values.get(s, {})})
    _build(lines, "grid", lambda kv: grid_shape(kv.get("n", RunConfig.grid_n), kv.get("extent", RunConfig.extent)),
           grid)
    cfg.gas = _build(lines, "gas", lambda kv: GasParams(**{"R" if k == "r" else k: v for k, v in kv.items()}), gas)
    cfg.solver = _build(lines, "solver", lambda kv: SolverParams(**kv),
                        {k: v for k, v in solver.items() if k != "t_end"})
    # without an [initial] block the default state fails only for the gas
    _build(lines, "initial" if ("initial", None) in lines else "gas",
           lambda kv: check_initial({"preset": "uniform_rest", **kv}, cfg.grid_n, cfg.extent, cfg.gas), initial)
    cfg.initial = {"preset": "uniform_rest", **initial}
    return cfg
