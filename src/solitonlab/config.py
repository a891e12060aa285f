"""Scenario configuration: strict flat key = value files with sections.

Format example:

    [run]
    scenario = soliton-propagation
    T = 20.0
    dt = auto

    [params]
    M = 1.0
    m = 0.5
    v = 1.0

SCHEMA is the one owner of every setting: its kind (how a token is read
and echoed), its default, its allowed spellings and whether it must be
positive or non-negative. A number whose default is None reads and echoes
`auto`, which leaves the value to the scenario. Parsing is strict: unknown
sections or keys, duplicate keys, type mismatches, values outside their
allowed sets, NaN or infinite numbers and values below a key's sign rule
are errors that name the key and where the value came from (line N,
override #i, sweep value). Every key has a default (the table below), so
a parsed config always echoes the complete settings;
parse(serialize(config)) reproduces the config exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .evolution import MODES, PERTURBATION_KINDS
from .model import PHI_PROFILES, Family

SCENARIOS = (
    "verify-residuals",
    "soliton-propagation",
    "free-spreading",
    "choquard-stationary",
    "yukawa-oracle",
    "perturbation-stability",
    "param-sweep",
)

# value kinds: how a raw token is coerced and rendered
_FLOAT = "float"
_INT = "int"
_BOOL = "bool"
_STR = "str"
_FLOAT_LIST = "floats"        # comma separated, at least one


class Setting(NamedTuple):
    """One schema key: kind, default, allowed spellings (None: any) and
    whether a number must be > 0 (positive) or >= 0 (nonnegative). A
    number whose default is None reads `auto` as None."""

    kind: str
    default: Any = None
    allowed: tuple | None = None
    positive: bool = False
    nonnegative: bool = False


SCHEMA: dict[str, dict[str, Setting]] = {
    "run": {
        "scenario": Setting(_STR, None, SCENARIOS),
        "T": Setting(_FLOAT, positive=True),
        "dt": Setting(_FLOAT, positive=True),
        "stride": Setting(_INT, positive=True),
        "seed": Setting(_INT, 0, nonnegative=True),
        "mode": Setting(_STR, None, MODES),
    },
    "params": {
        "M": Setting(_FLOAT, 1.0, positive=True),
        "m": Setting(_FLOAT, 0.5, positive=True),
        "v": Setting(_FLOAT, 1.0, positive=True),
    },
    "soliton": {
        "family": Setting(_STR, "1d_b", tuple(f.value for f in Family)),
        "alpha": Setting(_FLOAT),
        "omega": Setting(_FLOAT),
        "mu": Setting(_FLOAT),
        "gamma": Setting(_FLOAT, 0.0),
        "eps": Setting(_FLOAT, 0.0),
        "x0": Setting(_FLOAT, 0.0),
    },
    "grid": {
        "dim": Setting(_INT, 1),
        "n": Setting(_INT, 2048),
        "length": Setting(_FLOAT),
    },
    "toggles": {
        "phi_profile": Setting(_STR, "sech", PHI_PROFILES),
    },
    "packet": {
        "sigma0": Setting(_FLOAT, positive=True),
        "k0": Setting(_FLOAT, 0.0),
    },
    "perturb": {
        "kind": Setting(_STR, "amplitude_noise", PERTURBATION_KINDS),
        "strength": Setting(_FLOAT, 0.01),
    },
    "sweep": {
        "key": Setting(_STR, "params.m"),
        "values": Setting(_FLOAT_LIST, (0.4, 0.5, 0.6)),
        "scenario": Setting(_STR, "soliton-propagation",
                            tuple(s for s in SCENARIOS if s != "param-sweep")),
    },
    "oracle": {
        "n_1d": Setting(_INT, 128),
        "n_3d": Setting(_INT, 32),
        "cases": Setting(_INT, 3, positive=True),
        "run_3d": Setting(_BOOL, True),
    },
}


class ConfigError(ValueError):
    """Configuration problem; message carries the offending line numbers."""


def _coerce(section: str, key: str, raw: str, source: str) -> Any:
    """raw as the schema type of section.key; source says where raw came
    from (line N, override #i, sweep value) for the error message."""
    kind, default, allowed, positive, nonnegative = SCHEMA[section][key]
    token = raw.strip()
    where = f"{section}.{key} ({source})"
    if kind in (_FLOAT, _INT):
        if default is None and token.lower() == "auto":
            return None
        try:
            val = float(token) if kind == _FLOAT else int(token, 10)
        except ValueError:
            expected = "a number" if kind == _FLOAT else "an integer"
            raise ConfigError(f"expected {expected} for {where}, "
                              f"got {token!r}") from None
        if not math.isfinite(val):
            raise ConfigError(f"{where} must be finite (not NaN or "
                              f"infinite), got {token!r}")
        if positive and val <= 0:
            raise ConfigError(f"{where} must be positive, got {token!r}")
        if nonnegative and val < 0:
            raise ConfigError(f"{where} must be non-negative, got {token!r}")
        return val
    if kind == _BOOL:
        low = token.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"expected true/false for {where}, got {token!r}")
    if kind == _FLOAT_LIST:
        parts = [p.strip() for p in token.split(",")]
        if not parts or any(not p for p in parts):
            raise ConfigError(f"expected comma separated numbers for {where}")
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"expected comma separated numbers for "
                              f"{where}, got {token!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{where} must be finite (not NaN or "
                              f"infinite), got {token!r}")
        return values
    if allowed is not None and token not in allowed:
        raise ConfigError(f"{where}: {token!r} is not one of "
                          f"{', '.join(allowed)}")
    return token


def _render(kind: str, value: Any) -> str:
    if value is None:
        return "auto"
    if kind == _BOOL:
        return "true" if value else "false"
    if kind == _FLOAT_LIST:
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete settings for one scenario run, defaults filled in."""

    scenario: str
    settings: dict[str, dict[str, Any]] = field(default_factory=dict)

    def get(self, section: str, key: str) -> Any:
        return self.settings[section][key]

    def replace(self, section: str, key: str, value: Any) -> "ScenarioConfig":
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown setting {section}.{key}")
        settings = {s: dict(kv) for s, kv in self.settings.items()}
        settings[section][key] = value
        scenario = value if (section, key) == ("run", "scenario") \
            else self.scenario
        return ScenarioConfig(scenario=scenario, settings=settings)


def default_config(scenario: str) -> ScenarioConfig:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; valid: "
                          f"{', '.join(SCENARIOS)}")
    settings = {section: {key: setting.default
                          for key, setting in keys.items()}
                for section, keys in SCHEMA.items()}
    settings["run"]["scenario"] = scenario
    # the stationary point only exists at the matched parameter triple
    if scenario == "choquard-stationary":
        settings["params"].update(M=1.0, m=1.0, v=math.sqrt(2.0 / 3.0))
    # determinism and sweep shape do not need the audit-grade lattice;
    # keep the default runs in seconds
    if scenario == "perturbation-stability":
        settings["grid"]["n"] = 1024
    if scenario == "param-sweep":
        settings["grid"]["n"] = 1024
        settings["run"]["T"] = 10.0
    return ScenarioConfig(scenario=scenario, settings=settings)


_SECTION_RE = re.compile(r"^\[([^\]]+)\]$")


def parse_config(text: str, scenario: str | None = None) -> ScenarioConfig:
    """Strict parse; scenario comes from [run] or the argument (must agree).

    Unknown sections/keys, duplicate keys, type mismatches, and values
    outside their allowed sets or ranges are reported with line numbers.
    """
    entries: dict[tuple[str, str], tuple[Any, int]] = {}
    section: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1).strip()
            if section not in SCHEMA:
                raise ConfigError(
                    f"unknown section [{section}] (line {lineno}); valid: "
                    f"{', '.join(sorted(SCHEMA))}")
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' or '[section]' "
                              f"(line {lineno}): {line!r}")
        if section is None:
            raise ConfigError(f"key outside any section (line {lineno}): "
                              f"{line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(
                f"unknown key {key!r} in [{section}] (line {lineno}); "
                f"valid: {', '.join(sorted(SCHEMA[section]))}")
        if (section, key) in entries:
            first_line = entries[(section, key)][1]
            raise ConfigError(f"duplicate key {section}.{key}: first set on "
                              f"line {first_line}, again on line {lineno}")
        value = _coerce(section, key, raw, f"line {lineno}")
        entries[(section, key)] = (value, lineno)

    named = entries.get(("run", "scenario"))
    if named is not None and scenario is not None \
            and named[0] != scenario:
        raise ConfigError(
            f"scenario mismatch: config names {named[0]!r} (line "
            f"{named[1]}) but {scenario!r} was requested")
    scenario = scenario if scenario is not None else \
        (named[0] if named is not None else None)
    if scenario is None:
        raise ConfigError("missing required key run.scenario (and no "
                          "scenario given on the command line)")

    config = default_config(scenario)
    for (section, key), (value, _) in entries.items():
        if (section, key) == ("run", "scenario"):
            continue
        config.settings[section][key] = value
    return config


def serialize(config: ScenarioConfig) -> str:
    """Complete config text, defaults included; parse() restores it."""
    out = []
    for section, keys in SCHEMA.items():
        lines = []
        for key, setting in keys.items():
            value = config.settings[section][key]
            if value is None and setting.kind == _STR:
                continue  # unset; only a number reads `auto`
            lines.append(f"{key} = {_render(setting.kind, value)}")
        if lines:
            out.append(f"[{section}]")
            out.extend(lines)
            out.append("")
    return "\n".join(out)


def coerce_number(section: str, key: str, value: float) -> Any:
    """Coerce a numeric value (a sweep value) to the schema type of
    section.key, exactly as the parser would read it from a file."""
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ConfigError(f"unknown setting {section}.{key}")
    value = float(value)
    token = str(int(value)) if value.is_integer() else repr(value)
    return _coerce(section, key, token, "sweep value")


def apply_overrides(config: ScenarioConfig,
                    overrides: list[str]) -> ScenarioConfig:
    """Apply repeatable --override section.key=value pairs."""
    for i, text in enumerate(overrides, start=1):
        if "=" not in text or "." not in text.split("=", 1)[0]:
            raise ConfigError(f"override #{i} must look like "
                              f"section.key=value, got {text!r}")
        dotted, _, raw = text.partition("=")
        section, _, key = dotted.strip().partition(".")
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"override #{i}: unknown setting "
                              f"{section}.{key}")
        value = _coerce(section, key, raw, f"override #{i}")
        if (section, key) == ("run", "scenario") \
                and value != config.scenario:
            raise ConfigError(f"override #{i}: scenario cannot be changed "
                              f"by override (subcommand fixes it)")
        config = config.replace(section, key, value)
    return config
