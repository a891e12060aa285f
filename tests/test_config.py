"""Config schema, strict parsing, serialization round trip, overrides."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, strategies as st

from solitonlab.config import (
    SCENARIOS, SCHEMA, ConfigError, ScenarioConfig,
    coerce_number, default_config, parse_config, serialize, apply_overrides,
)


class TestDefaults:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_has_defaults(self, scenario):
        cfg = default_config(scenario)
        assert cfg.scenario == scenario
        assert cfg.get("run", "scenario") == scenario
        assert set(cfg.settings) == set(SCHEMA)

    def test_choquard_defaults_sit_on_the_stationary_triple(self):
        cfg = default_config("choquard-stationary")
        assert cfg.get("params", "M") == 1.0
        assert cfg.get("params", "m") == 1.0
        assert cfg.get("params", "v") == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            default_config("warp-drive")

    def test_minimal_config_equals_defaults(self):
        cfg = parse_config("[run]\nscenario = free-spreading\n")
        assert cfg == default_config("free-spreading")


class TestParsing:
    def test_values_land_in_settings(self):
        cfg = parse_config(
            "[run]\nscenario = soliton-propagation\nT = 5.0\n"
            "[params]\nm = 0.4\n")
        assert cfg.get("run", "T") == 5.0
        assert cfg.get("params", "m") == 0.4
        # untouched keys keep their defaults
        assert cfg.get("params", "M") == 1.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# a comment\n\n[run]\n; another comment\n"
            "scenario = verify-residuals\n")
        assert cfg.scenario == "verify-residuals"

    def test_auto_reads_as_none(self):
        cfg = parse_config(
            "[run]\nscenario = free-spreading\nT = auto\n")
        assert cfg.get("run", "T") is None

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ConfigError,
                           match=r"first set on line 3, again on line 4"):
            parse_config("[run]\nscenario = free-spreading\n"
                         "T = 1.0\nT = 2.0\n")

    def test_unknown_section_has_line_number(self):
        with pytest.raises(ConfigError, match=r"\[engine\] \(line 3\)"):
            parse_config("[run]\nscenario = free-spreading\n[engine]\n")

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError, match=r"line 3.*scenario"):
            parse_config("[run]\nscenario = free-spreading\nbanana = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config("T = 1.0\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[run]\nscenario free-spreading\n")

    def test_non_numeric_float(self):
        with pytest.raises(ConfigError, match=r"params\.M \(line 2\)"):
            parse_config("[params]\nM = heavy\n",
                         scenario="free-spreading")

    def test_nan_rejected(self):
        with pytest.raises(ConfigError, match="NaN"):
            parse_config("[params]\nM = nan\n", scenario="free-spreading")

    @pytest.mark.parametrize("text", [
        "[run]\nT = inf\n", "[packet]\nk0 = -inf\n",
        "[perturb]\nstrength = inf\n", "[soliton]\nmu = -inf\n",
        "[sweep]\nvalues = 0.4, inf\n"],
        ids=["run.T", "packet.k0", "perturb.strength", "soliton.mu",
             "sweep.values"])
    def test_infinity_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(text, scenario="free-spreading")

    def test_fractional_int_rejected(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config("[grid]\nn = 3.5\n", scenario="free-spreading")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("[oracle]\nrun_3d = maybe\n",
                         scenario="yukawa-oracle")

    def test_empty_list_entry_rejected(self):
        with pytest.raises(ConfigError, match="comma separated"):
            parse_config("[sweep]\nvalues = 1.0,,2.0\n",
                         scenario="param-sweep")

    def test_value_outside_allowed_set(self):
        with pytest.raises(ConfigError, match="is not one of"):
            parse_config("[run]\nscenario = free-spreading\n"
                         "mode = quantum\n")

    @pytest.mark.parametrize("text", [
        "[soliton]\nfamily = ThreeD_A\n", "[soliton]\nfamily = oned_b\n",
        "[soliton]\nfamily = 3D_B\n",
        "[toggles]\nphi_profile = as_printed_sech\n",
        "[toggles]\nphi_profile = corrected_sech_squared\n"],
        ids=["ThreeD_A", "oned_b", "3D_B", "as_printed_sech",
             "corrected_sech_squared"])
    def test_alias_spelling_rejected(self, text):
        # each setting has one spelling per value: the family tags and
        # the PHI_PROFILES names
        with pytest.raises(ConfigError, match=r"\(line 2\): .* is not one of"):
            parse_config(text, scenario="soliton-propagation")

    def test_sweep_scenario_cannot_be_a_sweep(self):
        with pytest.raises(ConfigError,
                           match=r"sweep\.scenario \(line 2\): "
                                 r"'param-sweep' is not one of"):
            parse_config("[sweep]\nscenario = param-sweep\n",
                         scenario="param-sweep")

    def test_auto_number_round_trips(self):
        cfg = parse_config("[soliton]\nmu = auto\n",
                           scenario="soliton-propagation")
        assert cfg.get("soliton", "mu") is None
        text = serialize(cfg)
        assert "mu = auto" in text.splitlines()
        assert parse_config(text) == cfg

    def test_auto_needs_a_none_default(self):
        with pytest.raises(ConfigError, match=r"expected a number for "
                                              r"params\.M \(line 2\)"):
            parse_config("[params]\nM = auto\n", scenario="free-spreading")

    def test_stride_is_an_integer(self):
        cfg = parse_config("[run]\nstride = 4\n", scenario="free-spreading")
        assert cfg.get("run", "stride") == 4
        assert isinstance(cfg.get("run", "stride"), int)
        with pytest.raises(ConfigError, match=r"expected an integer for "
                                              r"run\.stride \(line 2\)"):
            parse_config("[run]\nstride = 2.5\n", scenario="free-spreading")

    def test_scenario_mismatch(self):
        with pytest.raises(ConfigError, match="scenario mismatch"):
            parse_config("[run]\nscenario = free-spreading\n",
                         scenario="yukawa-oracle")

    def test_scenario_agreement_is_fine(self):
        cfg = parse_config("[run]\nscenario = free-spreading\n",
                           scenario="free-spreading")
        assert cfg.scenario == "free-spreading"

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("[params]\nM = 2.0\n")


POSITIVE = ("run.T", "run.dt", "run.stride", "params.M", "params.m",
            "params.v", "packet.sigma0", "oracle.cases")


def _through_line(dotted: str, value: str):
    section, _, key = dotted.partition(".")
    parse_config(f"[{section}]\n{key} = {value}\n",
                 scenario="free-spreading")


def _through_override(dotted: str, value: str):
    apply_overrides(default_config("free-spreading"), [f"{dotted}={value}"])


def _through_sweep(dotted: str, value: str):
    section, _, key = dotted.partition(".")
    coerce_number(section, key, float(value))


class TestRanges:
    def test_positive_keys(self):
        assert {f"{section}.{key}" for section, keys in SCHEMA.items()
                for key, setting in keys.items() if setting.positive} \
            == set(POSITIVE)

    @pytest.mark.parametrize("path,source", [
        (_through_line, r"line 2"), (_through_override, r"override #1"),
        (_through_sweep, r"sweep value")], ids=["line", "override", "sweep"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("dotted", POSITIVE)
    def test_non_positive_value_rejected(self, dotted, value, path, source):
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(dotted)} \({source}\) must be "
                                 rf"positive, got '{value}'$"):
            path(dotted, value)

    @pytest.mark.parametrize("path,source", [
        (_through_line, r"line 2"), (_through_override, r"override #1"),
        (_through_sweep, r"sweep value")], ids=["line", "override", "sweep"])
    def test_negative_seed_rejected(self, path, source):
        with pytest.raises(ConfigError,
                           match=rf"^run\.seed \({source}\) must be "
                                 r"non-negative, got '-1'$"):
            path("run.seed", "-1")

    def test_nonnegative_keys(self):
        assert [f"{section}.{key}" for section, keys in SCHEMA.items()
                for key, setting in keys.items() if setting.nonnegative] \
            == ["run.seed"]
        assert apply_overrides(default_config("free-spreading"),
                               ["run.seed=0"]).get("run", "seed") == 0

    @pytest.mark.parametrize("dotted", POSITIVE)
    def test_positive_value_accepted(self, dotted):
        section, _, key = dotted.partition(".")
        cfg = apply_overrides(default_config("free-spreading"),
                              [f"{dotted}=3"])
        assert cfg.get(section, key) == 3


def _drawable(setting):
    """Values the schema accepts for one setting; None for free strings."""
    kind, default, allowed, positive, nonnegative = setting
    if allowed is not None:
        return st.sampled_from(allowed)
    finite = st.floats(min_value=0.0 if positive or nonnegative else None,
                       exclude_min=positive, allow_nan=False,
                       allow_infinity=False, width=64)
    if kind == "float":
        number = finite
    elif kind == "int":
        number = st.integers(min_value=1 if positive else 0,
                             max_value=10**6)
    elif kind == "bool":
        return st.booleans()
    elif kind == "floats":
        return st.lists(finite, min_size=1, max_size=5).map(tuple)
    else:
        return None
    # a number whose default is None also reads `auto`
    return st.one_of(st.none(), number) if default is None else number


_FREE_KEYS = [
    (section, key, strategy)
    for section, keys in SCHEMA.items()
    for key, setting in keys.items()
    if (section, key) != ("run", "scenario")
    and (strategy := _drawable(setting)) is not None
]


@st.composite
def configs(draw):
    cfg = default_config(draw(st.sampled_from(SCENARIOS)))
    for section, key, strategy in _FREE_KEYS:
        cfg = cfg.replace(section, key, draw(strategy))
    return cfg


class TestRoundTrip:
    @given(configs())
    def test_parse_inverts_serialize(self, cfg):
        assert parse_config(serialize(cfg)) == cfg

    @given(configs())
    def test_serialize_is_stable(self, cfg):
        text = serialize(cfg)
        assert serialize(parse_config(text)) == text


class TestOverrides:
    def test_override_replaces_value(self):
        cfg = apply_overrides(default_config("free-spreading"),
                              ["params.M=2.0", "run.T=3.5"])
        assert cfg.get("params", "M") == 2.0
        assert cfg.get("run", "T") == 3.5

    def test_override_coerces_like_the_parser(self):
        cfg = apply_overrides(default_config("yukawa-oracle"),
                              ["oracle.run_3d=false"])
        assert cfg.get("oracle", "run_3d") is False

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides(default_config("free-spreading"), ["T=3"])

    def test_rejected_override_value_names_the_override(self):
        # an override has no line; the error names its position instead
        with pytest.raises(ConfigError) as info:
            apply_overrides(default_config("free-spreading"),
                            ["run.T=2", "run.mode=bogus"])
        message = str(info.value)
        assert message.startswith("run.mode (override #2): 'bogus' is not "
                                  "one of")
        assert "line" not in message

    def test_rejected_sweep_value_names_the_sweep(self):
        with pytest.raises(ConfigError,
                           match=r"^expected an integer for grid\.n "
                                 r"\(sweep value\), got '2\.5'$"):
            coerce_number("grid", "n", 2.5)

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown setting"):
            apply_overrides(default_config("free-spreading"),
                            ["run.banana=3"])

    def test_scenario_cannot_change(self):
        with pytest.raises(ConfigError, match="scenario cannot be changed"):
            apply_overrides(default_config("free-spreading"),
                            ["run.scenario=param-sweep"])

    def test_replace_returns_a_new_config(self):
        base = default_config("free-spreading")
        other = base.replace("params", "M", 2.0)
        assert base.get("params", "M") == 1.0
        assert other.get("params", "M") == 2.0

    def test_replace_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown setting"):
            default_config("free-spreading").replace("run", "banana", 1)
