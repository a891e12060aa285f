"""Config schema, strict parsing, serialization round trip, overrides."""

from __future__ import annotations

import math

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

    def test_family_spellings_normalize(self):
        cfg = parse_config("[soliton]\nfamily = ThreeD_A\n",
                           scenario="soliton-propagation")
        assert cfg.get("soliton", "family") == "3d_a"

    def test_phi_profile_alias_normalizes(self):
        cfg = parse_config("[toggles]\nphi_profile = as_printed_sech\n",
                           scenario="verify-residuals")
        assert cfg.get("toggles", "phi_profile") == "sech"

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


def _drawable(kind, allowed):
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    if allowed is not None:
        return st.sampled_from(list(allowed))
    if kind == "float":
        return finite
    if kind == "float?":
        return st.one_of(st.none(), finite)
    if kind == "optfloat":
        return st.one_of(st.none(), finite)
    if kind == "int":
        return st.integers(min_value=0, max_value=10**6)
    if kind == "bool":
        return st.booleans()
    if kind == "floats":
        return st.lists(finite, min_size=1, max_size=5).map(tuple)
    return None


_FREE_KEYS = [
    (section, key, kind, allowed)
    for section, keys in SCHEMA.items()
    for key, (kind, _, allowed) in keys.items()
    if (section, key) not in (("run", "scenario"), ("soliton", "family"),
                              ("toggles", "phi_profile"), ("sweep", "key"),
                              ("sweep", "scenario"), ("run", "output_dir"))
]


@st.composite
def configs(draw):
    cfg = default_config(draw(st.sampled_from(SCENARIOS)))
    for section, key, kind, allowed in _FREE_KEYS:
        strategy = _drawable(kind, allowed)
        if strategy is None:
            continue
        cfg = cfg.replace(section, key, draw(strategy))
    cfg = cfg.replace("soliton", "family",
                      draw(st.sampled_from(["1d_a", "1d_b", "3d_a", "3d_b"])))
    cfg = cfg.replace("toggles", "phi_profile",
                      draw(st.sampled_from(["sech", "sech_squared"])))
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
