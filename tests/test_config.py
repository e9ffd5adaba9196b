"""Config file parsing and validation."""

import re
from pathlib import Path

import pytest

from codeforest.config import DEFAULTS, Config, load_config, parse_config
from codeforest.errors import ConfigSyntaxError, NonPositiveValue, UnknownKey


def test_empty_text_gives_defaults():
    assert parse_config("") == Config()


def test_comments_and_blanks_are_ignored():
    cfg = parse_config("\n# full line comment\n  \nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_every_numeric_key_parses():
    cfg = parse_config(
        """
        seed = 3
        s_min = 2.5
        tier_drop = 0.8
        base_radius_per_class = 2.0
        island_margin = 5.0
        h0 = 1.2
        h1 = 0.5
        r0 = 0.2
        c = 0.9
        leaf_radius = 0.1
        canopy_coefficient = 0.6
        segments = 16
        """
    )
    assert cfg.seed == 3
    assert cfg.s_min == 2.5
    assert cfg.segments == 16
    assert cfg.tier_drop == 0.8
    assert cfg.c == 0.9


def test_negative_s_min_is_rejected():
    with pytest.raises(NonPositiveValue) as err:
        parse_config("s_min = -1")
    assert "s_min" in str(err.value)


def test_zero_float_is_rejected():
    with pytest.raises(NonPositiveValue):
        parse_config("tier_drop = 0")


def test_seed_zero_is_allowed_but_negative_is_not():
    assert parse_config("seed = 0").seed == 0
    with pytest.raises(NonPositiveValue):
        parse_config("seed = -1")


def test_segments_must_be_positive_integer():
    with pytest.raises(NonPositiveValue):
        parse_config("segments = 0")
    with pytest.raises(ConfigSyntaxError):
        parse_config("segments = eight")


def test_segments_below_eight_are_rejected():
    assert parse_config("segments = 8").segments == 8
    with pytest.raises(NonPositiveValue) as err:
        parse_config("segments = 7")
    assert (err.value.key, err.value.value) == ("segments", 7)
    assert "at least 8" in str(err.value)


def test_segments_above_256_are_rejected():
    assert parse_config("segments = 256").segments == 256
    with pytest.raises(NonPositiveValue) as err:
        parse_config("segments = 257")
    assert (err.value.key, err.value.value) == ("segments", 257)
    assert err.value.exit_code == 2
    assert str(err.value) == "config key segments must be at most 256, got 257"


def test_unknown_key_is_rejected():
    with pytest.raises(UnknownKey):
        parse_config("smin = 2")


def test_malformed_line_reports_position():
    with pytest.raises(ConfigSyntaxError) as err:
        parse_config("just words", file_id="render.cfg")
    assert "render.cfg:1" in str(err.value)
    assert err.value.where == "render.cfg:1"
    assert err.value.exit_code == 2


def test_non_numeric_value_reports_key():
    with pytest.raises(ConfigSyntaxError) as err:
        parse_config("s_min = wide")
    assert "s_min" in str(err.value)


@pytest.mark.parametrize("text", ["h0 = -inf", "c = NaN", "palette.water = 0 0 nan 1"])
def test_non_finite_numbers_are_rejected(text):
    with pytest.raises(ConfigSyntaxError) as err:
        parse_config(text, file_id="render.cfg")
    assert "finite" in str(err.value) and err.value.exit_code == 2


def test_palette_override_applies():
    cfg = parse_config("palette.water = 0.1 0.3 0.9 1.0")
    water = next(m for m in cfg.palette() if m.name == "water")
    assert water.base_color == (0.1, 0.3, 0.9, 1.0)
    # everything else stays at its default
    island = next(m for m in cfg.palette() if m.name == "island")
    assert island.base_color == (0.85, 0.78, 0.55, 1.0)


def test_palette_accepts_commas():
    cfg = parse_config("palette.trunk = 0.4, 0.3, 0.2, 1.0")
    trunk = next(m for m in cfg.palette() if m.name == "trunk")
    assert trunk.base_color == (0.4, 0.3, 0.2, 1.0)


def test_palette_needs_four_components():
    with pytest.raises(ConfigSyntaxError) as err:
        parse_config("seed = 1\npalette.water = 0.1 0.3 0.9", file_id="render.cfg")
    assert err.value.where == "render.cfg:2"


def test_palette_component_range():
    with pytest.raises(NonPositiveValue):
        parse_config("palette.water = 0.1 0.3 0.9 1.5")


def test_unknown_palette_material():
    with pytest.raises(UnknownKey):
        parse_config("palette.sky = 0 0 0 1")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "render.cfg"
    path.write_text("seed = 5\nsegments = 20\n")
    cfg = load_config(path)
    assert (cfg.seed, cfg.segments) == (5, 20)


def test_defaults_match_documented_values():
    cfg = Config()
    assert cfg.s_min == 2.0
    assert cfg.tier_drop == 1.0
    assert cfg.segments == 12
    assert cfg.h0 == 1.0


def test_every_numeric_field_round_trips_a_non_default_value():
    values = {
        name: default + 9 if type(default) is int else default * 2.0 + 0.25
        for name, default in DEFAULTS.items()
    }
    cfg = parse_config("".join(f"{name} = {value}\n" for name, value in values.items()))
    for name, value in values.items():
        got = getattr(cfg, name)
        assert (got, type(got)) == (value, type(value)), name


def test_readme_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration", 1)[1].split("\n\n| key", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    listed = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    keys = set(DEFAULTS) | {"palette.<material>"}
    assert set(Config.__slots__) - set(DEFAULTS) == {"palette_overrides"}
    assert all(type(default) in (int, float) for default in DEFAULTS.values())
    assert listed == keys
