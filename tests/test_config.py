"""Config file parsing and validation."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codeforest.config import DEFAULTS, Config, load_config, parse_config
from codeforest.errors import CodeforestError, ConfigSyntaxError, NonPositiveValue, UnknownKey
from codeforest.exporters import build_gltf, mel_text, obj_text
from codeforest.exporters.obj import mtl_text
from codeforest.geometry import default_palette
from codeforest.pipeline import build_scene

from conftest import corpus


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


_MATERIALS = [m.name for m in default_palette()]
# Numbers at and past every edge of the rule, and values of no number type.
_VALUES = (st.sampled_from([0, 0.0, -0.0, -1, 7, 8, 256, 257, 1e308, 2**1024, -math.inf,
                            math.inf, math.nan, True, False, None, "2", "", b"1"])
           | st.integers(-10**20, 10**20) | st.integers(0, 40) | st.floats()
           | st.floats(0.01, 100.0) | st.text(max_size=3)
           | st.lists(st.floats(0.0, 1.0) | st.floats() | st.integers(-1, 2),
                      min_size=3, max_size=5).map(tuple))


@st.composite
def settings_in_code(draw) -> tuple[str, object]:
    """A ``Config`` keyword and a value for it: a numeric key, the palette
    (a bare value, or materials, known or not, mapped to values) or a key
    ``Config`` does not have."""
    key = draw(st.sampled_from([*DEFAULTS, "palette_overrides", "smin", "palette", "seeds"]))
    if key == "palette_overrides" and draw(st.booleans()):
        return key, draw(st.dictionaries(st.sampled_from([*_MATERIALS, "sky"]), _VALUES,
                                         max_size=2))
    return key, draw(_VALUES)


@settings(max_examples=150, deadline=None)
@given(settings_in_code())
@example(("island_margin", math.nan))
@example(("s_min", "2"))
@example(("smin", 2))
@example(("seed", -1))
@example(("segments", 8.5))
@example(("palette_overrides", {"water": (0.0, 0.0, 0.0)}))
@example(("palette_overrides", {"water": (0, 1, 0, True)}))
@example(("h1", 2**1024))
def test_a_config_built_in_code_is_refused_or_renders(setting):
    key, value = setting
    try:
        cfg = Config(**{key: value})
    except (UnknownKey, NonPositiveValue):
        return
    try:
        scene = build_scene(corpus("two_classes"), cfg)
        build_gltf(scene), obj_text(scene), mtl_text(scene), mel_text(scene)
    except CodeforestError:
        pass


def _outcome(build):
    """What ``build()`` gives: a ``Config``, or its error's type and message."""
    try:
        return build()
    except CodeforestError as exc:
        return type(exc), str(exc)


@st.composite
def numeric_settings(draw) -> tuple[str, int | float]:
    """A numeric key and a finite value of its own type."""
    key = draw(st.sampled_from(sorted(DEFAULTS)))
    if type(DEFAULTS[key]) is int:
        return key, draw(st.integers(-10**20, 10**20) | st.integers(-2, 300))
    return key, draw(st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(numeric_settings())
@example(("s_min", -0.0))
@example(("segments", 7))
@example(("seed", -1))
def test_code_and_files_meet_one_rule(setting):
    key, value = setting
    assert (_outcome(lambda: Config(**{key: value}))
            == _outcome(lambda: parse_config(f"{key} = {value!r}")))


@pytest.mark.parametrize("bad", [
    {"island_margin": math.nan}, {"s_min": "2"}, {"smin": 2}, {"seed": -1},
    {"segments": 8.5}, {"palette_overrides": {"water": (0.0, 0.0, 0.0)}},
    {"h0": True}, {"palette_overrides": {"sky": (0.0, 0.0, 0.0, 1.0)}},
])
def test_a_bad_setting_in_code_is_refused_at_construction(bad):
    with pytest.raises((NonPositiveValue, UnknownKey)):
        Config(**bad)


def test_an_assignment_is_checked_as_a_keyword_is():
    cfg = Config()
    with pytest.raises(NonPositiveValue) as err:
        cfg.seed = -1
    assert str(err.value) == "config key seed must be non-negative, got -1"
    with pytest.raises(UnknownKey):
        cfg.smin = 2.0
    cfg.s_min = 3
    assert (cfg.s_min, type(cfg.s_min), cfg.seed) == (3.0, float, 0)
