"""Tests for the indenting JSON writer behind the glTF and the report."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codeforest.exporters.jsontext import json_float, json_text

# Quotes, backslashes, controls, non-ASCII and an astral character
# (written as a surrogate pair), besides any other text.
_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té ퟿\U0001f332')) | st.text()
_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 1e308, -1e308, math.inf, -math.inf, math.nan])
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(_FLOATS, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
@example({"": [], "{}": {}, "n": [math.nan, math.inf, -math.inf, -0.0, 1e308]})
@example([True, 1, 1.0, None, "1"])
def test_matches_json_dumps_indent_two(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 1e308, 0.1])
def test_json_float_spells_like_json(value):
    assert json_float(value) == json.dumps(value)


def test_report_floats_take_four_decimals():
    value = {
        "cohesion": 0.33333,
        "rows": [{"a": {}, "b": []}, [], [1.5, 2.0], [1, 2]],
        "mixed": [True, None, 0.0, "x"],
    }
    assert json_text(value, float_text="%.4f".__mod__) == (
        "{\n"
        '  "cohesion": 0.3333,\n'
        '  "rows": [\n'
        "    {\n"
        '      "a": {},\n'
        '      "b": []\n'
        "    },\n"
        "    [],\n"
        "    [\n"
        "      1.5000,\n"
        "      2.0000\n"
        "    ],\n"
        "    [\n"
        "      1,\n"
        "      2\n"
        "    ]\n"
        "  ],\n"
        '  "mixed": [\n'
        "    true,\n"
        "    null,\n"
        "    0.0000,\n"
        '    "x"\n'
        "  ]\n"
        "}"
    )


def test_other_types_are_refused():
    with pytest.raises(TypeError):
        json_text({"t": (1, 2)})
