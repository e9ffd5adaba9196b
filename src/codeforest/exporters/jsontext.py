"""Indented JSON text for the metrics report and the glTF's short values.

``json_text(value)`` is byte-equal to ``json.dumps(value, indent=2)``
for a value made of dicts with str keys, lists, str, int, float, bool
and None. ``json.dumps`` with an indent runs CPython's pure-Python
encoder; here containers are indented by hand, strings and keys go
through the C ``encode_basestring_ascii``, and a list whose items are
all floats or all ints is written with one ``join``.

``float_text`` formats every float. The default, ``json_float``, is
``float.__repr__`` with json's ``NaN`` and ``Infinity`` spelling; the
report passes ``"%.4f".__mod__``. The glTF writer (``gltf.gltf_text``)
writes its four long arrays through fixed per-record templates, using
``json_float`` for their floats, and this writer for the rest.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from math import inf
from typing import Callable


def json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if value != value:
        return "NaN"
    if value == inf:
        return "Infinity"
    if value == -inf:
        return "-Infinity"
    return float.__repr__(value)


def json_text(value, float_text: Callable[[float], str] = json_float) -> str:
    """``value`` as JSON text, two spaces per level, no trailing newline."""

    def encode(value, newline: str) -> str:
        kind = type(value)
        if kind is str:
            return _quote(value)
        if kind is float:
            return float_text(value)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        inner = newline + "  "
        if kind is dict:
            if not value:
                return "{}"
            rows = [_quote(key) + ": " + encode(item, inner) for key, item in value.items()]
            return "{" + inner + ("," + inner).join(rows) + newline + "}"
        if kind is list:
            if not value:
                return "[]"
            if all(type(item) is float for item in value):
                rows = map(float_text, value)
            elif all(type(item) is int for item in value):
                rows = map(int.__repr__, value)
            else:
                rows = [encode(item, inner) for item in value]
            return "[" + inner + ("," + inner).join(rows) + newline + "]"
        raise TypeError(f"{kind.__name__} is not JSON serializable here")

    return encode(value, "\n")
