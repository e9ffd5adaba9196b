"""Rendering configuration.

``Config`` is the one parameter object: layout (``build_layout`` and
its stages) and geometry (``tree_dimensions``, ``assemble_scene``) read
their settings from it directly. ``check_setting`` is the one rule for
every value set on it, from a config file, ``--seed`` or code.

Config files are flat ``key = value`` lines; ``#`` starts a comment and
blank lines are ignored. Unknown keys are rejected rather than skipped
so typos surface immediately. Palette entries override material colors:

    seed = 7
    s_min = 2.5
    palette.water = 0.1 0.3 0.9 1.0
"""

from __future__ import annotations

import math
from pathlib import Path

from . import Record
from .errors import ConfigSyntaxError, NonPositiveValue, UnknownKey
from .geometry import Material, default_palette

_PALETTE_NAMES = {m.name for m in default_palette()}

# Numeric key -> its default, whose type, int or float, is the key's type.
DEFAULTS = {
    "seed": 0,
    "s_min": 2.0,
    "tier_drop": 1.0,
    "base_radius_per_class": 1.5,
    "island_margin": 4.0,
    "h0": 1.0,
    "h1": 0.4,
    "r0": 0.15,
    "c": 1.0,
    "leaf_radius": 0.12,
    "canopy_coefficient": 0.5,
    "segments": 12,
}


class Config(Record):
    """The ``DEFAULTS`` keys and ``palette_overrides`` (material name ->
    RGBA), each settable by keyword and checked by ``check_setting``
    whenever set; changing ``palette_overrides`` in place is not."""

    __slots__ = (*DEFAULTS, "palette_overrides")

    def __init__(self, **settings):
        for key, value in {**DEFAULTS, "palette_overrides": {}, **settings}.items():
            setattr(self, key, value)

    def __setattr__(self, key: str, value) -> None:
        object.__setattr__(self, key, check_setting(key, value))

    def palette(self) -> list[Material]:
        return [Material(m.name, self.palette_overrides.get(m.name, m.base_color))
                for m in default_palette()]


def check_setting(key: str, value):
    """``value`` as ``Config`` keeps it under ``key`` (a float key's as a
    ``float``); ``UnknownKey`` for a key it lacks, ``NonPositiveValue`` for
    a value the key does not take. A render's size grows with the square
    of ``segments``: 256 gives a 10 MB glTF."""
    if key == "palette_overrides":
        if not isinstance(value, dict):
            raise NonPositiveValue(key, value, reason="must be a dict")
        for name, rgba in value.items():
            key = f"palette.{name}"
            if name not in _PALETTE_NAMES:
                raise UnknownKey(key)
            if not isinstance(rgba, (tuple, list)) or len(rgba) != 4:
                raise NonPositiveValue(key, rgba, reason="needs 4 components")
            for component in rgba:
                if not (_is_number(component) and 0.0 <= component <= 1.0):
                    raise NonPositiveValue(key, component, reason="needs components in [0, 1]")
        return dict(value)
    if key not in DEFAULTS:
        raise UnknownKey(key)
    number = _is_number(value)
    if type(DEFAULTS[key]) is float:
        if not (number and 0 < value < 2**1024):  # 2**1024 is past every float
            reason = "must be positive" if number and value <= 0 else "must be a finite number"
            raise NonPositiveValue(key, value, reason=reason)
        return float(value)
    if not (number and isinstance(value, int)):
        raise NonPositiveValue(key, value, reason="must be an integer")
    if key == "seed" and value < 0:
        raise NonPositiveValue(key, value, reason="must be non-negative")
    if key == "segments" and not 8 <= value <= 256:
        bound = "at least 8" if value < 8 else "at most 256"
        raise NonPositiveValue(key, value, reason=f"must be {bound}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_config(text: str, file_id: str = "<config>") -> Config:
    cfg = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"{file_id}:{lineno}", "expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        apply_setting(cfg, key, value, f"{file_id}:{lineno}")
    return cfg


def load_config(path: str | Path) -> Config:
    p = Path(path)
    try:
        text = p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigSyntaxError(str(p), f"invalid UTF-8 at byte offset {exc.start}") from None
    return parse_config(text, file_id=str(p))


def apply_setting(cfg: Config, key: str, value: str, where: str) -> None:
    """Parse the text ``value`` as ``key`` takes it and assign it to ``cfg``,
    which checks it; ``where`` names the source in a syntax error."""
    if key.startswith("palette."):
        parts = value.replace(",", " ").split()
        if len(parts) != 4:
            raise ConfigSyntaxError(where, "palette colors take 4 components")
        rgba = tuple(_parse_number(float, key, part, where) for part in parts)
        cfg.palette_overrides = {**cfg.palette_overrides, key[len("palette."):]: rgba}
    elif key in DEFAULTS:
        setattr(cfg, key, _parse_number(type(DEFAULTS[key]), key, value, where))
    else:
        raise UnknownKey(key)


def _parse_number(kind: type, key: str, text: str, where: str):
    """``text`` as a ``kind``, ``int`` or ``float``; a float must be finite."""
    try:
        number = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigSyntaxError(where, f"{key} takes {what}, got {text!r}") from None
    if kind is float and not math.isfinite(number):
        raise ConfigSyntaxError(where, f"{key} takes a finite number, got {text!r}")
    return number
