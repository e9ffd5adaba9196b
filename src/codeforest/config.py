"""Rendering configuration.

``Config`` is the one parameter object: layout (``build_layout`` and
its stages) and geometry (``tree_dimensions``, ``assemble_scene``) read
their settings from it directly. Each numeric key takes the type of its
default in ``DEFAULTS``, ``int`` or ``float``.

Config files are flat ``key = value`` lines; ``#`` starts a comment and
blank lines are ignored. Unknown keys are rejected rather than skipped
so typos surface immediately. All numeric knobs must be positive except
``seed``, which only has to be non-negative, and ``segments``, which
takes an integer from 8 to 256. Palette entries override
material colors and take four components in [0, 1]:

    seed = 7
    s_min = 2.5
    palette.water = 0.1 0.3 0.9 1.0
"""

from __future__ import annotations

import math
from pathlib import Path

from . import Record
from .errors import ConfigSyntaxError, NonPositiveValue, UnknownKey
from .geometry import Material, check_segments, default_palette

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
    RGBA), each settable by keyword."""

    __slots__ = (*DEFAULTS, "palette_overrides")

    def __init__(self, **settings):
        self.palette_overrides: dict[str, tuple[float, float, float, float]] = {}
        for key, value in {**DEFAULTS, **settings}.items():
            setattr(self, key, value)

    def palette(self) -> list[Material]:
        return [Material(m.name, self.palette_overrides.get(m.name, m.base_color))
                for m in default_palette()]


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
    """Check ``key = value`` and set it on ``cfg``; ``where`` names the
    source in a syntax error."""
    if key.startswith("palette."):
        name = key[len("palette."):]
        if name not in _PALETTE_NAMES:
            raise UnknownKey(key)
        parts = value.replace(",", " ").split()
        if len(parts) != 4:
            raise ConfigSyntaxError(where, "palette colors take 4 components")
        rgba = tuple(_parse_float(key, part, where) for part in parts)
        for component in rgba:
            if not 0.0 <= component <= 1.0:
                raise NonPositiveValue(key, component, reason="needs components in [0, 1]")
        cfg.palette_overrides[name] = rgba
        return
    default = DEFAULTS.get(key)
    if default is None:
        raise UnknownKey(key)
    if type(default) is int:
        try:
            number = int(value)
        except ValueError:
            raise ConfigSyntaxError(where, f"{key} takes an integer, got {value!r}") from None
        if key == "seed":
            if number < 0:
                raise NonPositiveValue(key, number, reason="must be non-negative")
        else:
            check_segments(number)
    else:
        number = _parse_float(key, value, where)
        if number <= 0.0:
            raise NonPositiveValue(key, number)
    setattr(cfg, key, number)


def _parse_float(key: str, value: str, where: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigSyntaxError(where, f"{key} takes a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigSyntaxError(where, f"{key} takes a finite number, got {value!r}")
    return number
