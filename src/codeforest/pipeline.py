"""End-to-end orchestration: source tree in, scene and metrics out.

``analyze`` needs only the parser and the model. The scene layers
(``config``, ``layout``, ``geometry``) are imported when ``build_scene``
first runs, so an ``analyze`` command never loads them. Every layer
function is still a module attribute, looked up at call time, so
replacing one here replaces it for every call the pipeline makes.
"""

from __future__ import annotations

from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .model import (
    ClassMetrics,
    CodeModel,
    PackageMetrics,
    build_model,
    compute_metrics,
    corpus_totals,
    resolve_calls,
    resolve_inheritance,
)
from .parser import parse_corpus

if TYPE_CHECKING:
    from .config import Config
    from .geometry import Scene, assemble_scene
    from .layout import build_layout

# Scene-layer name -> the module that defines it, imported on first use.
_SCENE_LAYERS = {"Config": "config", "build_layout": "layout", "assemble_scene": "geometry"}


def __getattr__(name: str):
    try:
        home = _SCENE_LAYERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{home}", __package__), name)
    return value


class CorpusInfo:
    """Parsed and measured corpus, ready for layout or reporting."""

    __slots__ = ("root", "model", "class_metrics", "package_metrics", "totals", "files",
                 "failures", "warnings")

    def __init__(self, root: str, model: CodeModel, class_metrics: list[ClassMetrics],
                 package_metrics: list[PackageMetrics], totals: dict, files: int = 0,
                 failures: list[tuple[str, str]] | None = None,
                 warnings: list[str] | None = None):
        self.root = root
        self.model = model
        self.class_metrics = class_metrics
        self.package_metrics = package_metrics
        self.totals = totals
        self.files = files
        self.failures = [] if failures is None else failures
        self.warnings = [] if warnings is None else warnings


def analyze(root: str | Path) -> CorpusInfo:
    """Parse every ``.java`` file under ``root`` and compute metrics.

    Files that fail to parse are recorded in ``failures`` and excluded;
    the rest of the corpus is still analyzed.
    """
    parse = parse_corpus(root)
    model = build_model(parse.units)
    resolve_inheritance(model)
    resolve_calls(model)
    class_metrics, package_metrics = compute_metrics(model)
    return CorpusInfo(
        root=str(root),
        model=model,
        class_metrics=class_metrics,
        package_metrics=package_metrics,
        totals=corpus_totals(model, class_metrics),
        files=len(parse.units),
        failures=parse.failures,
        warnings=parse.warnings,
    )


def build_scene(info: CorpusInfo, config: Config | None = None) -> Scene:
    """Lay out the corpus and assemble the full scene graph."""
    for name in _SCENE_LAYERS.keys() - globals().keys():
        __getattr__(name)
    cfg = config if config is not None else Config()
    return assemble_scene(info.model, info.class_metrics, build_layout(info.model, cfg), cfg)
