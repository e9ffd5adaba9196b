"""End-to-end orchestration: source tree in, scene and metrics out."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .config import Config
from .geometry import Scene, assemble_scene
from .layout import build_layout
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


@dataclass
class CorpusInfo:
    """Parsed and measured corpus, ready for layout or reporting."""

    root: str
    model: CodeModel
    class_metrics: list[ClassMetrics]
    package_metrics: list[PackageMetrics]
    totals: dict
    files: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


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
    cfg = config if config is not None else Config()
    return assemble_scene(info.model, info.class_metrics, build_layout(info.model, cfg), cfg)
