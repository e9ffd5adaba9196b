"""In-process traced run: spans around the public call of each layer.

The tracer wraps module attributes of codeforest for the duration of a
pass and restores them afterwards, so the program's own code is never
edited. Each wrapped call records a span (name, start, end, parent) and
cheap counts taken from its arguments and result. Spans stay in memory
and are written once, when the run ends.

A traced pass runs what the CLI runs, once each: ``pipeline.analyze``
and the report (the ``analyze`` command), then ``pipeline.build_scene``
and the glTF, OBJ and MEL exporters (the ``render`` command).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

from codeforest import pipeline
from codeforest.exporters import export_gltf, export_mel, export_obj, export_report
from codeforest.model import CodeModel, resolve_calls
from codeforest.parser import RECEIVER_THIS


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


@dataclass
class Pass:
    """One traced pass: its spans, counts and per-layer peak RSS."""

    number: int
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    rss_mb: dict[str, float] = field(default_factory=dict)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_tokens(counts, args, result) -> None:
    counts["lexer.bytes"] += len(args[0])
    counts["lexer.tokens"] += len(result)


def _count_unit(counts, args, result) -> None:
    counts["parser.classes"] += len(result)
    for cls in result:
        counts["parser.methods"] += len(cls.methods)
        for method in cls.methods:
            counts["parser.call_sites"] += len(method.call_sites)
            for site in method.call_sites:
                counts[f"parser.call_sites.{site.receiver_kind}"] += 1


def _count_corpus(counts, args, result) -> None:
    counts["parser.files"] += len(result.units)
    counts["parser.failures"] += len(result.failures)


def _count_inheritance(counts, args, result) -> None:
    model = args[0]
    counts["model.inheritance_edges"] += len(model.inheritance_edges)
    counts["model.unresolved_supers"] += len(model.unresolved_supers)


def _count_calls(counts, args, result) -> None:
    edges = args[0].call_edges
    counts["model.call_edges"] += len(edges)
    counts["model.resolved_call_sites"] += sum(e.count for e in edges)


def _count_layout(counts, args, result) -> None:
    counts["layout.islands"] += len(result.islands)
    counts["layout.channel_points"] += sum(len(c.polyline) for c in result.channels)


# (module, attribute, span name, counter). Each attribute is what the
# caller looks up at call time, so wrapping it there puts a span around
# every call the pipeline makes.
WRAPPED = (
    ("codeforest.pipeline", "parse_corpus", "parser.parse_corpus", _count_corpus),
    ("codeforest.parser", "tokenize", "lexer.tokenize", _count_tokens),
    ("codeforest.parser", "parse_unit", "parser.parse_unit", _count_unit),
    ("codeforest.pipeline", "build_model", "model.build_model", None),
    ("codeforest.pipeline", "resolve_inheritance", "model.resolve_inheritance",
     _count_inheritance),
    ("codeforest.pipeline", "resolve_calls", "model.resolve_calls", _count_calls),
    ("codeforest.pipeline", "compute_metrics", "model.compute_metrics", None),
    ("codeforest.model", "compute_layers", "model.compute_layers", None),
    ("codeforest.layout", "compute_layers", "model.compute_layers", None),
    ("codeforest.pipeline", "build_layout", "layout.build_layout", _count_layout),
    ("codeforest.layout", "place_islands", "layout.place_islands", None),
    ("codeforest.layout", "place_trees", "layout.place_trees", None),
    ("codeforest.layout", "route_channels", "layout.route_channels", None),
    ("codeforest.pipeline", "assemble_scene", "geometry.assemble_scene", None),
    ("codeforest.exporters.gltf", "build_gltf", "exporters.gltf.build", None),
    ("codeforest.exporters.obj", "obj_text", "exporters.obj.text", None),
)

# Root spans of each command's path; the gltf render path is what the
# untraced ``render --format gltf`` is compared against.
ANALYZE_PATH = ("pipeline.analyze", "exporters.report.export")
GLTF_PATH = ("pipeline.analyze", "pipeline.build_scene", "exporters.gltf.export")


class Tracer:
    """Collects spans and counts; one ``Pass`` per traced pipeline run."""

    def __init__(self):
        self.passes: list[Pass] = []
        self._current: Pass | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        cur = self._current
        record = Span(len(cur.spans), self._stack[-1] if self._stack else None,
                      name, time.perf_counter())
        cur.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield cur.counts
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if cur.number == 0:
                cur.rss_mb[name.rsplit(".", 1)[0]] = _rss_mb()

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every ``WRAPPED`` attribute, restoring them on exit.

        An attribute that no longer exists raises ``AttributeError``; one
        the pipeline no longer calls leaves its span out, which the
        caller checks.
        """
        saved = []
        try:
            for module_name, attr, name, counter in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_pass(self, root, cfg, out) -> dict:
        """Trace one full pass; return the paths written, by output kind."""
        self._current = Pass(len(self.passes))
        self.passes.append(self._current)
        paths = {kind: out / f"scene.{kind}" for kind in ("gltf", "obj", "mel")}
        paths["mtl"] = out / "scene.mtl"
        paths["report"] = out / "report.json"
        with self.installed():
            with self.span("pipeline.analyze"):
                info = pipeline.analyze(root)
            with self.span("exporters.report.export"):
                export_report(info, paths["report"])
            with self.span("pipeline.build_scene"):
                scene = pipeline.build_scene(info, cfg)
            with self.span("exporters.gltf.export"):
                export_gltf(scene, paths["gltf"])
            with self.span("exporters.obj.export"):
                export_obj(scene, paths["obj"])
            with self.span("exporters.mel.export"):
                export_mel(scene, paths["mel"])
        if self._current.number == 0:
            self._current.counts.update(_scene_census(scene))
            self._current.counts.update(_resolution_by_kind(info.model))
        self._current = None
        return paths


def _scene_census(scene) -> dict[str, float]:
    """Node, mesh and geometry counts; distinct meshes by content."""
    distinct = {
        hashlib.sha256(
            m.positions.tobytes() + m.normals.tobytes() + m.indices.tobytes()
            + str(m.material).encode()
        ).digest()
        for m in scene.meshes
    }
    return {
        "geometry.nodes": len(scene.nodes),
        "geometry.meshes": len(scene.meshes),
        "geometry.distinct_meshes": len(distinct),
        "geometry.vertices": sum(int(m.positions.shape[0]) for m in scene.meshes),
        "geometry.triangles": sum(int(m.indices.shape[0]) // 3 for m in scene.meshes),
    }


def _resolution_by_kind(model) -> dict[str, float]:
    """Resolved implicit-this sites, from a re-resolution of those alone.

    Edge counts sum to the resolved call sites, so resolving a copy of
    the model that keeps only implicit-this sites gives that route's
    share; the named route is the rest.
    """
    only_this = CodeModel(
        model.packages,
        [
            replace(cls, methods=[
                replace(m, call_sites=[s for s in m.call_sites
                                       if s.receiver_kind == RECEIVER_THIS])
                for m in cls.methods
            ])
            for cls in model.classes
        ],
        model.package_of,
        model.inheritance_edges,
        model.unresolved_supers,
    )
    resolve_calls(only_this)
    resolved_all = sum(e.count for e in model.call_edges)
    resolved_this = sum(e.count for e in only_this.call_edges)
    return {
        "model.resolved_call_sites.this": resolved_this,
        "model.resolved_call_sites.named": resolved_all - resolved_this,
    }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s.span_id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def subtree_ids(spans: list[Span], roots: tuple[str, ...]) -> set[int]:
    """Ids of the spans under top-level spans named in ``roots``."""
    keep: set[int] = set()
    for s in spans:  # parents precede children
        if (s.parent is None and s.name in roots) or s.parent in keep:
            keep.add(s.span_id)
    return keep


def summarize(p: Pass) -> dict[str, float]:
    """One pass's time per span name (``<name>_s``), and per command path
    its total (``path.<path>_s``) and self time per span name
    (``path.<path>.<name>.self_s``)."""
    out: dict[str, float] = defaultdict(float)
    own = self_times(p.spans)
    for s in p.spans:
        out[f"{s.name}_s"] += s.end - s.start
    for label, roots in (("analyze", ANALYZE_PATH), ("gltf", GLTF_PATH)):
        ids = subtree_ids(p.spans, roots)
        out[f"path.{label}_s"] = sum(
            s.end - s.start for s in p.spans if s.span_id in ids and s.parent is None
        )
        for s in p.spans:
            if s.span_id in ids:
                out[f"path.{label}.{s.name}.self_s"] += own[s.span_id]
    return dict(out)
