"""JSON metrics report.

Fixed top-level key order (corpus, totals, packages, classes,
inheritance_edges, call_edges, unresolved_supers) and fixed float
formatting (%.4f for cohesion) so byte-identical inputs yield
byte-identical reports. Class and method names are fully qualified;
call edges use overload labels (``draw``, ``draw#2``). The text, laid
out as ``json.dumps(indent=2)`` lays it out, is written by
``jsontext.json_text``.
"""

from __future__ import annotations

from pathlib import Path

from ..model import METHOD_KINDS, method_labels
from ..pipeline import CorpusInfo
from .jsontext import json_text


def report_dict(info: CorpusInfo) -> dict:
    model = info.model
    classes = []
    for i, cls in enumerate(model.classes):
        cm = info.class_metrics[i]
        classes.append(
            {
                "package": cls.package_name,
                "name": cls.name,
                "method_count": cm.method_count,
                "loc": cm.loc,
                "depth": cm.depth,
                "fan_in": cm.fan_in,
                "fan_out": cm.fan_out,
                "cohesion": float(cm.cohesion),
                "kind_histogram": {
                    kind: cm.kind_histogram.get(kind, 0) for kind in METHOD_KINDS
                },
            }
        )
    packages = []
    for pm in info.package_metrics:
        packages.append(
            {
                "name": model.packages[pm.package_index].name,
                "classes": pm.class_count,
                "methods": pm.method_count,
                "loc": pm.loc,
                "inheritance_edges": pm.inheritance_edge_count,
            }
        )
    labels = [method_labels(cls) for cls in model.classes]

    def method_name(method_id) -> str:
        class_index, method_index = method_id
        return f"{model.qualified_name(class_index)}.{labels[class_index][method_index]}"

    return {
        "corpus": {"root": info.root, "files": info.files},
        "totals": info.totals,
        "packages": packages,
        "classes": classes,
        "inheritance_edges": [
            {
                "child": model.qualified_name(child),
                "parent": model.qualified_name(parent),
            }
            for child, parent in model.inheritance_edges
        ],
        "call_edges": [
            {
                "caller": method_name(edge.caller),
                "callee": method_name(edge.callee),
                "count": edge.count,
            }
            for edge in model.call_edges
        ],
        "unresolved_supers": [
            {"class": model.qualified_name(class_index), "written": written}
            for class_index, written in model.unresolved_supers
        ],
    }


def report_text(info: CorpusInfo) -> str:
    return json_text(report_dict(info), float_text="%.4f".__mod__) + "\n"


def export_report(info: CorpusInfo, path: str | Path) -> None:
    Path(path).write_text(report_text(info), encoding="utf-8")
