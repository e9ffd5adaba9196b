"""JSON metrics report.

Fixed top-level key order (corpus, totals, packages, classes,
inheritance_edges, call_edges, unresolved_supers) and fixed float
formatting (%.4f for cohesion) so byte-identical inputs yield
byte-identical reports. Class and method names are fully qualified;
call edges use overload labels (``draw``, ``draw#2``).

``report_text`` writes the text straight from the analyzed corpus, laid
out as ``json.dumps(indent=2)`` lays it out: each row of the five lists
(package, class, inheritance edge, call edge, unresolved super) is one
``%`` template filled from the model and its metrics.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING

from ..model import METHOD_KINDS, method_labels

if TYPE_CHECKING:
    from ..pipeline import CorpusInfo

_PACKAGE = (
    '{\n      "name": %s,\n      "classes": %d,\n      "methods": %d,\n      "loc": %d,'
    '\n      "inheritance_edges": %d\n    }'
)

_CLASS = (
    '{\n      "package": %s,\n      "name": %s,\n      "method_count": %d,\n      "loc": %d,'
    '\n      "depth": %d,\n      "fan_in": %d,\n      "fan_out": %d,\n      "cohesion": %.4f,'
    '\n      "kind_histogram": {\n        '
    + ",\n        ".join(_quote(kind) + ": %d" for kind in METHOD_KINDS)
    + "\n      }\n    }"
)

_INHERITANCE = '{\n      "child": %s,\n      "parent": %s\n    }'
_CALL = '{\n      "caller": %s,\n      "callee": %s,\n      "count": %d\n    }'
_UNRESOLVED = '{\n      "class": %s,\n      "written": %s\n    }'

_DOCUMENT = (
    '{\n  "corpus": {\n    "root": %s,\n    "files": %d\n  },\n  "totals": {\n    %s\n  },'
    '\n  "packages": %s,\n  "classes": %s,\n  "inheritance_edges": %s,'
    '\n  "call_edges": %s,\n  "unresolved_supers": %s\n}\n'
)


def _array(rows: list[str]) -> str:
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def report_text(info: CorpusInfo) -> str:
    model = info.model
    qualified = [model.qualified_name(i) for i in range(len(model.classes))]
    labels = [method_labels(cls) for cls in model.classes]

    def method_name(method_id) -> str:
        class_index, method_index = method_id
        return _quote(f"{qualified[class_index]}.{labels[class_index][method_index]}")

    packages = [
        _PACKAGE % (_quote(pkg.name), pm.class_count, pm.method_count, pm.loc,
                    pm.inheritance_edge_count)
        for pkg, pm in zip(model.packages, info.package_metrics)
    ]
    classes = [
        _CLASS % (_quote(cls.package_name), _quote(cls.name), cm.method_count, cm.loc,
                  cm.depth, cm.fan_in, cm.fan_out, cm.cohesion,
                  *[cm.kind_histogram.get(kind, 0) for kind in METHOD_KINDS])
        for cls, cm in zip(model.classes, info.class_metrics)
    ]
    inheritance = [_INHERITANCE % (_quote(qualified[child]), _quote(qualified[parent]))
                   for child, parent in model.inheritance_edges]
    calls = [_CALL % (method_name(edge.caller), method_name(edge.callee), edge.count)
             for edge in model.call_edges]
    unresolved = [_UNRESOLVED % (_quote(qualified[class_index]), _quote(written))
                  for class_index, written in model.unresolved_supers]
    totals = ",\n    ".join("%s: %d" % (_quote(key), value)
                            for key, value in info.totals.items())
    return _DOCUMENT % (_quote(info.root), info.files, totals, _array(packages),
                        _array(classes), _array(inheritance), _array(calls),
                        _array(unresolved))


def export_report(info: CorpusInfo, path: str | Path) -> None:
    Path(path).write_text(report_text(info), encoding="utf-8")
