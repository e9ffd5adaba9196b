"""Corpus-wide code model and the structural metrics computed on it.

``build_model`` arranges parsed declarations into a stable order
(packages by name, classes by package then class name) so every later
stage, including scene assembly and export, inherits determinism from
it. ``resolve_inheritance`` and ``resolve_calls`` then turn written
names into index-based edges:

* a class's parent is resolved against same-package classes first,
  then against a unique simple name anywhere in the corpus; ambiguous
  or external names land in ``unresolved_supers``;
* an implicit-this call resolves to a same-name method on the
  enclosing class or its nearest resolved ancestor;
* a named-receiver call resolves only when the receiver is a field
  whose declared type is a corpus class, and targets that class's own
  same-name method.

Both resolutions ignore parameter counts; overloads collapse onto the
first declared method of the name. Identical caller/callee pairs merge
with summed counts, so the total of edge counts equals the number of
resolved call sites and fan-in and fan-out sums always balance.
"""

from __future__ import annotations

from . import Record
from .errors import DuplicateClassName, InheritanceCycle
from .parser import (
    RECEIVER_NAMED,
    RECEIVER_THIS,
    ClassDecl,
    CorpusUnit,
    MethodDecl,
)

KIND_ACCESSOR = "accessor"
KIND_MUTATOR = "mutator"
KIND_CONSTRUCTOR = "constructor"
KIND_OTHER = "other"
METHOD_KINDS = (KIND_CONSTRUCTOR, KIND_ACCESSOR, KIND_MUTATOR, KIND_OTHER)

MethodId = tuple[int, int]  # (class index, method ordinal in declaration order)


class PackageRecord:
    __slots__ = ("name", "class_indices")

    def __init__(self, name: str, class_indices: list[int]):
        self.name = name
        self.class_indices = class_indices


class CallEdge(Record):
    __slots__ = ("caller", "callee", "count")

    def __init__(self, caller: MethodId, callee: MethodId, count: int):
        self.caller = caller
        self.callee = callee
        self.count = count


class CodeModel:
    __slots__ = ("packages", "classes", "package_of", "inheritance_edges",
                 "unresolved_supers", "call_edges")

    def __init__(self, packages: list[PackageRecord], classes: list[ClassDecl],
                 package_of: list[int], inheritance_edges: list[tuple[int, int]] | None = None,
                 unresolved_supers: list[tuple[int, str]] | None = None):
        self.packages = packages
        self.classes = classes
        self.package_of = package_of
        self.inheritance_edges = [] if inheritance_edges is None else inheritance_edges
        self.unresolved_supers = [] if unresolved_supers is None else unresolved_supers
        self.call_edges: list[CallEdge] = []

    def qualified_name(self, class_index: int) -> str:
        pkg = self.packages[self.package_of[class_index]].name
        return f"{pkg}.{self.classes[class_index].name}"


class ClassMetrics(Record):
    __slots__ = ("method_count", "loc", "depth", "fan_in", "fan_out", "cohesion",
                 "kind_histogram")

    def __init__(self, method_count: int, loc: int, depth: int, fan_in: int, fan_out: int,
                 cohesion: float, kind_histogram: dict[str, int]):
        self.method_count = method_count
        self.loc = loc
        self.depth = depth
        self.fan_in = fan_in
        self.fan_out = fan_out
        self.cohesion = cohesion
        self.kind_histogram = kind_histogram


class PackageMetrics:
    __slots__ = ("class_count", "method_count", "loc", "inheritance_edge_count")

    def __init__(self, class_count: int, method_count: int, loc: int,
                 inheritance_edge_count: int):
        self.class_count = class_count
        self.method_count = method_count
        self.loc = loc
        self.inheritance_edge_count = inheritance_edge_count


def build_model(units: list[CorpusUnit]) -> CodeModel:
    """Arrange parsed units into the deterministic corpus model."""
    decls: list[ClassDecl] = []
    seen: set[tuple[str, str]] = set()
    for unit in units:
        for cls in unit.classes:
            key = (cls.package_name, cls.name)
            if key in seen:
                raise DuplicateClassName(cls.package_name, cls.name)
            seen.add(key)
            decls.append(cls)

    decls.sort(key=lambda c: (c.package_name, c.name))
    package_names = sorted({c.package_name for c in decls})
    pkg_index = {name: i for i, name in enumerate(package_names)}
    packages = [PackageRecord(name, []) for name in package_names]
    package_of = []
    for idx, cls in enumerate(decls):
        p = pkg_index[cls.package_name]
        packages[p].class_indices.append(idx)
        package_of.append(p)
    return CodeModel(packages, decls, package_of)


def _class_lookup(model: CodeModel):
    """Map simple and flattened names to candidate class indices."""
    by_name: dict[str, list[int]] = {}
    for idx, cls in enumerate(model.classes):
        by_name.setdefault(cls.simple_name, []).append(idx)
        if cls.simple_name != cls.name:
            by_name.setdefault(cls.name, []).append(idx)
    return by_name


def _resolve_name(model: CodeModel, by_name, from_class: int, written: str) -> int | None:
    """Resolve a written type name to the one candidate in ``from_class``'s
    package, else to the one in the corpus; two or more resolve nothing."""
    candidates = by_name.get(written) or by_name.get(written.rsplit(".", 1)[-1]) or []
    candidates = [i for i in candidates if i != from_class]
    pkg = model.package_of[from_class]
    pool = [i for i in candidates if model.package_of[i] == pkg] or candidates
    return pool[0] if len(pool) == 1 else None


def resolve_inheritance(model: CodeModel) -> None:
    """Fill inheritance edges and unresolved supers, then check acyclicity."""
    by_name = _class_lookup(model)
    edges: list[tuple[int, int]] = []
    unresolved: list[tuple[int, str]] = []
    for idx, cls in enumerate(model.classes):
        if cls.super_name is None:
            continue
        parent = _resolve_name(model, by_name, idx, cls.super_name)
        if parent is None:
            unresolved.append((idx, cls.super_name))
        else:
            edges.append((idx, parent))
    model.inheritance_edges = edges
    model.unresolved_supers = unresolved
    compute_layers(model)  # raises InheritanceCycle


def _parents(model: CodeModel) -> list[int | None]:
    """Each class's resolved parent; the parser gives at most one."""
    parent: list[int | None] = [None] * len(model.classes)
    for child, p in model.inheritance_edges:
        parent[child] = p
    return parent


def compute_layers(model: CodeModel) -> list[int]:
    """Number of resolved ancestors above each class.

    Roots (classes with no resolved parent) sit at layer 0. Classes are
    walked up their parent pointers in index order, and each walk stops
    at the first class whose layer is already known. A walk that meets
    itself raises ``InheritanceCycle`` naming the loop, first class
    repeated at the end.
    """
    parent = _parents(model)
    layers: list[int | None] = [None] * len(model.classes)
    for start in range(len(model.classes)):
        path: dict[int, int] = {}  # class -> position on this walk
        node = start
        while node is not None and layers[node] is None:
            if node in path:
                cycle = list(path)[path[node]:] + [node]
                raise InheritanceCycle([model.qualified_name(i) for i in cycle])
            path[node] = len(path)
            node = parent[node]
        depth = -1 if node is None else layers[node]
        for i in reversed(path):
            depth += 1
            layers[i] = depth
    return layers


def resolve_calls(model: CodeModel) -> None:
    """Resolve call sites into merged, counted method-to-method edges."""
    by_name = _class_lookup(model)
    method_ordinal: list[dict[str, int]] = []
    field_types: list[dict[str, str]] = []
    for cls in model.classes:
        ordinals: dict[str, int] = {}
        for k, m in enumerate(cls.methods):
            ordinals.setdefault(m.name, k)
        method_ordinal.append(ordinals)
        ftypes: dict[str, str] = {}
        for f in cls.fields:
            ftypes.setdefault(f.name, f.declared_type)
        field_types.append(ftypes)

    parent = _parents(model)

    counts: dict[tuple[MethodId, MethodId], int] = {}
    for idx, cls in enumerate(model.classes):
        for ordinal, method in enumerate(cls.methods):
            caller: MethodId = (idx, ordinal)
            for site in method.call_sites:
                target = None
                if site.receiver_kind == RECEIVER_THIS:
                    cand = idx
                    while cand is not None:  # ends: resolve_inheritance found no cycle
                        hit = method_ordinal[cand].get(site.callee_name)
                        if hit is not None:
                            target = (cand, hit)
                            break
                        cand = parent[cand]
                elif site.receiver_kind == RECEIVER_NAMED:
                    ftype = field_types[idx].get(site.receiver_name)
                    if ftype is not None:
                        owner = _resolve_name(model, by_name, idx, ftype)
                        if owner is not None:
                            hit = method_ordinal[owner].get(site.callee_name)
                            if hit is not None:
                                target = (owner, hit)
                if target is not None:
                    counts[(caller, target)] = counts.get((caller, target), 0) + 1

    model.call_edges = [
        CallEdge(caller, callee, count)
        for (caller, callee), count in sorted(counts.items())
    ]


def classify_method(method: MethodDecl, class_simple_name: str) -> str:
    """Bucket a method as constructor, accessor, mutator or other."""
    if method.name == class_simple_name:
        return KIND_CONSTRUCTOR
    if (
        (method.name.startswith("get") or method.name.startswith("is"))
        and not method.has_params
        and method.return_type not in ("", "void")
        and not method.writes_fields
    ):
        return KIND_ACCESSOR
    if (
        method.name.startswith("set")
        and method.has_params
        and method.writes_fields
    ):
        return KIND_MUTATOR
    return KIND_OTHER


def compute_cohesion(cls: ClassDecl) -> float:
    """Share of non-constructor method pairs touching a common field.

    Classes with fewer than two non-constructor methods, or with no
    fields at all, count as fully cohesive (1.0).
    """
    methods = [m for m in cls.methods if classify_method(m, cls.simple_name) != KIND_CONSTRUCTOR]
    if len(methods) < 2 or not cls.fields:
        return 1.0
    accessed = [m.reads_fields | m.writes_fields for m in methods]
    sharing = 0
    total = 0
    for i in range(len(accessed)):
        for j in range(i + 1, len(accessed)):
            total += 1
            if accessed[i] & accessed[j]:
                sharing += 1
    return sharing / total


def compute_metrics(model: CodeModel) -> tuple[list[ClassMetrics], list[PackageMetrics]]:
    """Per-class and per-package structural metrics.

    Requires inheritance and calls to be resolved. A class's loc is the
    physical line count of its span; package loc sums member classes.
    A package's inheritance edge count covers edges whose child class
    lives in the package.
    """
    layers = compute_layers(model)
    fan_out = [0] * len(model.classes)
    fan_in = [0] * len(model.classes)
    for edge in model.call_edges:
        fan_out[edge.caller[0]] += edge.count
        fan_in[edge.callee[0]] += edge.count

    class_metrics = []
    for idx, cls in enumerate(model.classes):
        histogram = {kind: 0 for kind in METHOD_KINDS}
        for m in cls.methods:
            histogram[classify_method(m, cls.simple_name)] += 1
        class_metrics.append(
            ClassMetrics(
                method_count=len(cls.methods),
                loc=cls.span.line_end - cls.span.line_start + 1,
                depth=layers[idx],
                fan_in=fan_in[idx],
                fan_out=fan_out[idx],
                cohesion=compute_cohesion(cls),
                kind_histogram=histogram,
            )
        )

    edge_counts = [0] * len(model.packages)
    for child, _ in model.inheritance_edges:
        edge_counts[model.package_of[child]] += 1

    package_metrics = []
    for p, pkg in enumerate(model.packages):
        package_metrics.append(
            PackageMetrics(
                class_count=len(pkg.class_indices),
                method_count=sum(class_metrics[i].method_count for i in pkg.class_indices),
                loc=sum(class_metrics[i].loc for i in pkg.class_indices),
                inheritance_edge_count=edge_counts[p],
            )
        )
    return class_metrics, package_metrics


def numbered(name: str, used: dict[str, int]) -> str:
    """``name`` with its ``#k`` ordinal suffix, counting this use in
    ``used``: the first use keeps the bare name, later ones carry their
    1-based occurrence index (``draw``, ``draw#2``, ``draw#3``)."""
    n = used[name] = used.get(name, 0) + 1
    return name if n == 1 else f"{name}#{n}"


def method_labels(cls: ClassDecl) -> list[str]:
    """Method names, ``numbered`` so that overloads differ."""
    used: dict[str, int] = {}
    return [numbered(m.name, used) for m in cls.methods]


def corpus_totals(model: CodeModel, class_metrics: list[ClassMetrics]) -> dict:
    return {
        "packages": len(model.packages),
        "classes": len(model.classes),
        "methods": sum(cm.method_count for cm in class_metrics),
        "loc": sum(cm.loc for cm in class_metrics),
        "inheritance_edges": len(model.inheritance_edges),
        "call_edges": len(model.call_edges),
    }
