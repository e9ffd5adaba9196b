"""Seeded Java corpora for the benchmark, with expectations fixed by plan.

Each generator writes a source tree and returns a ``Plan``: the totals
and scene census the corpus must produce, counted from what the
generator decided to write, never from codeforest. The workload seed
picks names, inheritance targets and the render seed; corpus size and
per-class method counts do not depend on it, so timings from different
seeds stay comparable.

Shapes:

* ``jfree_replica``: the committed jfreechart annotations fixture,
  copied into ``replicas`` packages with the ``package`` line rewritten.
* ``archipelago``: many packages of 4 to 6 tiny classes, a few
  cross-package ``extends``.
* ``deep_grove``: one package of ``extends`` chains 8 to 16 deep, with
  bare calls to inherited methods, calls that never resolve, named-field
  calls and a few supers outside the corpus.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

FIXTURE = Path("tests") / "fixtures" / "jfreechart_annotations"
FIXTURE_PACKAGE_LINE = "package org.jfree.chart.annotations;"

# Hand count of the fixture, as pinned by acceptance criterion 2:
# 15 classes, 122 methods, 12 resolved supers. The one unresolved super
# is TextAnnotation's ``implements Serializable``.
FIXTURE_CLASSES = 15
FIXTURE_METHODS = 122
FIXTURE_EDGES = 12
FIXTURE_UNRESOLVED = 1

# Sizes are chosen so one round of the four CLI commands takes a few
# seconds on a 2-core machine; see bench/README.md.
SIZES = {
    "jfree_replica": {"replicas": 4},
    "archipelago": {"packages": 100},
    "deep_grove": {"classes": 900},
}

WORKLOADS = tuple(SIZES)

# Render config per workload. The two synthetic shapes exist to stress
# the model and layout, so they render low-poly trees (the smallest
# tessellation islands accept) and scene assembly and export do not
# swamp the layers they aim at. jfree_replica keeps the defaults.
RENDER_CONFIG = {
    "jfree_replica": None,
    "archipelago": "segments = 8\n",
    "deep_grove": "segments = 8\n",
}


@dataclass
class Plan:
    """What a generated corpus must yield, counted at generation time."""

    workload: str
    render_seed: int
    packages: int
    classes: int
    methods: int
    inheritance_edges: int
    unresolved_supers: int
    files: int
    source_bytes: int

    @property
    def trees(self) -> int:
        return self.classes

    @property
    def leaves(self) -> int:
        return self.methods

    @property
    def channels(self) -> int:
        return self.inheritance_edges

    @property
    def mesh_nodes(self) -> int:
        """Island per package, trunk and canopy per class, leaves, channels."""
        return self.packages + 2 * self.classes + self.methods + self.channels


def generate(workload: str, seed: int, root: Path, repo: Path = Path("."),
             **size) -> Plan:
    """Write the ``workload`` corpus for ``seed`` under ``root``."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    params = {**SIZES[workload], **size}
    rng = random.Random(f"{workload}/{seed}")
    render_seed = rng.randrange(2**31)
    root.mkdir(parents=True, exist_ok=True)
    if workload == "jfree_replica":
        counts = _jfree_replica(rng, root, repo / FIXTURE, **params)
    elif workload == "archipelago":
        counts = _write(root, _archipelago(rng, **params))
    else:
        counts = _write(root, _deep_grove(rng, **params))
    return Plan(workload, render_seed, **counts)


def _tag(rng: random.Random, taken: set[str], length: int = 6) -> str:
    while True:
        tag = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if tag not in taken:
            taken.add(tag)
            return tag


def _jfree_replica(rng, root: Path, fixture: Path, replicas: int) -> dict:
    sources = sorted(fixture.glob("*.java"))
    if len(sources) != FIXTURE_CLASSES:
        raise FileNotFoundError(f"expected {FIXTURE_CLASSES} sources in {fixture}")
    texts = [(p.name, p.read_text(encoding="utf-8")) for p in sources]
    taken: set[str] = set()
    nbytes = 0
    for k in range(replicas):
        pkg = f"r{k:02d}{_tag(rng, taken)}"
        (root / pkg).mkdir()
        for name, text in texts:
            if text.count(FIXTURE_PACKAGE_LINE) != 1:
                raise ValueError(f"{name}: package line not found exactly once")
            data = text.replace(
                FIXTURE_PACKAGE_LINE, f"package org.jfree.replica.{pkg};"
            ).encode("utf-8")
            (root / pkg / name).write_bytes(data)
            nbytes += len(data)
    return {
        "packages": replicas,
        "classes": FIXTURE_CLASSES * replicas,
        "methods": FIXTURE_METHODS * replicas,
        "inheritance_edges": FIXTURE_EDGES * replicas,
        "unresolved_supers": FIXTURE_UNRESOLVED * replicas,
        "files": FIXTURE_CLASSES * replicas,
        "source_bytes": nbytes,
    }


@dataclass
class _Class:
    package: str
    name: str
    file: str  # file stem; classes sharing one are written to one file
    written_super: str | None = None
    resolves: bool = False
    fields: tuple[tuple[str, str], ...] = ()  # (declared type, name)
    methods: tuple[str, ...] = ()
    bodies: tuple[tuple[str, ...], ...] = ()


def _archipelago(rng, packages: int) -> list[_Class]:
    """``packages`` islands of 4, 5 or 6 classes in equal thirds.

    Class names carry their package's tag, so they are corpus-unique and
    a cross-package ``extends`` resolves by simple name.
    """
    sizes = [4 + k % 3 for k in range(packages)]
    rng.shuffle(sizes)
    cross = set(rng.sample(range(1, packages), max(1, packages // 25)))
    taken: set[str] = set()
    classes: list[_Class] = []
    roots: list[str] = []
    for p, size in enumerate(sizes):
        tag = _tag(rng, taken)
        pkg = f"isle.{tag}"
        names = [f"K{tag.capitalize()}{j}" for j in range(size)]
        for j, name in enumerate(names):
            cls = _Class(pkg, name, name)
            if j == 0 and p in cross:
                cls.written_super, cls.resolves = rng.choice(roots), True
            elif j > 0 and rng.random() < 0.5:
                cls.written_super, cls.resolves = names[rng.randrange(j)], True
            count = f"n{name}"
            cls.fields = ((("int", count),) if j == 0
                          else (("int", count), (names[0], "head")))
            run = (f"{count} = {count} + 1;",)
            if j % 2:
                cls.methods, cls.bodies = (f"run{name}",), (run,)
            else:
                call = f"head.run{names[0]}();" if j else f"run{name}();"
                cls.methods = (f"run{name}", f"use{name}")
                cls.bodies = (run, (call,))
            classes.append(cls)
        roots.append(names[0])
    return classes


def _deep_grove(rng, classes: int) -> list[_Class]:
    """One package of ``extends`` chains 8 to 16 deep, one file per chain.

    Every fifth chain root extends a class outside the corpus. Each
    class's first method makes a bare call to a method of a random
    ancestor, which resolves (a chain root calls a name defined nowhere).
    Every third class has a second method whose bare call never
    resolves, and every third class calls a method of an earlier class
    through a field.
    """
    taken: set[str] = set()
    out: list[_Class] = []
    chain = 0
    while len(out) < classes:
        depth = min(rng.randint(8, 16), classes - len(out))
        ancestors: list[_Class] = []
        for level in range(depth):
            name = f"G{_tag(rng, taken).capitalize()}"
            cls = _Class("grove", name, ancestors[0].name if ancestors else name)
            if level:
                cls.written_super, cls.resolves = ancestors[-1].name, True
            elif chain % 5 == 4:
                cls.written_super = f"External{name}"
            k = len(out)
            if k % 3 == 2:
                peer = out[rng.randrange(k)]
                cls.fields = ((peer.name, "peer"),)
            first = [f"{rng.choice(rng.choice(ancestors).methods)}();"
                     if ancestors else f"lost{name}();"]
            if cls.fields:
                first.append(f"peer.{peer.methods[0]}();")
            if k % 3:
                cls.methods, bodies = (f"op{name}",), [first]
            else:
                cls.methods = (f"op{name}", f"alt{name}")
                bodies = [first, [f"lost{name}();"]]
            cls.bodies = tuple(bodies)
            out.append(cls)
            ancestors.append(cls)
        chain += 1
    return out


def _render(cls: _Class) -> list[str]:
    """Compact Java without modifiers: one line per member."""
    head = f"class {cls.name}"
    if cls.written_super is not None:
        head += f" extends {cls.written_super}"
    lines = [head + " {"]
    lines.extend(f"    {ftype} {fname};" for ftype, fname in cls.fields)
    lines.extend(
        f"    void {name}() {{ {' '.join(body)} }}"
        for name, body in zip(cls.methods, cls.bodies)
    )
    lines.append("}")
    return lines


def _write(root: Path, classes: list[_Class]) -> dict:
    files: dict[tuple[str, str], list[str]] = {}
    for cls in classes:
        key = (cls.package, cls.file)
        if key not in files:
            files[key] = [f"package {cls.package};"]
        files[key].extend(_render(cls))
    nbytes = 0
    for (package, stem), lines in files.items():
        directory = root / package.replace(".", "/")
        directory.mkdir(parents=True, exist_ok=True)
        data = ("\n".join(lines) + "\n").encode("utf-8")
        (directory / f"{stem}.java").write_bytes(data)
        nbytes += len(data)
    edges = sum(c.resolves for c in classes)
    return {
        "packages": len({c.package for c in classes}),
        "classes": len(classes),
        "methods": sum(len(c.methods) for c in classes),
        "inheritance_edges": edges,
        "unresolved_supers": sum(
            c.written_super is not None and not c.resolves for c in classes
        ),
        "files": len(files),
        "source_bytes": nbytes,
    }
