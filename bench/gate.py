"""Correctness gate for the files a benchmark sample writes.

Every check compares an output against the corpus ``Plan`` fixed at
generation time; the only exception is the OBJ's material library,
which must define the materials its sibling OBJ uses. ``Gate``
also pins the bytes of each output: the first sample of a run is
checked in full and hashed; later samples must hash the same, which
both proves determinism and spares re-parsing identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from corpora import Plan


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, plan says {want}")


def check_report(path: Path, plan: Plan) -> list[str]:
    """Report totals, file count and unresolved supers against the plan."""
    problems: list[str] = []
    doc = json.loads(path.read_text(encoding="utf-8"))
    totals = doc["totals"]
    for key in ("packages", "classes", "methods", "inheritance_edges"):
        _expect(problems, f"report totals.{key}", totals[key], getattr(plan, key))
    _expect(problems, "report corpus.files", doc["corpus"]["files"], plan.files)
    _expect(problems, "report unresolved_supers",
            len(doc["unresolved_supers"]), plan.unresolved_supers)
    return problems


def check_gltf(path: Path, plan: Plan) -> list[str]:
    """The document parses and its node census matches the plan."""
    problems: list[str] = []
    doc = json.loads(path.read_text(encoding="utf-8"))
    nodes = doc["nodes"]
    for prefix, want in (("island:", plan.packages), ("tree:", plan.trees),
                         ("leaf:", plan.leaves), ("channel:", plan.channels)):
        got = sum(1 for n in nodes if n.get("name", "").startswith(prefix))
        _expect(problems, f"glTF {prefix} nodes", got, want)
    _expect(problems, "glTF mesh-bearing nodes",
            sum(1 for n in nodes if "mesh" in n), plan.mesh_nodes)
    return problems


def _count_line_starts(path: Path, prefix: bytes) -> int:
    data = path.read_bytes()
    return data.count(b"\n" + prefix) + data.startswith(prefix)


def check_obj(path: Path, plan: Plan) -> list[str]:
    """One ``o`` group per mesh-bearing glTF node."""
    problems: list[str] = []
    _expect(problems, "OBJ o groups", _count_line_starts(path, b"o "),
            plan.mesh_nodes)
    return problems


def _names(path: Path, keyword: str) -> list[str]:
    return [line.split(maxsplit=1)[1]
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.startswith(keyword + " ")]


def check_mtl(path: Path, plan: Plan) -> list[str]:
    """Each material is defined once, and so is every one the OBJ uses."""
    problems: list[str] = []
    defined = _names(path, "newmtl")
    if not defined or len(set(defined)) != len(defined):
        problems.append(f"MTL newmtl names not distinct and present: {defined[:5]}")
    used = set(_names(path.with_suffix(".obj"), "usemtl"))
    if not used or not used <= set(defined):
        problems.append(f"MTL lacks OBJ materials {sorted(used - set(defined))[:5]}")
    return problems


def check_mel(path: Path, plan: Plan) -> list[str]:
    """One ``rename`` per mesh-bearing node."""
    problems: list[str] = []
    _expect(problems, "MEL renames", _count_line_starts(path, b"rename "),
            plan.mesh_nodes)
    return problems


CHECKS = {
    "report": check_report,
    "gltf": check_gltf,
    "obj": check_obj,
    "mtl": check_mtl,
    "mel": check_mel,
}


class Gate:
    """Checks each output kind once per run, then pins its bytes."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.hashes: dict[str, str] = {}
        self.sizes: dict[str, int] = {}

    def check(self, kind: str, path: Path) -> list[str]:
        """Problems with ``path`` as output ``kind``; empty when it passes."""
        if not path.is_file():
            return [f"{kind}: {path.name} was not written"]
        digest = sha256(path)
        if kind in self.hashes:
            if digest != self.hashes[kind]:
                return [f"{kind}: bytes differ from the run's first sample"]
            return []
        try:
            problems = CHECKS[kind](path, self.plan)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError,
                OSError) as exc:
            problems = [f"{kind}: unreadable output ({type(exc).__name__}: {exc})"]
        if not problems:
            self.hashes[kind] = digest
            self.sizes[kind] = path.stat().st_size
        return problems
