"""Independent reference implementations used to cross-check the package.

Everything here is written from the same rules the library implements,
but with different machinery (character scans and regexes instead of
the token stream, exhaustive search instead of dynamic programming,
byte-level decoding of export output instead of the builder's own data
structures). Agreement between the two sides is then evidence, not a
tautology.

These helpers assume the well-formed Java subset the fixtures and the
synthetic generator produce; they are not general Java tools.
"""

from __future__ import annotations

import base64
import math
import re
import struct
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

JAVA_KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null
    """.split()
)

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

_WORD = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")

# Characters that can directly precede a call in an expression. A word
# character before the name means a declaration, a `new`, or a blocked
# keyword like `return`, none of which count as call sites.
_CALL_PREV = set(";{}=(,.+-*/%<>!&|?:^~[")


def scrub(text: str) -> str:
    """Blank out comments and string/char literals, keeping newlines.

    The result has the same length and line structure as the input so
    offsets remain comparable.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(" " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _prev_nonspace(src: str, i: int) -> int:
    while i >= 0 and src[i] in " \t\r\n":
        i -= 1
    return i


def _word_ending_at(src: str, i: int) -> str | None:
    if i < 0 or not (src[i].isalnum() or src[i] in "_$"):
        return None
    j = i
    while j >= 0 and (src[j].isalnum() or src[j] in "_$"):
        j -= 1
    return src[j + 1 : i + 1]


def _annotation_chain(src: str, dot: int) -> bool:
    """Whether the `a.b.` ending at `src[dot]` follows an `@`."""
    while dot >= 0 and src[dot] == ".":
        end = _prev_nonspace(src, dot - 1)
        word = _word_ending_at(src, end)
        if word is None:
            return False
        dot = _prev_nonspace(src, end - len(word))
    return dot >= 0 and src[dot] == "@"


def file_call_sites(text: str) -> list[tuple[str, str, str | None]]:
    """All call sites in a file as (callee, receiver_kind, receiver).

    Works directly on scrubbed characters: a call is a non-keyword word
    followed by `(` whose preceding non-space character is expression
    punctuation. Declarations, `new Foo(...)` and keyword-blocked calls
    such as `return foo()` all have a word character there instead, and
    an annotation `@Foo(...)` has `@`; a qualified `@a.b.Foo(...)` is
    skipped by walking its dotted chain back to the `@`.
    """
    src = scrub(text)
    sites = []
    for m in _WORD.finditer(src):
        name = m.group(0)
        if name in JAVA_KEYWORDS:
            continue
        j = m.end()
        while j < len(src) and src[j] in " \t\r\n":
            j += 1
        if j >= len(src) or src[j] != "(":
            continue
        p = _prev_nonspace(src, m.start() - 1)
        if p < 0 or src[p] not in _CALL_PREV:
            continue
        if src[p] != ".":
            sites.append((name, "implicit-this", None))
            continue
        if _annotation_chain(src, p):
            continue
        owner = _word_ending_at(src, _prev_nonspace(src, p - 1))
        if owner is None:
            sites.append((name, "other", None))
        elif owner == "this":
            sites.append((name, "implicit-this", None))
        elif owner in JAVA_KEYWORDS:
            sites.append((name, "other", None))
        else:
            sites.append((name, "named", owner))
    return sites


def layers_exhaustive(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Layer per class by exhaustive path search over (child, parent) edges."""
    parents: dict[int, list[int]] = {}
    for child, parent in edges:
        parents.setdefault(child, []).append(parent)

    def longest(i: int, seen: frozenset) -> int:
        best = 0
        for p in parents.get(i, []):
            if p in seen:
                raise ValueError("cycle")
            best = max(best, 1 + longest(p, seen | {p}))
        return best

    return [longest(i, frozenset([i])) for i in range(n)]


def cohesion_pairs(access_sets: list[set], has_fields: bool) -> float:
    """Cohesion by literal pair enumeration over non-constructor methods."""
    if len(access_sets) < 2 or not has_fields:
        return 1.0
    sharing = total = 0
    for i in range(len(access_sets)):
        for j in range(i + 1, len(access_sets)):
            total += 1
            if access_sets[i] & access_sets[j]:
                sharing += 1
    return sharing / total


def min_pair_distance(points: list[tuple[float, float]]) -> float:
    """Smallest pairwise distance, by the O(n^2) scan."""
    best = math.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dx = points[i][0] - points[j][0]
            dz = points[i][1] - points[j][1]
            best = min(best, math.hypot(dx, dz))
    return best


def spiral_slot(placed, radius: float, params) -> tuple[float, float]:
    """Island centre by the linear scan: every spiral point from t = 1,
    each tested against every placed island."""
    if not placed:
        return (0.0, 0.0)
    t = 1
    while spiral_blocked(placed, t, radius, params):
        t += 1
    return spiral_point(t, params)


def spiral_point(t: int, params) -> tuple[float, float]:
    r = max(1.0, 0.5 * params.island_margin) * math.sqrt(t)
    return (r * math.cos(t * GOLDEN_ANGLE), r * math.sin(t * GOLDEN_ANGLE))


def spiral_blocked(placed, t: int, radius: float, params) -> bool:
    """Whether an island in ``placed`` blocks spiral point ``t`` for an
    island of ``radius``, by the exact clearance test."""
    x, z = spiral_point(t, params)
    for isl in placed:
        dx = x - isl.center[0]
        dz = z - isl.center[1]
        need = radius + isl.radius + params.island_margin
        if dx * dx + dz * dz < need * need:
            return True
    return False


def worst_channel_rise(layout) -> float:
    """Largest y increase along any channel polyline (<= 0 means downhill)."""
    worst = -math.inf
    for ch in layout.channels:
        ys = [p[1] for p in ch.polyline]
        for a, b in zip(ys, ys[1:]):
            worst = max(worst, b - a)
    return worst


def tree_island_gaps(layout, package_of: list[int]) -> list[float]:
    """Distance from each trunk to its island rim (positive = inside)."""
    island_by_pkg = {isl.package_index: isl for isl in layout.islands}
    gaps = []
    for tree in layout.trees:
        isl = island_by_pkg[package_of[tree.class_index]]
        d = math.hypot(
            tree.position[0] - isl.center[0], tree.position[1] - isl.center[1]
        )
        gaps.append(isl.radius - d)
    return gaps


def terrace_faults(model, layers: list[int], layout, params) -> list[str]:
    """Every way the layout's trees break the terraces, one line each.

    An island's bands must rise from 0 without overlapping and end at
    its radius. Then, for each trunk:

    * (a) its base is its own layer's height, on the island too;
    * (b) its centre lies in its own tier's flat band (the summit's:
      within its outer edge);
    * (c) no trunk on its island is closer than ``s_min``, up to a
      relative 1e-9 for rounding;
    * (d) it lies inside its island.
    """
    gmax = max(layers, default=0)
    faults = []
    for isl in layout.islands:
        edges = [e for band in isl.bands for e in band]
        if edges[0] != 0.0 or edges != sorted(edges) or edges[-1] != isl.radius:
            faults.append(f"island {isl.package_index}: bands {isl.bands}")
    island_by_pkg = {isl.package_index: isl for isl in layout.islands}
    gaps = tree_island_gaps(layout, model.package_of)
    by_pkg: dict[int, list] = {}
    for tree, gap in zip(layout.trees, gaps):
        k = layers[tree.class_index]
        isl = island_by_pkg[model.package_of[tree.class_index]]
        by_pkg.setdefault(isl.package_index, []).append(tree.position)
        name = model.classes[tree.class_index].name
        u = k - isl.layer_lo
        if not tree.trunk_base_y == isl.tier_heights[u] == (gmax - k) * params.tier_drop:
            faults.append(f"(a) {name}: base {tree.trunk_base_y} on layer {k}")
        inner, outer = isl.bands[u]
        d = math.hypot(tree.position[0] - isl.center[0], tree.position[1] - isl.center[1])
        if not (u == 0 or inner <= d) or not d <= outer:
            faults.append(f"(b) {name}: {d} from the centre, band {isl.bands[u]}")
        if not gap > 0:
            faults.append(f"(d) {name}: {gap} inside its island")
    for p, points in by_pkg.items():
        nearest = min_pair_distance(points)
        if nearest < params.s_min * (1.0 - 1e-9):
            faults.append(f"(c) island {p}: trunks {nearest} apart")
    return faults


# ---------------------------------------------------------------------------
# Mesh arrays, by numpy.

def mesh_arrays(verts, norms, tris):
    """Positions, unit normals and indices as numpy builds them.

    Positions and normals are float32 (n, 3), normalised in float64
    with a zero length taken as 1; indices are one flat uint32 run. A
    value past the float32 range becomes an infinity, as in any cast.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        positions = np.asarray(verts, dtype=np.float64)
        normals = np.asarray(norms, dtype=np.float64)
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        normals = normals / np.where(lengths == 0.0, 1.0, lengths)
        return (
            positions.astype(np.float32),
            normals.astype(np.float32),
            np.asarray(tris, dtype=np.uint32).reshape(-1),
        )


# ---------------------------------------------------------------------------
# glTF structural validation, straight off the JSON document.

_COMP_SIZE = {5126: 4, 5125: 4}
_TYPE_ARITY = {"VEC3": 3, "SCALAR": 1}


def check_gltf(doc: dict) -> list[str]:
    """Structural problems in a glTF document; an empty list means valid."""
    problems: list[str] = []

    def need(cond: bool, msg: str) -> bool:
        if not cond:
            problems.append(msg)
        return cond

    need(doc.get("asset", {}).get("version") == "2.0", "asset.version != 2.0")

    nodes = doc.get("nodes", [])
    need(len(doc.get("scenes", [])) == 1, "expected exactly one scene")
    roots = doc.get("scenes", [{}])[0].get("nodes", [])
    need(len(roots) == 1, "expected a single scene root")

    seen_parent: dict[int, int] = {}
    for i, node in enumerate(nodes):
        for c in node.get("children", []):
            if not need(0 <= c < len(nodes), f"node {i} child {c} out of range"):
                continue
            need(c not in seen_parent, f"node {c} has two parents")
            seen_parent[c] = i

    meshes = doc.get("meshes", [])
    accessors = doc.get("accessors", [])
    views = doc.get("bufferViews", [])
    buffers = doc.get("buffers", [])
    materials = doc.get("materials", [])

    for i, node in enumerate(nodes):
        if "mesh" in node:
            need(0 <= node["mesh"] < len(meshes), f"node {i} mesh out of range")

    if not meshes:
        for key in ("accessors", "bufferViews", "buffers", "materials"):
            need(key not in doc, f"empty scene should omit {key}")
        return problems

    if not need(len(buffers) == 1, "expected exactly one buffer"):
        return problems
    uri = buffers[0].get("uri", "")
    prefix = "data:application/octet-stream;base64,"
    if not need(uri.startswith(prefix), "buffer uri is not a base64 data uri"):
        return problems
    blob = base64.b64decode(uri[len(prefix):])
    need(len(blob) == buffers[0].get("byteLength"), "byteLength mismatch")

    for i, view in enumerate(views):
        end = view.get("byteOffset", 0) + view.get("byteLength", 0)
        need(end <= len(blob), f"bufferView {i} overruns the buffer")
        need(view.get("buffer") == 0, f"bufferView {i} buffer != 0")

    def accessor_bytes(acc_index: int) -> bytes:
        acc = accessors[acc_index]
        view = views[acc["bufferView"]]
        size = _COMP_SIZE[acc["componentType"]] * _TYPE_ARITY[acc["type"]]
        start = view.get("byteOffset", 0) + acc.get("byteOffset", 0)
        return blob[start : start + size * acc["count"]]

    for i, acc in enumerate(accessors):
        need(acc["componentType"] in _COMP_SIZE, f"accessor {i} component type")
        need(acc["type"] in _TYPE_ARITY, f"accessor {i} element type")
        need(0 <= acc["bufferView"] < len(views), f"accessor {i} view index")
        size = _COMP_SIZE[acc["componentType"]] * _TYPE_ARITY[acc["type"]]
        view = views[acc["bufferView"]]
        need(
            acc.get("byteOffset", 0) + size * acc["count"] <= view.get("byteLength", 0),
            f"accessor {i} overruns its view",
        )

    for mi, mesh in enumerate(meshes):
        for prim in mesh.get("primitives", []):
            attrs = prim.get("attributes", {})
            if not need(
                "POSITION" in attrs and "NORMAL" in attrs and "indices" in prim,
                f"mesh {mi} primitive missing POSITION/NORMAL/indices",
            ):
                continue
            pos = accessors[attrs["POSITION"]]
            norm = accessors[attrs["NORMAL"]]
            idx = accessors[prim["indices"]]
            need(pos["type"] == "VEC3" and pos["componentType"] == 5126,
                 f"mesh {mi} POSITION must be float VEC3")
            need(norm["type"] == "VEC3" and norm["componentType"] == 5126,
                 f"mesh {mi} NORMAL must be float VEC3")
            need(idx["type"] == "SCALAR" and idx["componentType"] == 5125,
                 f"mesh {mi} indices must be uint32 SCALAR")
            need(norm["count"] == pos["count"], f"mesh {mi} normal count")
            need(idx["count"] % 3 == 0, f"mesh {mi} index count not /3")
            if "material" in prim:
                need(0 <= prim["material"] < len(materials),
                     f"mesh {mi} material out of range")

            floats = struct.unpack(f"<{pos['count'] * 3}f", accessor_bytes(attrs["POSITION"]))
            lo = [min(floats[k::3]) for k in range(3)]
            hi = [max(floats[k::3]) for k in range(3)]
            need(list(pos.get("min")) == lo, f"mesh {mi} POSITION min not exact")
            need(list(pos.get("max")) == hi, f"mesh {mi} POSITION max not exact")

            indices = struct.unpack(f"<{idx['count']}I", accessor_bytes(prim["indices"]))
            if indices:
                need(max(indices) < pos["count"], f"mesh {mi} index out of range")

    return problems


def gltf_reachable_nodes(doc: dict) -> int:
    """Nodes reachable from the scene root, counted by a plain JSON walk."""
    nodes = doc.get("nodes", [])
    roots = doc.get("scenes", [{}])[0].get("nodes", [])
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        stack.extend(nodes[i].get("children", []))
    return len(seen)


# ---------------------------------------------------------------------------
# Wavefront OBJ reading.

def _obj_ref(word: str, defined: int, what: str, line: int) -> int:
    """The 0-based index that an OBJ reference ``word`` names, with
    ``defined`` items of its kind read so far: ``k`` counts from the
    start (1 is the first), ``-k`` back from the last one read."""
    k = int(word)
    index = k - 1 if k > 0 else defined + k
    if k == 0 or not 0 <= index < defined:
        raise ValueError(f"line {line}: {what} {word} with {defined} defined")
    return index


def read_obj(text: str):
    """Parse the OBJ subset the exporter writes.

    Returns (objects, verts, normals, faces) where objects is a list of
    (name, material, face_count) and faces hold (vertex, normal) index
    pairs, 1-based, with each negative reference resolved against the
    ``v`` or ``vn`` lines read before it.
    """
    objects: list[tuple[str, str | None, int]] = []
    verts: list[tuple[float, float, float]] = []
    normals: list[tuple[float, float, float]] = []
    faces: list[tuple[tuple[int, int], ...]] = []
    name: str | None = None
    material: str | None = None
    count = 0
    for number, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "o":
            if name is not None:
                objects.append((name, material, count))
            name, material, count = parts[1], None, 0
        elif parts[0] == "usemtl":
            material = parts[1]
        elif parts[0] == "v":
            verts.append(tuple(float(x) for x in parts[1:4]))
        elif parts[0] == "vn":
            normals.append(tuple(float(x) for x in parts[1:4]))
        elif parts[0] == "f":
            corners = []
            for ref in parts[1:]:
                v, _, n = ref.partition("//")
                corners.append((_obj_ref(v, len(verts), "v", number) + 1,
                                _obj_ref(n, len(normals), "vn", number) + 1))
            faces.append(tuple(corners))
            count += 1
    if name is not None:
        objects.append((name, material, count))
    return objects, verts, normals, faces


def obj_corners(text: str) -> list:
    """An OBJ text as its geometry, whatever its numbering.

    Every line but the ``vn`` lines, in order, with each ``f`` line
    replaced by a tuple of its corners as the (``v`` line, ``vn`` line)
    texts they reference. References may be positive or negative, and
    must name a line read before them; index 0 or any other reference
    out of range raises ``ValueError``. Two writers that number their
    vertices and normals differently agree here exactly when each face
    corner has the same position and normal text.
    """
    resolved: list = []
    verts: list[str] = []
    normals: list[str] = []
    for number, line in enumerate(text.split("\n"), 1):
        if line.startswith("v "):
            verts.append(line)
        elif line.startswith("vn "):
            normals.append(line)
            continue
        elif line.startswith("f "):
            corners = []
            for ref in line.split()[1:]:
                v, _, n = ref.partition("//")
                corners.append((verts[_obj_ref(v, len(verts), "v", number)],
                                normals[_obj_ref(n, len(normals), "vn", number)]))
            line = tuple(corners)
        resolved.append(line)
    return resolved


def one_line(name: str) -> str:
    """``name`` with each character that ``str.splitlines`` breaks at,
    alone between two others, as ``_``."""
    return "".join("_" if len(f"a{c}b".splitlines()) > 1 else c for c in name)


def obj_text_per_corner(scene, mtl_name: str | None = None) -> str:
    """The OBJ writer before normals and faces were shared: every node
    writes its mesh's full ``vn`` block after its ``v`` block, and every
    face corner names both by the same absolute number, formatted twice.
    Names are written through ``one_line``.
    A geometry oracle, not a byte oracle: the exporter numbers its
    normals and vertices differently, and must agree with it under
    ``obj_corners``."""
    from itertools import chain, cycle
    from operator import add

    from codeforest.geometry import flat, world_transforms

    transforms = world_transforms(scene)
    chunks = []
    if mtl_name is not None:
        chunks.append(f"mtllib {one_line(mtl_name)}\n")
    normal_blocks: dict[int, str] = {}  # by mesh index
    offset = 1
    for idx, node in enumerate(scene.nodes):
        if node.mesh is None:
            continue
        mesh = scene.meshes[node.mesh]
        n = mesh.vertex_count
        chunks.append(f"o {one_line(node.name)}\nusemtl {scene.materials[mesh.material].name}\n")
        world = map(add, flat(mesh.positions).tolist(), cycle(transforms[idx]))
        chunks.append("v %.6f %.6f %.6f\n" * n % tuple(world))
        normals = normal_blocks.get(node.mesh)
        if normals is None:
            normals = normal_blocks[node.mesh] = (
                "vn %.6f %.6f %.6f\n" * n % tuple(flat(mesh.normals).tolist())
            )
        chunks.append(normals)
        corners = [i + offset for i in mesh.indices.tolist()]
        chunks.append("f %d//%d %d//%d %d//%d\n" * mesh.triangle_count
                      % tuple(chain.from_iterable(zip(corners, corners))))
        offset += n
    return "".join(chunks) or "\n"


def obj_text_per_node(scene, mtl_name: str | None = None) -> str:
    """The OBJ writer before each shared mesh's vertex lines were
    planned: every node formats all of its world-space coordinates.
    Normals and faces are shared as the exporter shares them, so this
    is a byte oracle: ``obj_text`` must return exactly this text."""
    from itertools import cycle
    from operator import add

    from codeforest.geometry import flat, world_transforms

    transforms = world_transforms(scene)
    chunks = []
    if mtl_name is not None:
        chunks.append(f"mtllib {one_line(mtl_name)}\n")
    normal_numbers: dict[str, int] = {}  # vn line -> its 1-based number
    shared_faces: dict[int, str] = {}  # by mesh index
    for idx, node in enumerate(scene.nodes):
        if node.mesh is None:
            continue
        mesh = scene.meshes[node.mesh]
        n = mesh.vertex_count
        chunks.append(f"o {one_line(node.name)}\nusemtl {scene.materials[mesh.material].name}\n")
        world = map(add, flat(mesh.positions).tolist(), cycle(transforms[idx]))
        chunks.append("v %.6f %.6f %.6f\n" * n % tuple(world))
        faces = shared_faces.get(node.mesh)
        if faces is None:
            numbers = []
            normals = "vn %.6f %.6f %.6f\n" * n % tuple(flat(mesh.normals).tolist())
            for line in normals.splitlines(True):
                number = normal_numbers.get(line)
                if number is None:
                    number = normal_numbers[line] = len(normal_numbers) + 1
                    chunks.append(line)
                numbers.append(number)
            corners = list(map("%d//%d".__mod__, zip(range(-n, 0), numbers)))
            faces = "f %s %s %s\n" * mesh.triangle_count % tuple(
                map(corners.__getitem__, mesh.indices.tolist()))
            shared_faces[node.mesh] = faces
        chunks.append(faces)
    return "".join(chunks) or "\n"


# ---------------------------------------------------------------------------
# MEL scraping.

_MEL_RENAME = re.compile(r'rename \$n\[0\] "([^"]+)";')
_MEL_CREATE = re.compile(r"\$n = `(polyCone|polyCylinder|polySphere|polyCreateFacet)\b")


def mel_names(text: str) -> list[str]:
    return _MEL_RENAME.findall(text)


def mel_creations(text: str) -> list[str]:
    return _MEL_CREATE.findall(text)


def file_class_loc(text: str) -> list[int]:
    """Physical line count of each top-level type, by brace walking.

    Counts from the line holding the ``class``/``interface`` keyword to
    the line of its matching close brace, inclusive. Assumes the
    declaration starts on the keyword's line (no annotations or
    modifiers on lines of their own), which holds for every fixture.
    """
    clean = scrub(text)
    locs = []
    depth = 0
    line = 1
    start_line = None
    i, n = 0, len(clean)
    while i < n:
        ch = clean[i]
        if ch == "\n":
            line += 1
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0 and start_line is not None:
                locs.append(line - start_line + 1)
                start_line = None
        elif depth == 0 and start_line is None and (ch.isalpha() or ch in "_$"):
            j = i
            while j < n and (clean[j].isalnum() or clean[j] in "_$"):
                j += 1
            if clean[i:j] in ("class", "interface"):
                start_line = line
            i = j
            continue
        i += 1
    return locs


# The object-building tokenizer loop: one ``Token`` and ``Span`` per
# match of the scanner's named-group form, its kind from the name of
# the group that matched, lines and bytes counted as it goes.
_KIND_OF_GROUP = {
    "whitespace": "whitespace",
    "line_comment": "comment",
    "block_comment": "comment",
    "text_block": "string-literal",
    "string": "string-literal",
    "char": "char-literal",
    "number": "number-literal",
    "punctuation": "punctuation",
}
# Only these groups can hold a newline (an escaped one, in literals).
_MULTILINE_GROUPS = frozenset(
    ("whitespace", "block_comment", "text_block", "string", "char")
)


def tokenize_by_loop(source: bytes, file_id: str = "<memory>") -> list:
    """``lexer.tokenize`` as a list of ``Token``, built one match at a time."""
    from codeforest import lexer
    from codeforest.errors import NonUtf8Input, UnterminatedComment, UnterminatedLiteral
    from codeforest.lexer import Span, Token

    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NonUtf8Input(exc.start, file_id) from None
    ascii_only = text.isascii()
    regex = re.compile(lexer._pattern(ascii_only), lexer._FLAGS)
    tokens = []
    line = 1
    byte = 0
    for m in regex.finditer(text):
        group = m.lastgroup
        chunk = m.group()
        end = byte + len(chunk.encode("utf-8"))
        if group == "word":
            kind = "keyword" if chunk in JAVA_KEYWORDS else "identifier"
        elif group == "open_comment":
            raise UnterminatedComment(Span(file_id, line, line, byte, byte))
        elif group == "open_literal":
            raise UnterminatedLiteral(Span(file_id, line, line, byte, byte))
        else:
            kind = _KIND_OF_GROUP[group]
        first = line
        if group in _MULTILINE_GROUPS and "\n" in chunk:
            line += chunk.count("\n")
        # A trailing newline sits on the line it terminates.
        last = line - (line > first and chunk[-1] == "\n")
        tokens.append(Token(kind, chunk, Span(file_id, first, last, byte, end)))
        byte = end
    return tokens


# ---------------------------------------------------------------------------
# The glTF and the report as documents, and a generic indented JSON writer.
# ``json.dumps(gltf_doc(s), indent=2)`` and
# ``json_text(report_doc(info), float_text="%.4f".__mod__)`` are the texts
# the template writers must produce.

_GLTF_ARRAY_BUFFER = 34962
_GLTF_ELEMENT_ARRAY_BUFFER = 34963
_GLTF_FLOAT = 5126
_GLTF_UNSIGNED_INT = 5125
_GLTF_MAX_COUNT = 0xFFFFFFFF


def gltf_doc(scene) -> dict:
    """The glTF document as a plain dict (JSON-ready)."""
    from codeforest.errors import SceneTooLarge
    from codeforest.geometry import bounds

    buffer = bytearray()
    buffer_views: list[dict] = []
    accessors: list[dict] = []
    meshes_json: list[dict] = []

    def add_view(data: bytes, target: int) -> int:
        buffer_views.append(
            {
                "buffer": 0,
                "byteOffset": len(buffer),
                "byteLength": len(data),
                "target": target,
            }
        )
        buffer.extend(data)
        return len(buffer_views) - 1

    for mesh in scene.meshes:
        vertex_count = mesh.vertex_count
        index_count = len(mesh.indices)
        if vertex_count > _GLTF_MAX_COUNT or index_count > _GLTF_MAX_COUNT:
            raise SceneTooLarge(max(vertex_count, index_count))
        lo, hi = bounds(mesh)
        accessors.append(
            {
                "bufferView": add_view(mesh.positions.tobytes(), _GLTF_ARRAY_BUFFER),
                "componentType": _GLTF_FLOAT,
                "count": vertex_count,
                "type": "VEC3",
                "min": lo,
                "max": hi,
            }
        )
        position_accessor = len(accessors) - 1
        accessors.append(
            {
                "bufferView": add_view(mesh.normals.tobytes(), _GLTF_ARRAY_BUFFER),
                "componentType": _GLTF_FLOAT,
                "count": vertex_count,
                "type": "VEC3",
            }
        )
        accessors.append(
            {
                "bufferView": add_view(mesh.indices.tobytes(), _GLTF_ELEMENT_ARRAY_BUFFER),
                "componentType": _GLTF_UNSIGNED_INT,
                "count": index_count,
                "type": "SCALAR",
            }
        )
        meshes_json.append(
            {
                "primitives": [
                    {
                        "attributes": {
                            "POSITION": position_accessor,
                            "NORMAL": position_accessor + 1,
                        },
                        "indices": position_accessor + 2,
                        "material": mesh.material,
                    }
                ]
            }
        )

    nodes_json = []
    for node in scene.nodes:
        entry: dict = {"name": node.name}
        if node.mesh is not None:
            entry["mesh"] = node.mesh
        if node.translation != (0.0, 0.0, 0.0):
            entry["translation"] = [float(v) for v in node.translation]
        if node.children:
            entry["children"] = list(node.children)
        nodes_json.append(entry)

    doc: dict = {
        "asset": {"generator": "codeforest", "version": "2.0"},
        "scene": 0,
        "scenes": [{"nodes": [0]}],
        "nodes": nodes_json,
    }
    if meshes_json:
        doc["meshes"] = meshes_json
        doc["materials"] = [_gltf_material(m) for m in scene.materials]
        doc["accessors"] = accessors
        doc["bufferViews"] = buffer_views
        doc["buffers"] = [
            {
                "byteLength": len(buffer),
                "uri": "data:application/octet-stream;base64,"
                + base64.b64encode(bytes(buffer)).decode("ascii"),
            }
        ]
    return doc


def _gltf_material(material) -> dict:
    entry = {
        "name": material.name,
        "pbrMetallicRoughness": {
            "baseColorFactor": [float(c) for c in material.base_color],
            "metallicFactor": 0.0,
            "roughnessFactor": 1.0,
        },
    }
    if material.base_color[3] < 1.0:
        entry["alphaMode"] = "BLEND"
    return entry


def report_doc(info) -> dict:
    """The metrics report as a plain dict (JSON-ready)."""
    from codeforest.model import METHOD_KINDS, method_labels

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
    for p, pm in enumerate(info.package_metrics):
        packages.append(
            {
                "name": model.packages[p].name,
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


def json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def json_text(value, float_text: Callable[[float], str] = json_float) -> str:
    """``value`` as JSON text, two spaces per level, no trailing newline."""

    def encode(value, newline: str) -> str:
        kind = type(value)
        if kind is str:
            return _quote(value)
        if kind is float:
            return float_text(value)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        inner = newline + "  "
        if kind is dict:
            if not value:
                return "{}"
            rows = [_quote(key) + ": " + encode(item, inner) for key, item in value.items()]
            return "{" + inner + ("," + inner).join(rows) + newline + "}"
        if kind is list:
            if not value:
                return "[]"
            if all(type(item) is float for item in value):
                rows = map(float_text, value)
            elif all(type(item) is int for item in value):
                rows = map(int.__repr__, value)
            else:
                rows = [encode(item, inner) for item in value]
            return "[" + inner + ("," + inner).join(rows) + newline + "]"
        raise TypeError(f"{kind.__name__} is not JSON serializable here")

    return encode(value, "\n")
