"""
One scene, four files
=====================

Runs the full pipeline on a tiny corpus and writes every export the
package knows: a self-contained glTF 2.0 file, an OBJ with its MTL
palette, a Maya MEL script, and the JSON metrics report. Prints the
head of each file so the formats can be compared side by side.
"""

import json
import tempfile
from pathlib import Path

from codeforest.exporters import export_gltf, export_mel, export_obj, export_report
from codeforest.pipeline import analyze, build_scene

SOURCES = {
    "web/Page.java": """\
package web;

public class Page {
    private String title;

    public String getTitle() { return title; }

    public void setTitle(String t) { title = t; }
}
""",
    "web/Blog.java": """\
package web;

public class Blog extends Page {
    public void publish() {
        String t = getTitle();
    }
}
""",
}


def head(path: Path, lines: int) -> str:
    text = path.read_text(encoding="utf-8").splitlines()[:lines]
    return "\n".join("    " + line for line in text)


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp) / "src"
    for rel, text in SOURCES.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    info = analyze(root)
    scene = build_scene(info)
    out = Path(tmp) / "out"
    out.mkdir()

    # The scene graph itself: a root, one island per package, one tree
    # per class with trunk/canopy/leaf children, one channel per edge.
    print("scene nodes")
    for node in scene.nodes:
        print(f"  {node.name}")

    export_gltf(scene, out / "forest.gltf")
    export_obj(scene, out / "forest.obj")
    export_mel(scene, out / "forest.mel")
    export_report(info, out / "report.json")

    print("\nfiles")
    for path in sorted(out.iterdir()):
        print(f"  {path.name}: {path.stat().st_size} bytes")

    # glTF: one JSON document, geometry base64-embedded, ready for any
    # glTF viewer or Blender's importer. Every distinct mesh is stored
    # once: nodes with equal geometry, such as leaves of the same kind,
    # islands of equal size or channels of equal shape, share one glTF
    # mesh.
    doc = json.loads((out / "forest.gltf").read_text(encoding="utf-8"))
    print("\nforest.gltf")
    print(f"    generator={doc['asset']['generator']} "
          f"meshes={len(doc['meshes'])} "
          f"buffer_bytes={doc['buffers'][0]['byteLength']}")

    # OBJ: plain text, world-space vertices, one object per mesh node;
    # the MTL carries the eight-color palette.
    print("\nforest.obj")
    print(head(out / "forest.obj", 4))
    print("\nforest.mtl")
    print(head(out / "forest.mtl", 3))

    # MEL: Maya primitives standing in for each mesh, renamed and moved
    # into place. Source it in Maya's script editor.
    print("\nforest.mel")
    print(head(out / "forest.mel", 5))

    # The report mirrors the analysis rather than the scene.
    print("\nreport.json")
    print(head(out / "report.json", 8))
