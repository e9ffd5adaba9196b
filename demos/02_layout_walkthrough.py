"""
Placing islands, trees and water channels
=========================================

Lays out a two-package corpus and prints every placement decision:
island centers and radii, per-tree positions on their inheritance
tier, and the waterfall polylines that follow extends edges downhill.
Ends by reseeding the layout to show what the seed does and does not
change.
"""

import tempfile
from pathlib import Path

from codeforest.config import Config
from codeforest.layout import build_layout
from codeforest.pipeline import analyze

CLASS_TEMPLATE = """\
package {pkg};

public class {name}{parent} {{
    private int load;

    public int getLoad() {{ return load; }}
}}
"""

# core holds a three-level hierarchy plus an unrelated helper; tools
# holds a single class that extends across the package boundary; yard
# is four unrelated classes with room to spare.
PLAN = [
    ("core", "Device", ""),
    ("core", "Sensor", " extends Device"),
    ("core", "Thermometer", " extends Sensor"),
    ("core", "Registry", ""),
    ("tools", "Probe", " extends Sensor"),
    ("yard", "Bench", ""),
    ("yard", "Crate", ""),
    ("yard", "Fence", ""),
    ("yard", "Shed", ""),
]


def build(root: Path) -> None:
    for pkg, name, parent in PLAN:
        path = root / pkg / f"{name}.java"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            CLASS_TEMPLATE.format(pkg=pkg, name=name, parent=parent),
            encoding="utf-8",
        )


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    build(root)
    info = analyze(root)
    layout = build_layout(info.model, Config())

    model = info.model

    # Islands sit on a golden-angle spiral, first one at the origin.
    # Each is as wide as its terraces need: every tier gets rows of
    # trees s_min apart and a flat band around them. Small islands
    # widen to the floor 1.5 * sqrt(class count), at least 2 * s_min.
    print("islands")
    for island in layout.islands:
        pkg = model.packages[island.package_index].name
        print(f"  {pkg}: center=({island.center[0]:.2f}, {island.center[1]:.2f}) "
              f"radius={island.radius:.2f}")

    # Trees stand on concentric tiers: the deeper a class sits in the
    # inheritance hierarchy, the lower its ground. Heights are global,
    # so Thermometer (depth 2) is the valley floor everywhere. The
    # summit's first tree stands at its centre; the rest are dealt in
    # name order, evenly around their tier's rows.
    print("\ntrees")
    for tree in layout.trees:
        q = model.qualified_name(tree.class_index)
        print(f"  {q}: x={tree.position[0]:7.3f} z={tree.position[1]:7.3f} "
              f"ground_y={tree.trunk_base_y:.2f}")

    # Channels trace parent -> child. On one island they drop a tier
    # halfway; across islands they run straight between trunks.
    print("\nchannels")
    for ch in layout.channels:
        parent, child = ch.edge
        names = f"{model.classes[parent].name} -> {model.classes[child].name}"
        pts = " ".join(f"({p[0]:.2f},{p[1]:.2f},{p[2]:.2f})" for p in ch.polyline)
        print(f"  {names}: {pts}")

    # Reseeding turns each tier's rows to a new start angle but never
    # touches tier heights, island placement, or which channels exist.
    # A tree alone at a summit's centre stays put.
    reseeded = build_layout(info.model, Config(seed=9))
    print("\nseed 0 vs seed 9")
    for before, after in zip(layout.trees, reseeded.trees):
        q = model.qualified_name(before.class_index)
        moved = "moved" if before.position != after.position else "same spot"
        print(f"  {q}: {moved}, ground_y {before.trunk_base_y:.2f} "
              f"== {after.trunk_base_y:.2f}")
