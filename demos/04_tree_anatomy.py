"""
How metrics shape a tree
========================

Feeds hand-built metric records straight into the tree sizing rules to
show each mapping in isolation: lines of code drive trunk height
logarithmically, outgoing coupling thickens the trunk, and the method
count sets the canopy. Leaves are then colored by method kind, which
this demo shows on a real class.
"""

import tempfile
from pathlib import Path

from codeforest.config import Config
from codeforest.geometry import tree_dimensions
from codeforest.model import ClassMetrics
from codeforest.pipeline import analyze, build_scene

PARAMS = Config()


def metrics(loc=50, methods=6, fan_out=0) -> ClassMetrics:
    return ClassMetrics(
        method_count=methods,
        loc=loc,
        depth=0,
        fan_in=0,
        fan_out=fan_out,
        cohesion=1.0,
        kind_histogram={},
    )


# Doubling the line count adds a near-constant slice of height: the
# log keeps thousand-line monsters on a human scale.
print("lines of code -> trunk height")
for loc in (10, 100, 1000, 10000):
    dims = tree_dimensions(metrics(loc=loc), max_fan_out=0, params=PARAMS)
    bar = "#" * round(dims.trunk_height * 8)
    print(f"  {loc:>6} loc  height {dims.trunk_height:5.2f}  {bar}")

# Trunk girth is relative: the class with the most outgoing calls in
# the corpus gets twice the base radius, everyone else interpolates.
print("\nfan-out -> trunk radius (corpus max is 8)")
for fan in (0, 2, 4, 8):
    dims = tree_dimensions(metrics(fan_out=fan), max_fan_out=8, params=PARAMS)
    print(f"  fan_out {fan}  radius {dims.trunk_radius:.4f}")

# Canopy area tracks the method count, with a floor so even a
# method-less class keeps a visible crown.
print("\nmethod count -> canopy radius")
for count in (0, 1, 4, 16, 64):
    dims = tree_dimensions(metrics(methods=count), max_fan_out=0, params=PARAMS)
    print(f"  {count:>2} methods  canopy {dims.canopy_radius:.2f}")

# On a real class the leaves pick up one material per method kind:
# constructors gold, accessors green, mutators red, the rest violet.
SOURCE = """\
package lab;

public class Sample {
    private int value;

    public Sample() { value = 1; }

    public int getValue() { return value; }

    public void setValue(int v) { value = v; }

    public void recompute() { value = value * 2; }
}
"""

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    (root / "Sample.java").parent.mkdir(parents=True, exist_ok=True)
    (root / "Sample.java").write_text(SOURCE, encoding="utf-8")
    scene = build_scene(analyze(root))

print("\nleaf materials on lab.Sample")
for node in scene.nodes:
    if node.name.startswith("leaf:"):
        material = scene.materials[scene.meshes[node.mesh].material]
        print(f"  {node.name.removeprefix('leaf:lab.Sample.')}: {material.name}")
