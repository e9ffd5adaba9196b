"""codeforest: turn Java source trees into 3D forest scenes.

Each package becomes a terraced island, each class a tree sized by its
metrics, each method a leaf colored by kind, and each inheritance edge
a water channel flowing from parent to child. Scenes export to glTF
2.0, Wavefront OBJ, or a Maya MEL script; metrics export to JSON.

Typical use:

    from codeforest import analyze, build_scene, Config
    from codeforest.exporters import export_gltf

    info = analyze("path/to/java/sources")
    export_gltf(build_scene(info, Config(seed=7)), "forest.gltf")
"""

from .config import Config, load_config, parse_config
from .errors import CodeforestError
from .geometry import (
    Material,
    Mesh,
    Scene,
    SceneNode,
    assemble_scene,
    default_palette,
)
from .layout import ForestLayout, build_layout
from .model import (
    CodeModel,
    build_model,
    compute_metrics,
    resolve_calls,
    resolve_inheritance,
)
from .parser import parse_corpus
from .pipeline import CorpusInfo, analyze, build_scene

__version__ = "0.1.0"

__all__ = [
    "CodeforestError",
    "CodeModel",
    "Config",
    "CorpusInfo",
    "ForestLayout",
    "Material",
    "Mesh",
    "Scene",
    "SceneNode",
    "analyze",
    "assemble_scene",
    "build_layout",
    "build_model",
    "build_scene",
    "compute_metrics",
    "default_palette",
    "load_config",
    "parse_config",
    "parse_corpus",
    "resolve_calls",
    "resolve_inheritance",
    "__version__",
]
