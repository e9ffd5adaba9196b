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

Each public name is imported from its home module on first use, so
importing the package (or ``codeforest.cli``) loads no pipeline layer.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_HOME = {
    "CodeforestError": "errors",
    "CodeModel": "model",
    "Config": "config",
    "CorpusInfo": "pipeline",
    "ForestLayout": "layout",
    "Material": "geometry",
    "Mesh": "geometry",
    "Scene": "geometry",
    "SceneNode": "geometry",
    "analyze": "pipeline",
    "assemble_scene": "geometry",
    "build_layout": "layout",
    "build_model": "model",
    "build_scene": "pipeline",
    "compute_metrics": "model",
    "default_palette": "geometry",
    "load_config": "config",
    "parse_config": "config",
    "parse_corpus": "parser",
    "resolve_calls": "model",
    "resolve_inheritance": "model",
}

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


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value
