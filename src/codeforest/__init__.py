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

Each public name is imported from its home module on first use (see
``lazy``), so importing the package (or ``codeforest.cli``) loads no
pipeline layer. ``Record`` and ``lazy`` live here because Python runs
this module before any submodule, so sharing them adds no import.
"""

from importlib import import_module

__version__ = "0.1.0"


def lazy(namespace: dict, homes: dict[str, str], package: str):
    """A module ``__getattr__`` (PEP 562) that imports each name in
    ``homes`` from its module ``homes[name]``, relative to ``package``, on
    first use and binds it in ``namespace``, the module's globals."""

    def __getattr__(name: str):
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(f".{home}", package), name)
        return value

    return __getattr__


class Record:
    """Base of the slotted records that compare: equal when of the same
    class with every slot equal. Defining ``__eq__`` alone leaves them
    unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, key) == getattr(other, key) for key in self.__slots__)


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

__all__ = [*_HOME, "__version__"]

__getattr__ = lazy(globals(), _HOME, __name__)
