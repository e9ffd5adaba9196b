"""Scene and report writers: glTF 2.0, Wavefront OBJ, Maya MEL, JSON.

Each writer is imported from its own module on first use, so a command
loads only the format it writes.
"""

from importlib import import_module

# Each public name -> the module that defines it.
_HOME = {
    "build_gltf": "gltf",
    "export_gltf": "gltf",
    "export_mel": "mel",
    "mel_text": "mel",
    "export_obj": "obj",
    "obj_text": "obj",
    "export_report": "report",
    "report_text": "report",
}

__all__ = [
    "build_gltf",
    "export_gltf",
    "export_mel",
    "mel_text",
    "export_obj",
    "obj_text",
    "export_report",
    "report_text",
]


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value
