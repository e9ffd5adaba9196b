"""Scene and report writers: glTF 2.0, Wavefront OBJ, Maya MEL, JSON.

Each writer is imported from its own module on first use (see
``codeforest.lazy``), so a command loads only the format it writes.
"""

from .. import lazy

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

__all__ = list(_HOME)

__getattr__ = lazy(globals(), _HOME, __name__)
