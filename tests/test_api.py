"""The public names resolve on first use, to the objects their home
modules define, and the pipeline's layer functions stay replaceable."""

import sys

import pytest

import codeforest
import codeforest.exporters
from codeforest import pipeline

from conftest import FIXTURES

PACKAGES = [codeforest, codeforest.exporters]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_public_name_resolves_to_its_home(package):
    for name in package.__all__:
        if name == "__version__":
            continue
        vars(package).pop(name, None)  # resolve through __getattr__ again
        value = getattr(package, name)
        assert value.__name__ == name
        home = sys.modules[value.__module__]
        assert home.__name__.startswith(package.__name__ + ".")
        assert getattr(home, name) is value


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_star_import_binds_every_public_name(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= namespace.keys()
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)


@pytest.mark.parametrize("module", [*PACKAGES, pipeline], ids=lambda m: m.__name__)
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


@pytest.mark.parametrize("name", ["build_layout", "assemble_scene"])
def test_a_layer_replaced_before_the_first_scene_is_called(monkeypatch, name):
    # As a tracer does: replace the attribute before any build_scene has
    # bound the scene layers, then check build_scene calls the stand-in.
    monkeypatch.delitem(vars(pipeline), name, raising=False)
    original = getattr(pipeline, name)
    calls = []

    def stand_in(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, name, stand_in)
    pipeline.build_scene(pipeline.analyze(FIXTURES / "two_classes"))
    assert len(calls) == 1
