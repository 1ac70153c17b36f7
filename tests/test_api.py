"""The public names of the package: each layer's ``__all__`` and what
``causalrating`` re-exports."""

import importlib
import inspect

import pytest

import causalrating

LAYERS = ("graph", "scm", "info", "identify", "road_risk")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_resolve_and_are_reexported(layer):
    module = importlib.import_module(f"causalrating.{layer}")
    for name in module.__all__:
        assert hasattr(module, name), f"{layer}.{name} is in __all__ but not defined"
        assert getattr(causalrating, name, None) is getattr(module, name), f"causalrating.{name}"


def test_other_public_names_are_errors_or_submodules():
    exported = {name for layer in LAYERS for name in importlib.import_module(f"causalrating.{layer}").__all__}
    for name in dir(causalrating):
        if name.startswith("_") or name in exported:
            continue
        value = getattr(causalrating, name)
        if inspect.ismodule(value):
            assert value.__name__ == f"causalrating.{name}", name
        else:
            assert isinstance(value, type) and issubclass(value, Exception), name
            assert value.__module__ == "causalrating.errors", name
