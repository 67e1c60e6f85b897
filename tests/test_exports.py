"""The package's public names resolve to the modules that declare them."""

import importlib
import pkgutil
import types

import phasemono


def test_exports_resolve():
    for info in pkgutil.iter_modules(phasemono.__path__):
        mod = importlib.import_module(f"phasemono.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"phasemono.{info.name}.__all__ lists missing {name!r}"
    for name, obj in vars(phasemono).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"phasemono.{name} is not in {obj.__module__}.__all__"
