"""Export lists: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import tauberlab


def test_every_exported_name_resolves():
    modules = [tauberlab] + [
        importlib.import_module(f"tauberlab.{info.name}")
        for info in pkgutil.iter_modules(tauberlab.__path__)
    ]
    assert len(modules) > 5
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
