"""Public names: everything a module exports must exist."""

import importlib
import pkgutil

import qmcforge


def test_every_exported_name_resolves():
    modules = [qmcforge] + [importlib.import_module(f"qmcforge.{info.name}")
                            for info in pkgutil.iter_modules(qmcforge.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 10
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"
