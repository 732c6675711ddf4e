import importlib
import pkgutil

import lyapunov_lab


def test_every_exported_name_resolves():
    modules = [lyapunov_lab] + [
        importlib.import_module(f"lyapunov_lab.{m.name}")
        for m in pkgutil.iter_modules(lyapunov_lab.__path__)
        if m.name != "__main__"  # importing it runs the CLI
    ]
    assert len(modules) > 1  # the package path was walked
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name!r}, which it lacks"
    namespace: dict = {}
    exec("from lyapunov_lab import *", namespace)
    assert set(lyapunov_lab.__all__) <= namespace.keys()
