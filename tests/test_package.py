"""Package surface: every exported name exists."""
import importlib
import pkgutil

import beamsweep


def test_every_all_entry_resolves():
    modules = [
        importlib.import_module(f"beamsweep.{info.name}")
        for info in pkgutil.iter_modules(beamsweep.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert exporting
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)
