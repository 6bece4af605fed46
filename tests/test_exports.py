import importlib
import pkgutil

import granule


def test_every_exported_name_resolves():
    names = ["granule"] + [f"granule.{m.name}" for m in pkgutil.iter_modules(granule.__path__)]
    modules = {name: importlib.import_module(name) for name in names}
    missing = [
        f"{name}.{attr}"
        for name, module in modules.items()
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert len(modules) > 1 and not missing, missing
