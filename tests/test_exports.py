import importlib
import pkgutil

import pytest

import lowdisc

# `python -m lowdisc` runs the CLI on import, so it is not imported here.
MODULES = ["lowdisc"] + [
    f"lowdisc.{info.name}" for info in pkgutil.iter_modules(lowdisc.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})
