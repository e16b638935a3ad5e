import importlib
import pkgutil

import pytest

import permfact

MODULES = sorted(m.name for m in pkgutil.iter_modules(permfact.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"permfact.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
