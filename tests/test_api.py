import importlib
import pkgutil

import pytest

import laxkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(laxkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale name in __all__ breaks ``from laxkit.<module> import *``
    mod = importlib.import_module(f"laxkit.{name}")
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    assert len(set(exported)) == len(exported)
