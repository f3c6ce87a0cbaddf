import importlib
import pkgutil
from pathlib import Path

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


def test_declared_bench_spans_resolve(monkeypatch):
    # the traced benchmark run fails when a declared span never fires, so a
    # renamed or deleted function must not hide behind that run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    names = {n for declared in spans.DECLARED.values() for n in declared
             if not n.startswith("cli.mode.") and not n.endswith(".")}
    assert names
    missing = []
    for name in sorted(names):
        obj = importlib.import_module(f"laxkit.{name.split('.')[0]}")
        for attr in name.split(".")[1:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []
