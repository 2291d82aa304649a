"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import liemeasure

MODULES = sorted(m.name for m in pkgutil.iter_modules(liemeasure.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("module", ["liemeasure"] + [f"liemeasure.{name}" for name in MODULES])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
