"""Every name a module exports resolves, so no deleted function lingers
in an ``__all__``."""

import importlib

import pytest

MODULES = [
    "pgblrc",
    "pgblrc.algebra",
    "pgblrc.bounds",
    "pgblrc.code",
    "pgblrc.errors",
    "pgblrc.geometry",
    "pgblrc.repair",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
