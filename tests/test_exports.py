"""Every name a module exports resolves, so no deleted function lingers
in an ``__all__``, and the package exports exactly its modules' names."""

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


def test_package_exports_the_sorted_union_of_its_modules():
    import pgblrc

    names = [n for m in MODULES[1:] for n in importlib.import_module(m).__all__]  # the six modules
    assert pgblrc.__all__ == sorted(set(names))
    assert len(set(pgblrc.__all__)) == len(pgblrc.__all__)
    assert not [n for n in pgblrc.__all__ if n.startswith("_")]
