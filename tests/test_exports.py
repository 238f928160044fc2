"""Every name a `cascadelab` module lists in `__all__` resolves.

A stale entry left behind when a function is deleted breaks
`from module import *` for every caller, so each module is checked both
by attribute and by a star import. The package star-imports its modules,
so its own `__all__` must hold every name they list.
"""

import importlib
import pkgutil

import pytest

import cascadelab

MODULES = ["cascadelab"] + [
    f"cascadelab.{info.name}" for info in pkgutil.iter_modules(cascadelab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert [attr for attr in public if not hasattr(module, attr)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)


@pytest.mark.parametrize(
    "name", ["graph", "percolation", "bounds", "distributions", "privacy", "attack"]
)
def test_package_reexports_every_public_name(name):
    """`cascadelab` star-imports each module, so it lists all their names."""
    module = importlib.import_module(f"cascadelab.{name}")
    assert set(module.__all__) <= set(cascadelab.__all__)
