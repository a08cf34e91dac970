"""Every name a module of the package exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import bdmdarcy

MODULES = ["bdmdarcy"] + [
    info.name for info in pkgutil.walk_packages(bdmdarcy.__path__, prefix="bdmdarcy.")
]


def test_every_module_is_listed():
    assert {"bdmdarcy.femcore", "bdmdarcy.femcore.element", "bdmdarcy.geometry"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        assert getattr(module, attr, None) is not None, f"{name}.__all__ lists {attr!r}"
