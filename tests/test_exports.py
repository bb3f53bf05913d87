"""Export lists: every name the package and its modules list in __all__
exists, none is listed twice, and a star import of the package works."""
import importlib
import pkgutil

import pytest

import sheetforge

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(sheetforge.__path__, "sheetforge.")
)


@pytest.mark.parametrize("name", ["sheetforge", *MODULES])
def test_every_listed_name_resolves_once(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", ())
    assert len(listed) == len(set(listed)), sorted(n for n in listed if listed.count(n) > 1)
    missing = [n for n in listed if not hasattr(module, n)]
    assert not missing, missing


def test_star_import_of_the_package():
    namespace = {}
    exec("from sheetforge import *", namespace)
    assert set(sheetforge.__all__) <= set(namespace)
