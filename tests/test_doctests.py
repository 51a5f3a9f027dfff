"""The docstring examples of every qll module run as part of the suite."""

import doctest
import importlib
import pkgutil

import pytest

import qll

MODULES = sorted(m.name for m in pkgutil.iter_modules(qll.__path__, "qll.")
                 if m.name != "qll.__main__")


@pytest.mark.parametrize("name", ["qll"] + MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_exist():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted
                    for name in MODULES)
    assert attempted >= 20
