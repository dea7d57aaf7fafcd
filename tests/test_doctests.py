"""Every module's docstring examples run as part of the test suite."""

import doctest
import importlib
import pkgutil

import pytest

import ultrashort

MODULES = ["ultrashort"] + sorted(
    "ultrashort." + info.name for info in pkgutil.iter_modules(ultrashort.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
