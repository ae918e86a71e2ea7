"""The package top level: each name of aqrm.__all__ resolves on first use to
the object its home module defines, and star-imports and dir() see it."""

import sys

import pytest

import aqrm


@pytest.mark.parametrize("name", aqrm.__all__)
def test_name_is_its_home_modules_object(name):
    obj = getattr(aqrm, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("aqrm.")
    assert getattr(home, name) is obj


def test_star_import_binds_every_name():
    namespace = {}
    exec("from aqrm import *", namespace)
    assert {name: namespace.get(name) for name in aqrm.__all__} == {
        name: getattr(aqrm, name) for name in aqrm.__all__}


def test_dir_lists_every_name():
    assert set(aqrm.__all__) <= set(dir(aqrm))
    assert "__version__" in dir(aqrm)


def test_unknown_name_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(aqrm, "no_such_name")
