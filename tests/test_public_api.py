"""The modules' ``__all__`` lists are the one record of the public API."""

import inspect
import types
from itertools import combinations

import btoep
from btoep import dpp, operators, spectral, symbols, tree, verify

LIBRARY = (tree, symbols, operators, spectral, dpp)


def test_package_exports_the_library_modules_all():
    exported = {name for name, value in vars(btoep).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {name for module in LIBRARY for name in module.__all__}


def test_each_all_names_exactly_the_functions_and_classes_defined():
    for module in (*LIBRARY, verify):
        defined = {name for name, value in vars(module).items()
                   if (inspect.isfunction(value) or inspect.isclass(value))
                   and value.__module__ == module.__name__ and not name.startswith("_")}
        assert sorted(module.__all__) == sorted(defined), module.__name__


def test_no_name_is_in_two_lists():
    for a, b in combinations((*LIBRARY, verify), 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
