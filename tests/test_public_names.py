"""The package's public names: one list, gathered from its modules."""

import importlib
import pkgutil

import dce


def test_all_is_the_modules_lists_without_repeats():
    modules = [importlib.import_module(f"dce.{info.name}")
               for info in pkgutil.iter_modules(dce.__path__)]
    union = {name for module in modules for name in getattr(module, "__all__", ())}
    assert len(dce.__all__) == len(set(dce.__all__)) == len(union)
    assert set(dce.__all__) == union


def test_every_public_name_resolves():
    namespace = {}
    exec("from dce import *", namespace)
    for name in dce.__all__:
        assert namespace[name] is getattr(dce, name)
