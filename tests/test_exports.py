import importlib
import pkgutil

import pytest

import popbias

MODULES = sorted(m.name for m in pkgutil.iter_modules(popbias.__path__, "popbias."))


@pytest.mark.parametrize("module_name", ["popbias", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), module_name
    assert [name for name in exported if not hasattr(module, name)] == []
