import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import popbias

MODULES = sorted(m.name for m in pkgutil.iter_modules(popbias.__path__, "popbias."))


@pytest.mark.parametrize("module_name", ["popbias", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), module_name
    assert [name for name in exported if not hasattr(module, name)] == []


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "popbias").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _all_entries(tree: ast.Module) -> set[int]:
    """The ids of the string nodes that list names in a module's ``__all__``."""
    return {
        id(element)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        for element in node.value.elts
    }


def _references(path: Path) -> set[str]:
    """Names a source file reads: loaded names, attributes, imports and string constants.

    An ``__all__`` entry does not count, nor does a name the package root
    only imports to re-export it. Definitions are not loads, so they do not
    count either.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    listed = _all_entries(tree)
    reexports = path == ROOT / "src" / "popbias" / "__init__.py"
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and not reexports:
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in listed:
                names.add(node.value)
    return names


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_has_a_caller(module_name):
    # A public name that only its own definition and __all__ mention is dead code.
    referenced = set().union(*map(_references, SOURCES))
    exported = getattr(importlib.import_module(module_name), "__all__", [])
    assert [name for name in exported if name not in referenced] == []
