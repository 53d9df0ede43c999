"""Every public name resolves: each module's ``__all__`` entries and every
name the package ``__init__`` imports.  A stale entry left behind when a
function is deleted fails here, not in a user's ``import *``."""

import ast
import importlib
from pathlib import Path

import pytest

import monofield

PACKAGE = Path(monofield.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_gives_every_all_entry(name):
    module = importlib.import_module(f"monofield.{name}")
    namespace = {}
    exec(f"from monofield.{name} import *", namespace)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    for entry in exported:
        assert namespace[entry] is getattr(module, entry)


def package_imports():
    """(module, name, bound name) of every ``from .module import name [as
    bound]`` in the package ``__init__``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name, alias.asname or alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_package_imports_resolve_to_exported_names():
    imports = package_imports()
    assert imports
    for module_name, name, bound in imports:
        module = importlib.import_module(f"monofield.{module_name}")
        assert name in module.__all__, f"monofield.{module_name}.{name} is not in its __all__"
        assert getattr(monofield, bound) is getattr(module, name)
