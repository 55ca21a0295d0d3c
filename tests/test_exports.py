"""Every name the package exports resolves, so a deletion cannot leave a
stale export behind: each module's ``__all__`` and each name
``sobnat/__init__.py`` imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sobnat

# __main__ runs the CLI on import.
MODULES = sorted(info.name for info in pkgutil.iter_modules(sobnat.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"sobnat.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"sobnat.{name}.__all__ names what the module lacks: {missing}"


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(sobnat.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert ("rkhs", "KernelExpansion") in imported
    for module, attr in imported:
        if module is None:  # from . import <module>
            value = importlib.import_module(f"sobnat.{attr}")
        else:
            value = getattr(importlib.import_module(f"sobnat.{module}"), attr, None)
        assert value is not None, f"sobnat/__init__.py imports {attr} from sobnat.{module}, which lacks it"
        assert getattr(sobnat, attr) is value
