"""The package's public names: every module declares ``__all__``, which lists
only names the module has, and the package root re-exports only names its
modules list, so a removal cannot leave a stale entry behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import splitphoton


def test_every_module_lists_its_names():
    unlisted = [info.name for info in pkgutil.iter_modules(splitphoton.__path__)
                if not hasattr(importlib.import_module(f"splitphoton.{info.name}"), "__all__")]
    assert unlisted == []


def test_every_listed_name_exists():
    missing = []
    for info in pkgutil.iter_modules(splitphoton.__path__):
        module = importlib.import_module(f"splitphoton.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_root_imports_are_listed():
    tree = ast.parse(Path(splitphoton.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert imports
    unlisted = [f"{module}.{name}" for module, name in imports
                if name not in importlib.import_module(f"splitphoton.{module}").__all__]
    assert unlisted == []
