"""The library imports nothing outside the Python standard library: every
absolute import in its modules names a standard-library top-level module,
and every other import is relative, within the package.  Every module but
the package's `__init__.py` reads each name it imports."""

import ast
import pathlib
import sys

import pytest

import hopfzero as hz

MODULES = sorted(pathlib.Path(hz.__file__).resolve().parent.glob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_read(module):
    # __init__.py is exempt: it imports names to re-export them
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []
