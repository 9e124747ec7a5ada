"""Ownership of the converted form below the monomial: `coeffring` packs
each parameter exponent vector of the graded kernel's converted form into
one `int` key, and no other module reads a key's bit fields, so that the
layout can change in one place; and a coefficient of that form, a plain
`int` or (key, numerator) items, has its form tested in `coeffring` and
`gradedpoly` alone, so that the other modules use their arithmetic."""

import ast
import pathlib

import pytest

import hopfzero as hz

MODULES = sorted(pathlib.Path(hz.__file__).resolve().parent.glob("*.py"))
LAYOUT = {"_EXP_BITS", "_EXP_MASK"}


def named(module):
    """The layout names that `module` names, as a variable, an attribute or
    an imported name."""
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
    return names & LAYOUT


def test_coeffring_defines_the_layout():
    assert named(next(m for m in MODULES if m.name == "coeffring.py")) == LAYOUT


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "coeffring.py"],
                         ids=lambda p: p.name)
def test_no_other_module_reads_the_bit_fields(module):
    assert named(module) == set()


def type_tests(module):
    """The lines of `module` that compare `type(...)` with `is` or `is not`."""
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
                    and side.func.id == "type" for side in [node.left, *node.comparators])]


def test_coeffring_compares_types():
    assert type_tests(next(m for m in MODULES if m.name == "coeffring.py"))


@pytest.mark.parametrize("module", [m for m in MODULES
                                    if m.name not in ("coeffring.py", "gradedpoly.py")],
                         ids=lambda p: p.name)
def test_no_other_module_compares_types(module):
    assert type_tests(module) == []
