"""Ownership of the packed exponent layout: `coeffring` packs each parameter
exponent vector of the graded kernel's converted form into one `int` key,
and no other module reads a key's bit fields, so that the layout can change
in one place."""

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
