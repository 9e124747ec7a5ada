"""The public API has no option that only tests set.

Every function and public method that `hopfzero.__all__` names, and every
class constructor but those of dataclasses and enums, is listed with its
parameters that have defaults.  A pipeline sets each of the ones left, so a
new default is a choice to make here, not a side effect.  `Rational` is the
standard library's `Fraction`, whose options are not the package's.
"""

import dataclasses
import enum
import inspect
import types

import hopfzero as hz


def public_callables():
    """(label, callable) for each function, constructor and public method of
    the package's own names in `__all__`."""
    for name in hz.__all__:
        obj = getattr(hz, name)
        if not getattr(obj, "__module__", "").startswith("hopfzero"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
            if not dataclasses.is_dataclass(obj):
                yield name, obj
            for attr in vars(obj):
                value = getattr(obj, attr)
                if not attr.startswith("_") and inspect.isroutine(value):
                    yield f"{name}.{attr}", value


def options():
    found = []
    for label, fn in public_callables():
        try:
            parameters = inspect.signature(fn).parameters.values()
        except ValueError:  # a builtin constructor, such as an exception's
            continue
        names = [p.name for p in parameters if p.default is not p.empty]
        if names:
            found.append(f"{label}({', '.join(names)})")
    return sorted(found)


def test_no_option_that_only_tests_set():
    labels = {label for label, _ in public_callables()}
    assert {"classify", "lie_bracket", "QHPolynomial.mul", "ParseError",
            "ObstructionSequence.first_nonzero"} <= labels
    assert "Method" not in labels and "AnalysisConfig" not in labels
    assert options() == ["ParseError(line, column)", "principal_part(params)"]


def test_all_names_no_submodule():
    # `from hopfzero import *` binds the package's names, not its modules
    assert "classify" in hz.__all__
    assert not [name for name in hz.__all__
                if isinstance(getattr(hz, name), types.ModuleType)]
