"""Exception types shared across the package."""


class HopfZeroError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HopfZeroError):
    """Syntax or grammar error in an input file, with source position."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)


class ParameterError(HopfZeroError):
    """Misuse of the parameter table (undeclared name, mismatched rings, ...)."""


class DegreeError(HopfZeroError):
    """An argument violates a grading requirement."""


class PrincipalPartError(HopfZeroError):
    """The lowest quasi-homogeneous part of a field is not of the admissible shape."""


class StructureError(HopfZeroError):
    """Internal consistency violation: a structural fact the algorithms rely on failed.

    Seeing this exception means a bug in this package, not bad user input.
    """
