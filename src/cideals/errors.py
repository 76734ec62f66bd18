"""Exception types shared across the package.

Errors raised while reading an instance file carry a 1-based ``line``
attribute; errors raised by the library API leave it as ``None``.
"""

from __future__ import annotations


class PosetError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class DuplicateName(PosetError):
    pass


class UnknownName(PosetError):
    pass


class CycleDetected(PosetError):
    """The transitive closure of the input pairs violates antisymmetry."""


class NotBounded(PosetError):
    """A complementation was requested on a poset without bottom or top."""


class PartialMap(PosetError):
    """The complement table does not cover every element."""


class AxiomViolation(PosetError):
    """Some element x fails join(x, x') = top or meet(x, x') = bottom."""

    def __init__(self, element: str, message: str):
        super().__init__(message)
        self.element = element


class BadSize(PosetError):
    pass


class NotIdeal(PosetError):
    pass


class NotFilter(PosetError):
    pass


class ParseError(PosetError):
    """Malformed instance or report text."""


class DuplicateSection(ParseError):
    pass
