"""Error taxonomy shared by the whole package.

Three families of failures are distinguished so that callers (notably the
command line front end) can map them to distinct exit codes:

* ``RangeError``      -- a scalar argument or index is outside its contract
                         (bad shape parameter, parameter value off the
                         interval, order below the minimum, ...).
* ``SpecError``       -- a spec document violates the schema; the message
                         carries a JSON-path style location.
* ``NumericalError``  -- the input was well formed but a numerical
                         precondition failed at run time (non-positive
                         denominator, weight positivity not reached within
                         the elevation budget, degenerate weight pyramid).
"""

from __future__ import annotations

from . import _exports

__all__ = _exports(__name__)


class RangeError(ValueError):
    """An argument is outside its documented range."""


class SpecError(ValueError):
    """A spec document does not conform to the schema.

    ``path`` locates the offending field, e.g. ``coords[2].terms[0].k``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class NumericalError(ArithmeticError):
    """A numerical precondition failed while running an algorithm.

    ``indices`` optionally lists the offending control point indices
    (tuples for tensor product grids).
    """

    def __init__(self, message: str, indices=None):
        super().__init__(message)
        self.indices = list(indices) if indices is not None else None
