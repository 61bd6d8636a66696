"""Exception types shared across the package.

Two failure families are distinguished so the command line tool can map
them to distinct exit codes: bad user input (exit 1) versus numerical
breakdown during iteration (exit 2).
"""

from __future__ import annotations

import functools


class InputError(ValueError):
    """Invalid argument, malformed file, or inconsistent configuration."""


class NumericError(RuntimeError):
    """Numerical failure (non-finite values, iteration caps, singular solves).

    ``iteration`` optionally names the step at which it was detected.
    """

    def __init__(self, message: str, *, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


def typed(value, kind: type, name: str):
    """``value`` if it is exactly a ``kind`` (a bool is no int), uncoerced."""
    if type(value) is not kind:
        raise InputError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def decodes(kind: str):
    """Make a `from_dict(cls, d)` raise InputError for any malformed `kind`
    record: a missing field, or a field of the wrong type or value."""
    def wrap(from_dict):
        @functools.wraps(from_dict)
        def decode(cls, d):
            try:
                return from_dict(cls, d)
            except KeyError as exc:
                raise InputError(f"{kind} record missing field {exc}") from exc
            except InputError:
                raise
            except (AttributeError, IndexError, TypeError, ValueError) as exc:
                raise InputError(f"{kind} record is malformed: {exc}") from exc
        return decode
    return wrap
