"""Exception types shared across the package.

Two failure families are distinguished so the command line tool can map
them to distinct exit codes: bad user input (exit 1) versus numerical
breakdown during iteration (exit 2).
"""

from __future__ import annotations

import functools
from numbers import Integral


class InputError(ValueError):
    """Invalid argument, malformed file, or inconsistent configuration."""


class NumericError(RuntimeError):
    """Numerical failure (non-finite values, iteration caps, singular solves).

    ``iteration`` optionally names the step at which it was detected.
    """

    def __init__(self, message: str, *, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


# The checks a `from_dict` makes of a JSON value: each raises TypeError,
# which `decodes` reports as a malformed record.

def typed(value, kind: type, name: str):
    """``value`` if it is exactly a ``kind`` (a bool is no int), uncoerced."""
    if type(value) is not kind:
        raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def integer(value, name: str) -> int:
    """``value`` as an int if it is an integer, a numpy one included, but
    not a bool or a float; else an InputError naming the config field."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number: an int or a float, not
    a bool or a str."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def numbers(values, name: str) -> list[float]:
    """A JSON array of numbers (see `number`) as a list of floats."""
    return [number(v, name) for v in typed(values, list, name)]


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
