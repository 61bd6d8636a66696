"""Exception types shared across the package.

Two failure families are distinguished so the command line tool can map
them to distinct exit codes: bad user input (exit 1) versus numerical
breakdown during iteration (exit 2).
"""

from __future__ import annotations


class InputError(ValueError):
    """Invalid argument, malformed file, or inconsistent configuration."""


class NumericError(RuntimeError):
    """Numerical failure (non-finite values, iteration caps, singular solves).

    ``iteration`` optionally names the step at which it was detected.
    """

    def __init__(self, message: str, *, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
