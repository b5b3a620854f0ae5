"""Shared exception types."""

from __future__ import annotations


class RingSpectraError(Exception):
    """Base class for errors raised by this package."""


class ResourceLimitError(RingSpectraError):
    """A configured cap (sieve bound, relation tuple budget, ...) was exceeded."""


class ParseError(RingSpectraError):
    """Syntax or well-formedness error in formula or polynomial text.

    Carries a 1-based line/column position when one is known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class DegenerateInputError(RingSpectraError):
    """Input degenerates under the requested reduction (e.g. f == 0 mod p)."""


class NoInverseError(RingSpectraError):
    """A modular inverse was requested for a non-invertible element."""


def _describe(value) -> str:
    return f"{len(value)} rows" if isinstance(value, list) else str(value)


class EngineDisagreementError(RingSpectraError):
    """The reference and relational engines gave different answers.

    Carries the formula text, the modulus and both engines' values.
    """

    def __init__(self, text: str, m: int, naive, fast):
        self.text = text
        self.m = m
        self.naive = naive
        self.fast = fast
        super().__init__(
            f"engines disagree at m={m}: naive={_describe(naive)}"
            f" fast={_describe(fast)} on {text}"
        )


class InvariantError(RingSpectraError):
    """An internal consistency check failed: a bug in this package, not bad input."""
