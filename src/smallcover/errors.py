"""One exception class per exit code; cli.main maps each onto its code.

Code raises the class of the fault where it is known: bad input,
a failed property, or a broken internal invariant.
"""


class InputError(ValueError):
    """Malformed or semantically invalid input, or input past a declared
    limit (exit code 1)."""


class PropertyViolation(RuntimeError):
    """A checked mathematical property failed on concrete data (exit code 2)."""


class InternalConsistencyError(RuntimeError):
    """An internal invariant broke: either a bug or violated hypotheses (exit code 3)."""
