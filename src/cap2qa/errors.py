"""Exception types shared across the package.

Every error belongs to one of two families: :class:`InputError` (bad files,
bad schemas, bad arguments) and :class:`RuntimeFailure` (backends, I/O). The
CLI maps the former to exit code 1 and the latter to exit code 2; the message
says what went wrong and where.
"""


class Cap2qaError(Exception):
    """Base class for all package errors."""


class InputError(Cap2qaError):
    """A bad input file, schema or argument: exit code 1."""


class RuntimeFailure(Cap2qaError):
    """A backend or I/O failure: exit code 2."""


class ScriptExhaustedError(RuntimeFailure):
    """A mock script has no response left for a prompt."""


VALIDATION_ERRORS = (InputError, ValueError)
RUNTIME_ERRORS = (RuntimeFailure, OSError)
