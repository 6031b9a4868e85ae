"""Exception types shared across the package.

Every error belongs to one of two families: :class:`InputError` (bad files,
bad schemas, bad arguments) and :class:`RuntimeFailure` (backends, I/O). The
CLI maps the former to exit code 1 and the latter to exit code 2.
"""


class Cap2qaError(Exception):
    """Base class for all package errors."""


class InputError(Cap2qaError):
    """A bad input file, schema or argument: exit code 1."""


class RuntimeFailure(Cap2qaError):
    """A backend or I/O failure: exit code 2."""


class MissingFileError(InputError):
    pass


class MalformedJsonError(InputError):
    def __init__(self, path, offset, message="malformed JSON"):
        super().__init__(f"{path}: {message} at offset {offset}")
        self.path = str(path)
        self.offset = offset


class SchemaViolationError(InputError):
    pass


class MalformedLineError(InputError):
    def __init__(self, path, line_no, message="malformed line"):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class UnknownCategoryIdError(InputError):
    pass


class UnknownCategoryError(InputError):
    pass


class DuplicateSurfaceFormError(InputError):
    pass


class MissingAnnotationError(InputError):
    def __init__(self, image_id):
        super().__init__(f"no object annotation for image_id {image_id}")
        self.image_id = image_id


class DuplicateQuestionIdError(InputError):
    pass


class EmptyCaptionError(InputError):
    pass


class EmptyCorpusError(InputError):
    pass


class IoFailureError(RuntimeFailure):
    pass


class BackendUnavailableError(RuntimeFailure):
    pass


class AuthFailureError(RuntimeFailure):
    pass


class ScriptExhaustedError(RuntimeFailure):
    pass


class ResponseEmptyError(RuntimeFailure):
    pass


VALIDATION_ERRORS = (InputError, ValueError)
RUNTIME_ERRORS = (RuntimeFailure, OSError)
