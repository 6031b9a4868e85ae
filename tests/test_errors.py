import pytest

from cap2qa import errors
from cap2qa.errors import RUNTIME_ERRORS, VALIDATION_ERRORS, Cap2qaError

ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Cap2qaError) and cls is not Cap2qaError
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_has_exactly_one_exit_code(cls):
    assert issubclass(cls, VALIDATION_ERRORS) != issubclass(cls, RUNTIME_ERRORS)
