"""Every relaxkit exception survives pickling (multiprocessing, logging handlers)."""

import inspect
import pickle

import pytest

from relaxkit import exceptions
from relaxkit.exceptions import ParseError, RelaxkitError

# constructor arguments of the exceptions that take more than a message
ARGS = {ParseError: (3, "non-numeric value")}
CLASSES = [cls for _, cls in inspect.getmembers(exceptions, inspect.isclass)
           if issubclass(cls, RelaxkitError)]


def test_every_exception_class_is_covered():
    assert len(CLASSES) >= 8 and RelaxkitError in CLASSES and set(ARGS) <= set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_an_exception_round_trips_through_pickle(cls):
    error = cls(*ARGS.get(cls, ("something went wrong",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)
