"""Every exception of ``mdpcompose.errors`` survives pickling, as it must to
leave a benchmark worker process."""

import inspect
import pickle

import pytest

from mdpcompose import errors

EXAMPLES = {
    errors.GraphValidationError: (["state X has no expression", "dangling action Y"],),
    errors.TurtleSyntaxError: ("unexpected token", 3, 14, "'.'"),
    errors.SchemaError: ("missing field 'name'",),
    errors.RuleSyntaxError: ("unbalanced parenthesis", 7),
    errors.MissingFeatureError: ("IsOpen_door_1",),
    errors.EvaluationError: ("division by zero",),
    errors.UnknownEntityError: ("Fly_kite_1",),
    errors.UnknownSituationError: ("no state matches",),
    errors.ActivityTerminatedError: ("final state reached",),
    errors.StepLimitExceededError: ("more than 1000 steps",),
    errors.CompositionFailureError: ("no candidate improves the reward",),
    errors.StartupError: ("startup failed: no .ttl files in store directory store",),
    errors.TrainingDivergenceError: ("non-finite loss", 3),
}


def test_examples_cover_every_error_class():
    defined = {
        cls
        for _name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
    }
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    original = cls(*EXAMPLES[cls])
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is cls
    assert str(copy) == str(original)
    assert copy.args == original.args
    assert vars(copy) == vars(original)
