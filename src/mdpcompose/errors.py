"""Exception types shared across the package.

Every exception here survives ``pickle`` with its type, message and
attributes, so an error raised in a benchmark worker process reaches the
caller unchanged.
"""


def _rebuild(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class _Rebuilt:
    """Pickles as its type, ``args`` and attributes without running
    ``__init__`` again. The default ``cls(*args)`` fails for errors whose
    ``__init__`` formats ``args`` from other parameters."""

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class GraphValidationError(_Rebuilt, Exception):
    """Raised when a knowledge graph violates structural rules.

    Collects every problem found instead of stopping at the first one.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class TurtleSyntaxError(_Rebuilt, ValueError):
    """Syntax error in a Turtle document, with position and expectation."""

    def __init__(self, message, line, column, expected=None):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class SchemaError(ValueError):
    """A JSON document does not match the entity schema."""


class RuleSyntaxError(_Rebuilt, ValueError):
    """Syntax error in a rule or equation expression."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"position {position}: {message}")


class MissingFeatureError(_Rebuilt, LookupError):
    """An expression references a feature absent from the value map."""

    def __init__(self, feature):
        self.feature = feature
        super().__init__(f"feature {feature!r} is not bound")


class EvaluationError(ValueError):
    """An expression cannot be evaluated (type clash, zero division, ...)."""


class UnknownEntityError(LookupError):
    """A referenced entity name does not exist in the graph or space."""


class UnknownSituationError(Exception):
    """The observed state cannot be matched; the request must be rejected."""


class ActivityTerminatedError(RuntimeError):
    """A simulation step was attempted after the final state was reached."""


class StepLimitExceededError(RuntimeError):
    """A simulation exceeded its step safeguard."""


class CompositionFailureError(Exception):
    """Policy composition could not finish for this activity."""


class TrainingDivergenceError(_Rebuilt, RuntimeError):
    """An optimizer produced a non-finite loss."""

    def __init__(self, message, iteration=None):
        self.iteration = iteration
        super().__init__(message)
