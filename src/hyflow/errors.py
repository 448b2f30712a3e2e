"""Exception hierarchy for the guaranteed simulation engine."""


class HyflowError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HyflowError):
    """A set-valued operand left the mathematical domain of an operation.

    Examples: sqrt of an interval with a negative lower bound, division by
    an interval containing zero. No sound finite enclosure exists, so the
    operation must fail rather than guess.
    """


class ModelError(HyflowError):
    """The hybrid-automaton model is malformed (unbound variable, missing
    flow, edge endpoints that do not exist, ...)."""


class ConfigError(HyflowError):
    """A configuration value is unusable (bad tolerances, expression-size
    cap exceeded while building derivative evaluators, ...)."""


class IntegrationError(HyflowError):
    """The guaranteed integrator could not complete a step: Picard iteration
    failed to verify an enclosure at the minimal step size, or the error
    estimate stayed above tolerance at the minimal step size."""


class ZenoError(HyflowError):
    """A chain of immediate discrete transitions exceeded the configured
    cap, suggesting Zeno behavior (or a reset that does not exit its
    guard)."""


class InvariantViolation(HyflowError):
    """A step started in a state where an outgoing guard was not surely
    false and no boundary certificate applied; the guard/reset pair must be
    reformulated."""


class ParseError(HyflowError):
    """Syntax or validation error in the input DSL, with source location."""

    def __init__(self, message, span=None, expected=None):
        self.span = span
        self.expected = tuple(expected) if expected else ()
        loc = f" at {span}" if span is not None else ""
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{loc}{exp}")


class SchemaError(HyflowError):
    """Structural error in a JSON automaton file, with a JSON-pointer path."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path or '/'}: {message}")
