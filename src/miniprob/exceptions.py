"""Error types raised across the toolkit."""


class MiniprobError(Exception):
    """Base class for all errors raised by this package."""


# --- graph evaluation / differentiation ---

class MissingInput(MiniprobError, KeyError):
    """A free input required by the graph is absent from the point."""

    def __str__(self):  # KeyError quotes its message otherwise
        return self.args[0] if self.args else ""


class ShapeMismatch(MiniprobError, ValueError):
    pass


class NonScalarObjective(MiniprobError, ValueError):
    pass


class IntegerDifferentiation(MiniprobError, TypeError):
    pass


class NoGradient(MiniprobError, TypeError):
    """The backward path crosses a node with no defined gradient."""


# --- model construction ---

class DuplicateName(MiniprobError, ValueError):
    pass


class TestvalOutsideSupport(MiniprobError, ValueError):
    pass


class AllMissing(MiniprobError, ValueError):
    pass


class OutsideSupport(MiniprobError, ValueError):
    pass


class ModelFrozen(MiniprobError, RuntimeError):
    pass


# --- sampling / optimization ---

class NonFiniteLogp(MiniprobError, ValueError):
    pass


class NonFiniteGradient(MiniprobError, ValueError):
    pass


class NonFiniteStart(MiniprobError, ValueError):
    pass


class UncoveredVariable(MiniprobError, ValueError):
    pass


class OverlappingTargets(MiniprobError, ValueError):
    pass


class SamplingError(MiniprobError, RuntimeError):
    """Wraps a sampler failure, annotated with (chain, draw)."""


# --- traces / backends ---

class IoFailure(MiniprobError, OSError):
    pass


class CorruptMeta(MiniprobError, ValueError):
    pass


class MissingChainFile(MiniprobError, FileNotFoundError):
    pass


class UnknownVariable(MiniprobError, KeyError):
    def __str__(self):
        return self.args[0] if self.args else ""


class TooFewSamples(MiniprobError, ValueError):
    pass


class NonFiniteSample(MiniprobError, ValueError):
    """A summary statistic was asked of samples holding NaN or infinity."""


# --- glm ---

class FormulaSyntaxError(MiniprobError, ValueError):
    """Formula text failed to parse; carries the byte offset of the error."""

    def __init__(self, offset, expected, text=""):
        self.offset = offset
        self.expected = expected
        msg = f"at offset {offset}: expected {expected}"
        if text:
            msg += f" in {text!r}"
        super().__init__(msg)


class DuplicateTerm(MiniprobError, ValueError):
    pass


class ResponseInTerms(MiniprobError, ValueError):
    pass


class UnknownColumn(MiniprobError, KeyError):
    def __str__(self):
        return self.args[0] if self.args else ""


class NonBinaryResponse(MiniprobError, ValueError):
    pass


# --- cli ---

class DataFileMissing(MiniprobError, FileNotFoundError):
    pass
