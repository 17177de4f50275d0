"""Error types raised across the toolkit: one class per outcome that a caller
tells apart.  Each keeps a builtin base, so ``except ValueError`` (or
``KeyError``, ``TypeError``, ``RuntimeError``, ``OSError``) still catches it.
The command line exits 3 on a ``DataError`` and 4 on any other error here."""


class MiniprobError(Exception):
    """Base class for all errors raised by this package."""


class DataError(MiniprobError, ValueError):
    """Bad input data: a missing, unreadable or malformed data file or trace,
    or samples too few or not finite for a statistic."""


class IoFailure(DataError, OSError):
    """An output file or directory cannot be written."""


class UnknownVariable(DataError, KeyError):
    """A name that no variable, trace column, data column or graph input has."""

    def __str__(self):  # KeyError quotes its message otherwise
        return self.args[0] if self.args else ""


class ShapeMismatch(MiniprobError, ValueError):
    """Shapes that do not fit together, or an objective that is not a scalar."""


class DuplicateName(MiniprobError, ValueError):
    """A name already taken or one that cannot name a trace column."""


class OutsideSupport(MiniprobError, ValueError):
    """A value, a test value among them, outside a variable's support."""


class ModelFrozen(MiniprobError, RuntimeError):
    pass


class NoGradient(MiniprobError, TypeError):
    """A gradient through an opaque node or with respect to an integer."""


class NonFiniteLogp(MiniprobError, ValueError):
    """A log density, or its gradient or Hessian, that is not finite."""


class StepTargets(MiniprobError, ValueError):
    """Step methods that leave a free variable out or target one twice."""


class SamplingError(MiniprobError, RuntimeError):
    """Wraps a sampler failure, annotated with (chain, draw)."""


class FormulaError(MiniprobError, ValueError):
    """A formula that does not parse or does not fit its data.  A syntax
    error carries its ``offset`` in ``text``, and its message says what was
    expected there."""

    def __init__(self, message, offset=None, text=""):
        self.offset = offset
        if offset is not None:
            message = f"at offset {offset}: expected {message}"
            if text:
                message += f" in {text!r}"
        super().__init__(message)
