"""Exception types shared across the package.

Every error raised by edulearn derives from EdulearnError so callers (and
the CLI) can separate our failures from genuine bugs.
"""


class EdulearnError(Exception):
    """Base class for all edulearn errors."""


class DimensionError(EdulearnError):
    """Operands have incompatible shapes or lengths."""


class ParameterError(EdulearnError):
    """An argument or configuration value is out of its documented range."""


class SingularMatrixError(EdulearnError):
    """A symmetric factorization hit a non-positive pivot.

    ``pivot`` is the 0-based index of the offending diagonal entry.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class SchemaError(EdulearnError):
    """A CSV header or schema document does not match expectations."""


class ParseError(EdulearnError):
    """A CSV cell could not be parsed; message carries row and column."""


class LabelError(EdulearnError):
    """A categorical or target value falls outside its allowed set."""


class SplitError(EdulearnError):
    """A train/test split would leave one side empty."""


class DegenerateDataError(EdulearnError):
    """Input values the numerics cannot use: a regression input that is
    constant where variation is required, features too large to standardize
    in float64, or standardized values whose original units overflow it."""


class StalledDescentError(EdulearnError):
    """Backtracking line search could not find a decrease.

    ``iterate`` carries the last parameter vector reached before the stall.
    """

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class DivergenceError(EdulearnError):
    """SGD produced a non-finite loss; carries the epoch and learning rate."""

    def __init__(self, message: str, epoch: int | None = None, learning_rate: float | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.learning_rate = learning_rate
