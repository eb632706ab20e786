"""Exception types shared across the package."""


class ImbnodeError(Exception):
    """Base class for package-specific errors."""


class GraphFormatError(ImbnodeError, ValueError):
    """Malformed dataset file; message carries the offending line number."""


class GraphRangeError(ImbnodeError, ValueError):
    """Node id outside the declared node count."""


class ConfigError(ImbnodeError, ValueError):
    """A configuration value outside its allowed range; `key` names the
    field, so a caller that knows where the value was set can say so;
    `related` names other fields the check reads, in case `key` was not set."""

    def __init__(self, key: str, message: str, related: tuple[str, ...] = ()):
        super().__init__(message)
        self.key, self.keys = key, (key, *related)

    def __reduce__(self):  # a grid worker's error pickles with its keys and any record
        return type(self), (self.key, str(self), self.keys[1:]), self.__dict__


class ShapeError(ImbnodeError, ValueError):
    """Operand shapes do not conform; message names the operation."""


class NonFiniteError(ImbnodeError, FloatingPointError):
    """A forward op produced NaN or Inf."""


class DenseCapError(ImbnodeError, ValueError):
    """The edge loss's n x n float64 buffer, 8 n^2 bytes, exceeds physical memory."""


class TrainingDiverged(ImbnodeError, RuntimeError):
    """Training loss became non-finite or exploded."""
