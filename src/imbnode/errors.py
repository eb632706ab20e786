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
        self.key = key
        self.keys = (key, *related)


class ShapeError(ImbnodeError, ValueError):
    """Operand shapes do not conform; message names the operation."""


class NonFiniteError(ImbnodeError, FloatingPointError):
    """A forward op produced NaN or Inf."""


class DenseCapError(ImbnodeError, ValueError):
    """Graph too large to densify for the reconstruction loss."""


class TrainingDiverged(ImbnodeError, RuntimeError):
    """Training loss became non-finite or exploded."""
