"""Exception types shared across the package."""


class SegxferError(Exception):
    """Base class for all package errors."""


class ShapeError(SegxferError):
    """Operand dimensions do not chain or do not match a declared contract."""


class ConfigError(SegxferError):
    """A configuration value is invalid (bad grid stride, non-positive
    temperature, unknown config key, ...)."""


class InputError(SegxferError):
    """A runtime input violates a precondition (empty set, out-of-range
    label, non-finite feature, ...)."""


class DegenerateColumnError(SegxferError):
    """A softmax column contained no finite entry.  Callers that mask with
    -inf must apply their fallback before normalizing."""
