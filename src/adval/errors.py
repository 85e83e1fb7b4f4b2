"""Exception types shared across the toolkit."""


class AdvalError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AdvalError, ValueError):
    """A configuration value violates its contract."""


class InputError(AdvalError, ValueError):
    """An input tensor or label was rejected (shape, range, or finiteness)."""


class UnsupportedArchitectureError(AdvalError, ValueError):
    """The network architecture lacks a layer required by the operation."""


class FormatError(AdvalError, ValueError):
    """A data file could not be parsed; the message names the offending location."""


class PoolInvariantError(AdvalError, RuntimeError):
    """Labeled/unlabeled bookkeeping was violated. This is a bug surface, not recoverable."""


class TrainingError(AdvalError, RuntimeError):
    """Training diverged: the trained network's logits are not finite."""
