"""Exception types shared across the toolkit, and the two helpers that name a rejected value.

How a user error names its key: a rule that a dataclass's field breaks
raises an error whose message starts with that field, as
``require_at_least`` writes the commonest rule, ``<field> must be >= <min>,
got <value>``. The config loader puts ``section.`` in front (through
``prefixed``), so the user reads ``section.key``. A value that came from a
CLI option or from a derived place, such as a cap, an arch or a labeled-set
size, has that key or option put in front the same way, as ``key: message``.
"""

from collections.abc import Iterator
from contextlib import contextmanager


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


def require_at_least(obj, **minimums) -> None:
    """``ConfigError`` for the first of ``obj``'s fields, in argument order, below its minimum.

    A field holding None is unset and passes.
    """
    for name, minimum in minimums.items():
        value = getattr(obj, name)
        if value is not None and not value >= minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")


@contextmanager
def prefixed(error_type: type[Exception], prefix: str) -> Iterator[None]:
    """Re-raise an ``error_type`` from the block with ``prefix`` in front of its message.

    The new error has the caught one's type, and the caught one as its ``__cause__``.
    """
    try:
        yield
    except error_type as exc:
        raise type(exc)(f"{prefix}{exc}") from exc
