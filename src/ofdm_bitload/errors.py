"""Exception types shared across the package, and the one rule for count arguments."""

import numbers


class DomainError(ValueError):
    """A parameter or precondition violates its documented domain."""


def _check_integer(name: str, value, low: int) -> None:
    """Raise DomainError unless value is a Python or numpy integer >= low, not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise DomainError(f"{name} must be >= {low} and an integer, got {value!r}")
