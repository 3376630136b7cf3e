"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter or precondition violates its documented domain."""
