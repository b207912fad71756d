"""Exception types shared across the package."""


class QueryError(ValueError):
    """Raised for malformed query text. Carries the byte position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at byte {position})"
        super().__init__(message)
        self.position = position


class ConfigError(ValueError):
    """Raised for invalid filter configurations or generator specs."""


class CapExceededError(RuntimeError):
    """Raised as soon as the enumerated design space exceeds the configured cap."""

    def __init__(self, cap):
        super().__init__(f"design space has more than {cap} configurations")
        self.cap = cap


class FalseNegativeError(AssertionError):
    """A raw filter rejected a record the oracle labels as a true match.

    This is always an implementation or configuration soundness bug, never a
    reportable measurement.
    """
