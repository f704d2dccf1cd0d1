"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A configuration or parameter set is invalid."""


class DomainError(ValueError):
    """A numeric argument is outside its valid domain."""


class DimensionError(DomainError):
    """Array shapes or lengths do not match what an operation requires."""


class GuardHaltedError(RuntimeError):
    """The guard has permanently halted; no further queries are answered."""
