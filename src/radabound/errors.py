"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A configuration or parameter set is invalid."""


class DomainError(ValueError):
    """A numeric argument is outside its valid domain."""


class GuardHaltedError(RuntimeError):
    """The guard has permanently halted; no further queries are answered."""
