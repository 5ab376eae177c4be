"""Exception types shared across the package."""


class IsibenchError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(IsibenchError):
    """An input violates a documented invariant (shape, normalization, hermiticity)."""


class CapExceededError(IsibenchError):
    """A dimension or memory cap would be exceeded; refuse instead of thrashing."""


class DegenerateSpectrumError(IsibenchError):
    """The spectrum violates the nondegeneracy hypothesis."""


class ConfigError(IsibenchError):
    """A config file, override, or data file header could not be parsed or validated."""
