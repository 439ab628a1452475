"""Exception types shared across the package."""


class ExdynError(Exception):
    """Base class for all errors raised by exdyn."""


class DomainError(ExdynError):
    """A point lies outside the model domain."""


class ParameterError(ExdynError):
    """A parameter is outside its valid range."""


class GeometryError(ExdynError):
    """Invalid generator configuration for cell statistics."""


class ConfigError(ExdynError):
    """Malformed or invalid run configuration."""

    def __init__(self, message, line=None, field=None):
        if line is not None:
            message = f"line {line}: {message}"
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
        self.line = line
        self.field = field
