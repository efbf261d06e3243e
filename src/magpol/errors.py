"""Exception types shared across the package.

Everything raised on bad user input derives from DomainError so the CLI can
map it to a single exit code; programming errors stay ordinary exceptions.
"""


class MagpolError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MagpolError):
    """Input outside the physical or documented domain of an operation."""


class IntegrationTimeout(MagpolError):
    """The time integrator hit max_time before the settle criterion."""

    def __init__(self, message, last_change=None):
        super().__init__(message)
        self.last_change = last_change


class ConfigError(DomainError):
    """Config text failed to parse or validate.

    Carries the offending key and 1-based line number when known.
    """

    def __init__(self, message, key=None, line=None):
        super().__init__(message)
        self.key = key
        self.line = line

    def __str__(self):
        base = super().__str__()
        where = []
        if self.key is not None:
            where.append(f"key {self.key!r}")
        if self.line is not None:
            where.append(f"line {self.line}")
        if where:
            return f"{base} ({', '.join(where)})"
        return base


class TraceParseError(DomainError):
    """A trace file failed to parse; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"{base} (line {self.line})"
        return base
