"""Exception types shared across the package."""


class FunnelNavError(Exception):
    """Base class for all funnelnav errors."""


class ConfigError(FunnelNavError):
    """A configuration file is malformed or inconsistent."""


class EmptyMatchError(FunnelNavError):
    """A controller was asked to act on an empty match set."""


class TeachDegenerateError(FunnelNavError):
    """The teach drive saw too few landmarks to build a visual path."""


class InvalidPathError(FunnelNavError):
    """A visual path violates its structural invariants."""
