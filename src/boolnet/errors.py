"""Exception hierarchy shared by all boolnet modules.

The CLI maps each subclass onto its own process exit code (ConfigError
2, IngestionError 3, StructuralError 4), so raising the right one
matters for scripting users.
"""


class BoolnetError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(BoolnetError):
    """A model, circuit, or matrix violates a structural invariant
    (shape mismatch, width mismatch, out-of-range index, ...)."""


class ConfigError(BoolnetError):
    """Invalid configuration value, unknown key, or out-of-range threshold."""


class IngestionError(BoolnetError):
    """A dataset file is missing, truncated, or has a bad header."""
