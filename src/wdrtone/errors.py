"""Exception types shared across the library: one class per kind of fault,
which the CLI maps to its exit code."""


class ToneMapError(Exception):
    """Base class for every error this library raises on purpose."""


class HdrFormatError(ToneMapError):
    """Input bytes are malformed, truncated or in an unsupported layout."""


class ParameterError(ToneMapError, ValueError):
    """An argument breaks its contract: its value, range or shape, or its fit
    with the other arguments."""
