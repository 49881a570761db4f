"""Shared exception types.

Budgeted enumerations raise ResourceLimitError instead of silently
truncating; a query a method cannot serve (splitting data at an index
divisor) raises a typed error so callers can supply the missing data.
"""


class ResourceLimitError(RuntimeError):
    """An enumeration or search would exceed its operation budget."""


class RecordError(RuntimeError):
    """A record failed for a reason other than a budget; the message names
    the experiment kind and the index, or the block of indices."""


class IndexDivisorError(ValueError):
    """Splitting data requested at a prime dividing the order index."""


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""
