"""Shared exception and warning base classes.

Every module defines its own concrete exceptions; they all derive from
ToolkitError so the CLI can distinguish data problems (per-file failure
entries, exit 1) from genuine crashes.
"""


class ToolkitError(Exception):
    """Base class for all data and format errors raised by this package."""


class ToolkitWarning(UserWarning):
    """Base class for recoverable oddities reported via warnings.warn()."""
