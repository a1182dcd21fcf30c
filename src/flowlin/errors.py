"""Shared exception classes.

Concrete error types live next to the operations that raise them; they all
derive from :class:`FlowlinError`, which the CLI prints as the one line
``flowlin: <Name>: <message>`` with exit code 2.  An argument outside what
an operation accepts raises :class:`InvalidInput`, also a ``ValueError``.
"""


class FlowlinError(Exception):
    """Base class for all errors raised by flowlin."""


class InvalidInput(FlowlinError, ValueError):
    """An argument outside what the operation accepts."""
