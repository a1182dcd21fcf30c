"""Construct, numerically verify, and refute finite-dimensional linearizing
embeddings of continuous-time flows."""

__version__ = "0.1.0"

from . import catalog, edmd, embed, flows, linalg, obstruct, phase, pinched  # noqa: F401
from .errors import FlowlinError, InvalidInput  # noqa: F401
