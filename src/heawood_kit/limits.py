"""Limits shared by the library and the command line, and the schema tag.

Every command loads this module; the exact search, the chromatic search
and the command line's cap checks read their caps here, so a command
can refuse with exit 3 before it loads the code it would run.
"""

from __future__ import annotations

import os

SCHEMA = "heawood-kit/1"
DEFAULT_SEARCH_CAP = 200


class CapExceeded(RuntimeError):
    """A search or closure grew past its configured cap."""


def search_cap(default: int = DEFAULT_SEARCH_CAP) -> int:
    """HEAWOOD_CAP when set, which must be a positive integer, else the default."""
    value = os.environ.get("HEAWOOD_CAP")
    if not value:
        return default
    problem = f"HEAWOOD_CAP must be a positive integer, not {value!r}"
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(problem) from None
    if cap <= 0:
        raise ValueError(problem)
    return cap
