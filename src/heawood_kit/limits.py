"""Limits shared by the library and the command line, and the schema tag.

Every command loads this module.  It holds every limit default and the
one vertex-cap check, which the command line runs on closed-form vertex
counts before it builds and the exact searches run on the graphs they
are given, so a command can refuse with exit 3 before it loads the code
it would run.
"""

from __future__ import annotations

import os
from typing import Optional

SCHEMA = "heawood-kit/1"

# Most vertices each step takes on; HEAWOOD_CAP, when set, replaces all three.
VERTEX_CAPS = {
    "build": 200_000,  # a quotient graph or torus: about 4 s and 200 MB
    "search": 200,  # the exact automorphism search
    "chromatic": 60,  # the exact chromatic number
}


class CapExceeded(RuntimeError):
    """A vertex count above the cap of the step that would take it on."""


def check_vertex_cap(vertices: int, what: str, cap: Optional[int] = None) -> None:
    """Raise CapExceeded when ``vertices`` is above the ``what`` cap.

    The cap is ``cap`` when given, else HEAWOOD_CAP when set, which must be
    a positive integer, else the ``VERTEX_CAPS`` default.
    """
    if cap is None:
        cap = VERTEX_CAPS[what]
        value = os.environ.get("HEAWOOD_CAP")
        if value:
            problem = f"HEAWOOD_CAP must be a positive integer, not {value!r}"
            try:
                cap = int(value)
            except ValueError:
                raise ValueError(problem) from None
            if cap <= 0:
                raise ValueError(problem)
    if vertices > cap:
        raise CapExceeded(f"{vertices} vertices above {what} cap {cap}")
