"""The command line's limits and the schema tag.

Every command loads this module.  It holds every limit default and the
one vertex-cap check, which the command line runs on closed-form vertex
counts before it builds anything, so a command can refuse with exit 3
before it loads the code it would run.  Library functions have no cap:
they answer any graph they are given.
"""

from __future__ import annotations

import os
from math import factorial
from typing import Optional

from .lattice import ClassIndex

SCHEMA = "heawood-kit/1"

# Most vertices each step takes on; HEAWOOD_CAP, when set, replaces all three.
VERTEX_CAPS = {
    # a quotient graph or torus: the 190,224-vertex graph of (6,6,6,6,5)
    # builds in about 0.8 s and 140 MB max RSS (Python 3.11, x86_64)
    "build": 200_000,
    "search": 200,  # the exact automorphism search
    "chromatic": 60,  # the exact chromatic number
}


class CapExceeded(RuntimeError):
    """A vertex count above the cap of the step that would take it on."""


def check_caps(index: ClassIndex, *steps: Optional[str]) -> None:
    """Raise CapExceeded when the vertex count d!·D of a quotient, read
    from the order of its index, is above the cap of any of ``steps``,
    checked in order; a None step is skipped.  It lists no class.  The
    cap is HEAWOOD_CAP when set, which must be a positive integer, else
    the ``VERTEX_CAPS`` default."""
    vertices = factorial(index.rows.cols - 1) * index.order
    value = os.environ.get("HEAWOOD_CAP")
    for step in filter(None, steps):
        cap = VERTEX_CAPS[step]
        if value:
            problem = f"HEAWOOD_CAP must be a positive integer, not {value!r}"
            try:
                cap = int(value)
            except ValueError:
                raise ValueError(problem) from None
            if cap <= 0:
                raise ValueError(problem)
        if vertices > cap:
            raise CapExceeded(f"{vertices} vertices above {step} cap {cap}")
