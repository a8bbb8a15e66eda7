"""The paper's sequentiality heuristics, reusable outside the simulator.

>>> from repro.readahead import SlowDownHeuristic, ReadState
>>> heur, state = SlowDownHeuristic(), ReadState()
>>> heur.observe(state, 0, 8192)
2
"""

from .always import AlwaysReadAheadHeuristic
from .base import (Cursor, Heuristic, INITIAL_SEQCOUNT, MAX_SEQCOUNT,
                   ReadState, SLOWDOWN_WINDOW, clamp_seqcount,
                   readahead_blocks)
from .cursor import CursorHeuristic, DEFAULT_CURSOR_LIMIT
from .default import DefaultHeuristic
from .none import NoReadAheadHeuristic
from .pool import DEFAULT_POOL_SIZE, SharedCursorPool
from .slowdown import SlowDownHeuristic

_BY_NAME = {
    "default": DefaultHeuristic,
    "slowdown": SlowDownHeuristic,
    "always": AlwaysReadAheadHeuristic,
    "cursor": CursorHeuristic,
    "pooled-cursor": SharedCursorPool,
    "none": NoReadAheadHeuristic,
}

#: Every name :func:`make_heuristic` accepts.
HEURISTICS = tuple(_BY_NAME)


def make_heuristic(name: str, **kwargs) -> Heuristic:
    """Instantiate a heuristic by name (default/slowdown/always/cursor)."""
    try:
        cls = _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown heuristic {name!r}; "
                         f"choose from {sorted(_BY_NAME)}") from None
    return cls(**kwargs)


__all__ = [
    "Heuristic",
    "ReadState",
    "Cursor",
    "DefaultHeuristic",
    "SlowDownHeuristic",
    "AlwaysReadAheadHeuristic",
    "CursorHeuristic",
    "SharedCursorPool",
    "DEFAULT_POOL_SIZE",
    "NoReadAheadHeuristic",
    "make_heuristic",
    "HEURISTICS",
    "readahead_blocks",
    "clamp_seqcount",
    "MAX_SEQCOUNT",
    "INITIAL_SEQCOUNT",
    "SLOWDOWN_WINDOW",
    "DEFAULT_CURSOR_LIMIT",
]
