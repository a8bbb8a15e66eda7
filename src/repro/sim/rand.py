"""Deterministic random-number streams for the simulator.

Every stochastic component draws from its own named stream, derived from
a single experiment seed.  This keeps runs reproducible and lets one
component's draw count change without perturbing every other component
(the classic common-random-numbers discipline for simulation studies).
"""

from __future__ import annotations

import hashlib
import random


#: Seed distance between the repeats of one point: wide enough that
#: the streams derived from one repeat's seed never meet another's.
RUN_SEED_SPACING = 1000


def derive_seed(master_seed: int, stream_name: str) -> int:
    """Derive a 64-bit child seed from a master seed and a stream name."""
    digest = hashlib.sha256(
        f"{master_seed}:{stream_name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def run_seed(seed: int, run: int) -> int:
    """The testbed seed of repeat ``run`` of a point seeded ``seed``:
    every sweep, bench repeat, campaign cell and chaos schedule."""
    return seed + RUN_SEED_SPACING * run


class RandomStreams:
    """A factory of independent, reproducible random streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoised) stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(
                derive_seed(self.master_seed, name))
        return self._streams[name]
