"""Seeded random-number streams.

Each simulation component draws from its own named stream derived from a
single root seed, so adding randomness to one component never perturbs
another component's draws — runs stay comparable across configurations.
"""

from __future__ import annotations

import random
import zlib


class RngRegistry:
    """Factory of independent, reproducible :class:`random.Random` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically.

        Its seed is ``(seed << 32) ^ crc32(name)``.
        """
        if name not in self._streams:
            mix = zlib.crc32(name.encode("utf-8"))
            self._streams[name] = random.Random((self.seed << 32) ^ mix)
        return self._streams[name]

    def names(self) -> list[str]:
        return sorted(self._streams)
