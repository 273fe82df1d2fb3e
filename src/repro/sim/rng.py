"""Seeded random-number streams.

Each simulation component draws from its own named stream derived from a
single root seed, so adding randomness to one component never perturbs
another component's draws — runs stay comparable across configurations.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


class RngRegistry:
    """Factory of independent, reproducible :class:`random.Random` streams.

    A registry also carries a *fork path* — a tuple of fork indices
    mixed into every stream's seed derivation.  A freshly constructed
    registry has an empty fork path and derives seeds exactly as it
    always did; :meth:`fork` extends the path, deterministically
    re-deriving every stream so N copies of one generator can diverge
    reproducibly (fork ``k`` always yields the same streams for the
    same root seed and path).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._fork_path: tuple = ()
        self._streams: dict[str, random.Random] = {}

    @property
    def fork_path(self) -> tuple:
        """Fork indices applied so far (empty for an unforked registry)."""
        return self._fork_path

    def _derive(self, name: str) -> int:
        """Seed for stream ``name`` under the current fork path.

        With an empty fork path this is the historical derivation
        ``(seed << 32) ^ crc32(name)`` bit for bit, so existing goldens
        are untouched.
        """
        mix = zlib.crc32(name.encode("utf-8"))
        derived = (self.seed << 32) ^ mix
        for index in self._fork_path:
            derived = derived * 1_000_003 ^ zlib.crc32(
                repr(index).encode("utf-8")
            )
        return derived

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive(name))
        return self._streams[name]

    def names(self) -> list[str]:
        return sorted(self._streams)

    def fork(self, index: int) -> "RngRegistry":
        """Extend the fork path by ``index`` and re-derive every stream.

        All existing streams restart from their forked seeds (the
        mid-sequence position is deliberately discarded — a fork is a
        new, divergent continuation, not a resume), and streams created
        later derive from the same extended path.  Returns ``self``.
        """
        self._fork_path = self._fork_path + (int(index),)
        for name, rng in self._streams.items():
            rng.seed(self._derive(name))
        return self


def choice_excluding(
    rng: random.Random, options: Sequence[T], excluded: Optional[T]
) -> T:
    """Uniformly pick from ``options`` avoiding ``excluded`` when possible."""
    if not options:
        raise ValueError("empty options")
    pool = [o for o in options if o != excluded]
    if not pool:
        pool = list(options)
    return rng.choice(pool)
