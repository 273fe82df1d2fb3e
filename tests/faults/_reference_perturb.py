"""The interpreter that defines a message-fault draw (the test oracle).

``FaultInjector._perturb`` runs a program compiled once in ``arm()``;
this is the per-message interpreter it replaced: for every rule and
every message ``is_null()`` / ``applies_to()``, an ``isinstance`` chain,
the whole key and seed-material strings formatted afresh, one new
``random.Random`` per draw and an occurrence dict that is never
cleared.  A draw is keyed on the message, never on dispatch order.  The draw definition is frozen — every
golden fingerprint in the repo depends on it — so the compiled program
must agree with this class on every delay list, counter and event
(``test_compiled_program.py``).

:class:`ReferenceInjector` inherits construction, arming and the
crash / blackout / GPS rules from :class:`FaultInjector`; ``arm()``
installs the filter below because it is looked up on ``self``.
"""

import random
import zlib
from typing import List, Optional

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CHANNEL_CGCAST,
    LagSpike,
    MessageDuplication,
    MessageJitter,
    MessageLoss,
)
from repro.obs._state import OBS as _OBS
from repro.obs.events import MessagesPerturbed


class ReferenceInjector(FaultInjector):
    """:class:`FaultInjector` with the original message interpreter."""

    def _keyed_rng(self, rule_index: int, message_key: str, occurrence: int):
        """A fresh RNG for one (rule, message) pair."""
        material = f"{self._root_seed}|{rule_index}|{message_key}|{occurrence}"
        return random.Random(
            zlib.crc32(material.encode()) ^ (self._root_seed << 32)
        )

    def _perturb(
        self, channel: str, delay: float, message_key: str
    ) -> Optional[List[float]]:
        """Apply the channel rules in plan order to one message.

        Returns the per-copy delivery delays (empty = dropped), or
        ``None`` when untouched so callers keep the exact original path.
        """
        if not self._within_horizon():
            return None
        occurrence = self._edge_counts.get(message_key, 0)
        self._edge_counts[message_key] = occurrence + 1
        delays = [delay]
        touched = False
        stats0 = (self.stats.messages_dropped, self.stats.messages_duplicated,
                  self.stats.messages_delayed)
        for armed in self._armed_rules:
            rule = armed.rule
            if rule.is_null() or not rule.applies_to(channel):
                continue
            rng = self._keyed_rng(armed.index, message_key, occurrence)
            if isinstance(rule, MessageLoss):
                kept = [d for d in delays if rng.random() >= rule.rate]
                if len(kept) != len(delays):
                    touched = True
                    self.stats.messages_dropped += len(delays) - len(kept)
                delays = kept
            elif isinstance(rule, MessageDuplication):
                extra: List[float] = []
                for d in delays:
                    if rng.random() < rule.rate:
                        extra.extend([d] * rule.copies)
                if extra:
                    touched = True
                    self.stats.messages_duplicated += len(extra)
                delays = delays + extra
            elif isinstance(rule, MessageJitter):
                new = []
                for d in delays:
                    if rng.random() < rule.rate:
                        touched = True
                        self.stats.messages_delayed += 1
                        new.append(d + rng.uniform(0.0, rule.max_extra))
                    else:
                        new.append(d)
                delays = new
            elif isinstance(rule, LagSpike):
                if rule.active_at(self.sim.now) and delays:
                    # extra_e per §II-C.3 distance unit the message covers.
                    units = delay / (self.system.delta + self.system.e)
                    touched = True
                    self.stats.messages_delayed += len(delays)
                    delays = [d + rule.extra_e * units for d in delays]
        if touched and _OBS.events_enabled:
            _OBS.emit(MessagesPerturbed(
                time=self.sim.now,
                channel=channel,
                dropped=self.stats.messages_dropped - stats0[0],
                duplicated=self.stats.messages_duplicated - stats0[1],
                delayed=self.stats.messages_delayed - stats0[2],
            ))
        return delays if touched else None

    def _cgcast_filter(self, src, dest, payload, delay) -> Optional[List[float]]:
        key = f"cg|{self.sim.now!r}|{src!r}|{dest!r}|{type(payload).__name__}"
        return self._perturb(CHANNEL_CGCAST, delay, key)
