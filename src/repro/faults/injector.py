"""The fault injector (the *how* of fault injection).

:class:`FaultInjector` wires a :class:`~repro.faults.plan.FaultPlan`
into a built system through the explicit hooks each layer exposes — no
monkey-patching:

* :attr:`CGcast.fault_filter <repro.geocast.cgcast.CGcast.fault_filter>`
  for message loss / duplication / jitter / lag spikes — C-gcast is the
  one message channel a built system has, so a rule on ``"both"`` means
  it and a rule on ``"vbcast"`` alone is refused by :meth:`arm`;
* :attr:`VineStalk.gps_fault_delay
  <repro.core.vinestalk.VineStalk.gps_fault_delay>` and
  :attr:`GpsOracle.fault_delay <repro.physical.gps.GpsOracle.fault_delay>`
  for GPS staleness;
* :meth:`VsaEmulation.blackout <repro.vsa.emulation.VsaEmulation.blackout>`
  (emulated regime) or direct :class:`~repro.vsa.vsa.VsaHost`
  fail/restart (abstract regime) for crashes and blackouts.

Determinism: every random draw comes from a per-rule stream
(``fault.<index>.<RuleType>``) of a :class:`~repro.sim.rng.RngRegistry`
seeded by the injector, and draws happen in simulation-event order —
so the same seed and the same plan reproduce the same execution
bit for bit, which the golden tests enforce.

The message rules are compiled once, in :meth:`FaultInjector.arm`, into
the program that :meth:`FaultInjector._perturb` runs for every message.
The definition of a draw is frozen: every golden fingerprint in the
repo depends on it, and ``tests/faults/_reference_perturb.py`` holds the
interpreter that defines it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from zlib import crc32

from _random import Random as _MersenneTwister

from ..obs._state import OBS as _OBS
from ..obs.events import FaultCrash, FaultRestore, MessagesPerturbed
from ..sim.rng import RngRegistry
from .plan import (
    CHANNEL_CGCAST,
    FaultPlan,
    GpsStaleness,
    LagSpike,
    MessageDuplication,
    MessageJitter,
    MessageLoss,
    RegionBlackout,
    VsaCrashes,
)


@dataclass
class FaultStats:
    """What the injector actually did, for reporting and assertions."""

    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    crashes: int = 0
    blackouts: int = 0
    restores: int = 0
    gps_delayed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
            "crashes": self.crashes,
            "blackouts": self.blackouts,
            "restores": self.restores,
            "gps_delayed": self.gps_delayed,
        }

    def total_events(self) -> int:
        return sum(self.as_dict().values())


@dataclass
class _ArmedRule:
    """A rule paired with its dedicated RNG stream."""

    rule: object
    rng: object = field(repr=False, default=None)
    index: int = 0


#: Opcodes of a compiled message program (see ``FaultInjector._perturb``).
_LOSS, _DUPLICATE, _JITTER, _LAG = range(4)

#: The C-level Mersenne-Twister seeding, which ``random.Random.seed``
#: reaches through a Python frame and three ``isinstance`` tests.
_reseed = _MersenneTwister.seed


def _message_op(rule) -> Optional[Tuple[int, Any, Any]]:
    """``(op, rate, param)`` of a message rule; None for any other rule."""
    if isinstance(rule, MessageLoss):
        return _LOSS, rule.rate, None
    if isinstance(rule, MessageDuplication):
        return _DUPLICATE, rule.rate, rule.copies
    if isinstance(rule, MessageJitter):
        # uniform(0.0, m) is 0.0 + (m - 0.0) * random(); the span is m - 0.0.
        return _JITTER, rule.rate, rule.max_extra - 0.0
    if isinstance(rule, LagSpike):
        return _LAG, None, rule
    return None


class FaultInjector:
    """Arms a :class:`FaultPlan` against one built system.

    Args:
        system: A :class:`~repro.core.vinestalk.VineStalk` (or variant).
        plan: The fault plan to realise.
        seed: Root seed of the injector's RNG streams.  Pass the
            scenario seed so "same seed + same plan" pins the whole run.
        stable_draws: Message-rule perturbations (loss / duplication /
            jitter) draw from a per-message stream keyed on ``(seed,
            rule, time, src, dest, payload type, occurrence)``
            instead of the rule's sequential stream.  The draw for a
            given message then no longer depends on how many other
            messages the filter saw first — which is what the sharded
            PDES core needs, since each shard's filter sees only its
            own dispatches.  Crash / blackout / GPS rules keep their
            sequential streams: their draws happen on events that fire
            identically in every shard replica.
    """

    def __init__(
        self,
        system,
        plan: FaultPlan,
        seed: int = 0,
        stable_draws: bool = False,
    ) -> None:
        self.system = system
        self.plan = plan
        self.sim = system.sim
        self.streams = RngRegistry(seed)
        self.stats = FaultStats()
        self.stable_draws = stable_draws
        self._root_seed = seed
        # Stable-draws mode.  Per-message-key occurrence counters, so
        # identical back-to-back messages still get independent draws;
        # keys embed repr(sim.now), so the counters of an instant are
        # dead once the clock moves on and are cleared then.
        self._edge_counts: Dict[str, int] = {}
        # The time object the keys were last built for, and its repr
        # (identity, not equality: 3 == 3.0 but they print differently).
        self._key_time: Any = None
        self._key_time_repr = ""
        # (src, dest) -> "|src|dest|" piece of a C-gcast message key.
        self._cgcast_edges: Dict[tuple, str] = {}
        # The one generator every stable draw reseeds.  It stays a
        # random.Random: the injector is part of every ckpt snapshot and
        # a bare _random.Random does not pickle.
        self._draw_rng = random.Random(0)
        # The message program's rows, compiled by arm().
        self._program: tuple = ()
        self._armed = False
        # Regions currently held down by this injector (so overlapping
        # crash/blackout rules never double-fail or double-restore).
        self._forced_down: set = set()
        self._armed_rules: List[_ArmedRule] = []
        for index, rule in enumerate(plan.rules):
            name = f"fault.{index}.{type(rule).__name__}"
            self._armed_rules.append(
                _ArmedRule(rule, self.streams.stream(name), index)
            )

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Install the hooks and schedule the plan's timeline rules.

        Raises ``ValueError`` for a non-null message rule whose channel
        the system does not have (``"vbcast"`` alone): it would perturb
        nothing and report zeros.
        """
        if self._armed:
            raise RuntimeError("injector already armed")
        self._program = self._compile()
        self._armed = True
        if self._program:
            self.system.cgcast.fault_filter = self._cgcast_filter
        if any(isinstance(a.rule, GpsStaleness) and not a.rule.is_null()
               for a in self._armed_rules):
            self.system.gps_fault_delay = self._gps_delay
            self.system.network.gps.fault_delay = self._gps_delay
        for armed in self._armed_rules:
            rule = armed.rule
            if rule.is_null():
                continue
            if isinstance(rule, VsaCrashes):
                self.sim.call_at(
                    max(self.sim.now, rule.start),
                    lambda a=armed: self._crash_tick(a),
                    tag="fault-crash-tick",
                )
            elif isinstance(rule, RegionBlackout):
                self.sim.call_at(
                    max(self.sim.now, rule.at),
                    lambda a=armed: self._blackout(a),
                    tag="fault-blackout",
                )
        return self

    # ------------------------------------------------------------------
    # Message interposition (loss / duplication / jitter / lag spikes)
    # ------------------------------------------------------------------
    def _within_horizon(self) -> bool:
        horizon = self.plan.horizon
        return horizon is None or self.sim.now < horizon

    def _compile(self) -> tuple:
        """The message program: one row per rule that can perturb a
        C-gcast message, in plan order.  A message rule that cannot —
        its channel is one no built system has — is refused.

        A row is ``(op, rate, param, source)``.  ``source`` is where the
        rule's draws come from: its sequential stream, or in stable-draws
        mode the CRC of the ``"<seed>|<rule index>|"`` head of the
        per-message seed material, which :meth:`_perturb` continues over
        the message's own part.
        """
        rows = []
        for armed in self._armed_rules:
            rule = armed.rule
            compiled = _message_op(rule)
            if compiled is None or rule.is_null():
                continue
            if not rule.applies_to(CHANNEL_CGCAST):
                raise ValueError(
                    f"fault rule {armed.index} ({rule!r}) perturbs no message "
                    f"channel of the system: C-gcast is the only one"
                )
            source = armed.rng
            if self.stable_draws:
                source = crc32(f"{self._root_seed}|{armed.index}|".encode())
            rows.append(compiled + (source,))
        return tuple(rows)

    def _perturb(
        self, delay: float, edge: Optional[str] = None
    ) -> Optional[List[float]]:
        """Apply the message rules in plan order to one message.

        ``edge`` is the part of the message key after the time (None in
        sequential mode).  Returns the per-copy delivery delays (empty =
        dropped), or ``None`` when untouched so callers keep the exact
        original path.

        The seed of a stable draw is ``crc32(material) ^ (seed << 32)``
        with material ``"<seed>|<rule index>|<key>|<occurrence>"`` and
        key ``"cg|<repr(now)><edge>"``.
        """
        if not self._within_horizon():
            return None
        now = self.sim.now
        tail = None
        if edge is not None:
            if now is not self._key_time:
                if now != self._key_time:
                    self._edge_counts.clear()
                self._key_time = now
                self._key_time_repr = repr(now)
            key = f"cg|{self._key_time_repr}{edge}"
            counts = self._edge_counts
            occurrence = counts.get(key, 0)
            counts[key] = occurrence + 1
            tail = f"{key}|{occurrence}".encode()
            rng = self._draw_rng
            rand = rng.random
            seed_high = self._root_seed << 32
        # The copies of the message: the one delay ``single`` until a
        # rule drops or duplicates it, the list ``copies`` from then on.
        single = delay
        copies: Optional[List[float]] = None
        dropped = duplicated = delayed = 0
        for op, rate, param, source in self._program:
            if op == _LAG:
                if param.active_at(now):
                    # extra_e per §II-C.3 distance unit the message covers.
                    units = delay / (self.system.delta + self.system.e)
                    if copies is None:
                        delayed += 1
                        single = single + param.extra_e * units
                    else:
                        delayed += len(copies)
                        copies = [d + param.extra_e * units for d in copies]
                continue
            if tail is None:
                rand = source.random
            else:
                _reseed(rng, crc32(tail, source) ^ seed_high)
            if op == _LOSS:
                if copies is None:
                    if rand() < rate:
                        dropped += 1
                        copies = []
                        break  # nothing left to draw for
                else:
                    kept = [d for d in copies if rand() >= rate]
                    dropped += len(copies) - len(kept)
                    copies = kept
                    if not kept:
                        break
            elif op == _DUPLICATE:
                if copies is None:
                    if rand() < rate:
                        duplicated += param
                        copies = [single] * (1 + param)
                else:
                    extra: List[float] = []
                    for d in copies:
                        if rand() < rate:
                            extra.extend([d] * param)
                    duplicated += len(extra)
                    copies = copies + extra
            elif copies is None:  # _JITTER
                if rand() < rate:
                    delayed += 1
                    single = single + (0.0 + param * rand())
            else:
                jittered = []
                for d in copies:
                    if rand() < rate:
                        delayed += 1
                        d = d + (0.0 + param * rand())
                    jittered.append(d)
                copies = jittered
        if not (dropped or duplicated or delayed):
            return None
        stats = self.stats
        stats.messages_dropped += dropped
        stats.messages_duplicated += duplicated
        stats.messages_delayed += delayed
        if _OBS.events_enabled:
            _OBS.emit(
                MessagesPerturbed(now, CHANNEL_CGCAST, dropped, duplicated, delayed)
            )
        return [single] if copies is None else copies

    def _cgcast_filter(self, src, dest, payload, delay) -> Optional[List[float]]:
        if not self.stable_draws:
            return self._perturb(delay)
        edge = self._cgcast_edges.get((src, dest))
        if edge is None:
            edge = self._cgcast_edges[(src, dest)] = f"|{src!r}|{dest!r}|"
        return self._perturb(delay, edge + type(payload).__name__)

    # ------------------------------------------------------------------
    # GPS staleness
    # ------------------------------------------------------------------
    def _gps_delay(self, kind: str, region) -> float:
        if not self._within_horizon():
            return 0.0
        for armed in self._armed_rules:
            rule = armed.rule
            if isinstance(rule, GpsStaleness) and not rule.is_null():
                if armed.rng.random() < rule.rate:
                    self.stats.gps_delayed += 1
                    return rule.delay
        return 0.0

    # ------------------------------------------------------------------
    # VSA crashes and blackouts
    # ------------------------------------------------------------------
    def _take_down(self, region) -> bool:
        """Force-fail ``region``'s VSA.  Returns False when already down."""
        if region in self._forced_down:
            return False
        host = self.system.network.hosts.get(region)
        if host is None or host.failed:
            return False
        self._forced_down.add(region)
        emulation = self.system.network.emulation
        if emulation is not None:
            emulation.blackout(region)
        else:
            host.fail()
        if _OBS.events_enabled:
            _OBS.emit(FaultCrash(self.sim.now, region))
        return True

    def _bring_up(self, region) -> None:
        if region not in self._forced_down:
            return
        self._forced_down.discard(region)
        emulation = self.system.network.emulation
        if emulation is not None:
            emulation.lift_blackout(region)
        else:
            self.system.network.hosts[region].restart()
        self.stats.restores += 1
        if _OBS.events_enabled:
            _OBS.emit(FaultRestore(self.sim.now, region))

    def _crash_tick(self, armed: _ArmedRule) -> None:
        rule, rng = armed.rule, armed.rng
        if not self._within_horizon():
            return
        for region in self.system.hierarchy.tiling.regions():
            if rng.random() < rule.rate and self._take_down(region):
                self.stats.crashes += 1
                self.sim.call_after(
                    rule.downtime,
                    lambda r=region: self._bring_up(r),
                    tag="fault-crash-restore",
                )
        next_tick = self.sim.now + rule.period
        if self.plan.horizon is None or next_tick < self.plan.horizon:
            self.sim.call_at(
                next_tick, lambda: self._crash_tick(armed), tag="fault-crash-tick"
            )

    def _blackout(self, armed: _ArmedRule) -> None:
        rule, rng = armed.rule, armed.rng
        regions = list(rule.regions)
        if not regions and rule.count:
            pool = list(self.system.hierarchy.tiling.regions())
            regions = rng.sample(pool, min(rule.count, len(pool)))
        for region in regions:
            if self._take_down(region):
                self.stats.blackouts += 1
                self.sim.call_after(
                    rule.duration,
                    lambda r=region: self._bring_up(r),
                    tag="fault-blackout-restore",
                )
