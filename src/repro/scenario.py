"""Unified scenario construction: one config, one ``build()``.

Every experiment, benchmark, example and CLI command builds its world
through the same two names:

* :class:`ScenarioConfig` — a frozen, picklable description of a world:
  geometry (``r``/``max_level`` or an explicit ``hierarchy``), timing
  (``delta``/``e``/``schedule``), the system variant (``system`` by
  registry key or class), variant knobs, and an optional
  :class:`~repro.faults.plan.FaultPlan`;
* :func:`build` — the factory that turns a config into a
  :class:`Scenario`: the built system, its hierarchy, an attached
  :class:`~repro.analysis.accounting.WorkAccountant`, the
  :class:`~repro.sim.sharded.context.SendFold` of its C-gcast sends
  and (when the config carries a fault plan) an armed
  :class:`~repro.faults.injector.FaultInjector`.

Registry keys: ``vinestalk``, ``no-lateral``, ``stabilizing``,
``replicated``, ``emulated``, ``predictive`` — every key builds a
message-level world.  Underscore spellings of any key (``no_lateral``)
normalize to the hyphenated canonical form.  The analytic cost-model
baselines are not worlds: :data:`repro.analysis.crossbase.
ANALYTIC_TRACKERS` drives them.

Determinism: ``build`` performs exactly the same construction steps for
the same config, and the injector's RNG streams are derived from
``config.seed`` — same config ⇒ same world ⇒ same execution.

Example::

    from repro.scenario import ScenarioConfig, build

    scenario = build(ScenarioConfig(r=3, max_level=2, system="stabilizing"))
    scenario.system.make_evader(...)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple, Union

from .faults.plan import FaultPlan
from .topo import charge_setup, topology_cache

#: Registry keys of the buildable systems.
MESSAGE_SYSTEMS = (
    "vinestalk",
    "no-lateral",
    "stabilizing",
    "replicated",
    "emulated",
    "predictive",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Frozen description of one buildable world.

    Attributes:
        r: Grid base of the region tiling (ignored when ``hierarchy``
            is given).
        max_level: Top cluster level (ignored when ``hierarchy`` is given).
        delta: Physical broadcast delay ``δ``.
        e: VSA emulation output lag ``e``.
        seed: Root seed — drives the fault injector's RNG streams and is
            the conventional seed for the caller's workload RNGs.
        system: Registry key (see module docstring) or a VineStalk-like
            class (``cls(hierarchy, delta=..., e=...)``).
        nodes_per_region: Emulated regime: physical nodes per region.
        t_restart: Emulated regime: continuous-occupancy restart time.
        physical_routing: Emulated regime: route C-gcast hop-by-hop.
        stabilization: Stabilizing regime: a
            :class:`~repro.stabilization.config.StabilizationConfig`.
        replication_factor: Replicated regime: replicas per cluster.
        hierarchy: Explicit :class:`~repro.hierarchy.hierarchy.
            ClusterHierarchy` overriding the ``r``/``max_level`` grid.
        schedule: Explicit :class:`~repro.core.timers.TimerSchedule`.
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan`; when
            set, :func:`build` arms a fault injector seeded by ``seed``.
        shards: Number of region shards for the conservative PDES core
            (:mod:`repro.sim.sharded`).  ``1`` (the default) is the
            plain single-loop engine; ``build`` itself always
            constructs one world — the sharded driver builds one
            per-shard replica from ``config.with_(shards=1)``.
        stable_fault_draws: Always ``True`` (``False`` is refused):
            message faults draw per message key, never in dispatch
            order.  Kept only for callers that still pass it.
        n_objects: Service scenarios: how many independent tracked
            objects (M) the workload drives.  ``build`` constructs the
            same world either way — lanes materialize on first use
            (DESIGN.md §9); this knob parameterizes load generation.
        find_clients: Service scenarios: how many distinct client
            origin regions the load generator draws finds from.
        energy: Optional :class:`~repro.energy.EnergyModel`; when set,
            :func:`build` attaches an :class:`~repro.energy.EnergyLedger`
            to the message-level system's dispatch hooks (exposed as
            ``Scenario.energy_ledger`` and ``system.energy_ledger``).
    """

    r: int = 3
    max_level: int = 2
    delta: float = 1.0
    e: float = 0.5
    seed: int = 0
    system: Union[str, type] = "vinestalk"
    nodes_per_region: int = 2
    t_restart: float = 5.0
    physical_routing: bool = False
    stabilization: Optional[Any] = None
    replication_factor: int = 2
    hierarchy: Optional[Any] = None
    schedule: Optional[Any] = None
    fault_plan: Optional[FaultPlan] = None
    shards: int = 1
    stable_fault_draws: bool = True
    n_objects: int = 1
    find_clients: int = 4
    energy: Optional[Any] = None

    def __post_init__(self) -> None:
        if isinstance(self.system, str):
            if "_" in self.system:
                # Uniform registry keys: accept underscore spellings
                # ("no_lateral", …) and normalize to the canonical
                # hyphenated key.
                object.__setattr__(self, "system", self.system.replace("_", "-"))
            if self.system not in MESSAGE_SYSTEMS:
                raise ValueError(
                    f"unknown system {self.system!r}; expected one of "
                    f"{MESSAGE_SYSTEMS} or a class"
                )
        elif not isinstance(self.system, type):
            raise TypeError("system must be a registry key or a class")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise TypeError("fault_plan must be a FaultPlan")
        if self.stable_fault_draws is not True:
            raise ValueError(
                "stable_fault_draws must be True: message faults draw "
                "per message key only"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.n_objects < 1:
            raise ValueError(f"n_objects must be >= 1, got {self.n_objects}")
        if self.find_clients < 1:
            raise ValueError(
                f"find_clients must be >= 1, got {self.find_clients}"
            )
        if self.energy is not None:
            from .energy.model import EnergyModel

            if not isinstance(self.energy, EnergyModel):
                raise TypeError("energy must be an EnergyModel")

    def with_(self, **changes: Any) -> "ScenarioConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)


@dataclass
class Scenario:
    """A built world, ready to drive.

    Attributes:
        config: The config this world was built from.
        system: The built system.
        hierarchy: The cluster hierarchy.
        accountant: Attached work accountant.
        injector: Armed fault injector (None without a fault plan).
        energy_ledger: The attached :class:`~repro.energy.EnergyLedger`
            when the config carries an energy model (None otherwise).
        send_fold: The :class:`~repro.sim.sharded.context.SendFold` of
            the system's C-gcast sends.
    """

    config: ScenarioConfig
    system: Any
    hierarchy: Any
    accountant: Any
    injector: Optional[Any]
    energy_ledger: Optional[Any]
    send_fold: Any

    @property
    def sim(self):
        """The simulator."""
        return self.system.sim

    @property
    def fault_stats(self):
        """The injector's :class:`~repro.faults.injector.FaultStats`."""
        return self.injector.stats if self.injector is not None else None

    def parts(self):
        """``(system, accountant)`` — the two-tuple most runners unpack."""
        return self.system, self.accountant


# ----------------------------------------------------------------------
# System registry
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _system_table() -> Dict[str, Tuple[type, Tuple[str, ...]]]:
    """Registry key -> (class, config fields passed as keywords besides
    ``delta``/``e``/``schedule``), imported on first build so that
    making a config loads no system module."""
    from .baselines.no_lateral import NoLateralVineStalk
    from .baselines.pack.predictive import PredictiveVineStalk
    from .core.emulated import EmulatedVineStalk
    from .core.vinestalk import VineStalk
    from .replication.replicated import ReplicatedVineStalk
    from .stabilization.system import StabilizingVineStalk

    return {
        "vinestalk": (VineStalk, ()),
        "no-lateral": (NoLateralVineStalk, ()),
        "stabilizing": (StabilizingVineStalk, ("stabilization",)),
        "replicated": (ReplicatedVineStalk, ("replication_factor",)),
        "emulated": (EmulatedVineStalk,
                     ("nodes_per_region", "t_restart", "physical_routing")),
        "predictive": (PredictiveVineStalk, ()),
    }


def _build_system(config: ScenarioConfig, hierarchy: Any) -> Any:
    """Instantiate the config's system: a registry key or a
    VineStalk-like class (``cls(hierarchy, delta=..., e=...)``)."""
    if isinstance(config.system, type):
        cls, fields = config.system, ()
    else:
        cls, fields = _system_table()[config.system]
    kwargs: Dict[str, Any] = {"delta": config.delta, "e": config.e}
    if config.schedule is not None:
        kwargs["schedule"] = config.schedule
    for name in fields:
        kwargs[name] = getattr(config, name)
    return cls(hierarchy, **kwargs)


# ----------------------------------------------------------------------
# The factory
# ----------------------------------------------------------------------
def build(config: ScenarioConfig) -> Scenario:
    """Build the world ``config`` describes.

    The world gets an attached work accountant, a send fold (the send
    half of :func:`repro.ckpt.run_fingerprint`) and — when the config
    carries a fault plan — an armed fault injector seeded by
    ``config.seed``.

    When no explicit ``hierarchy`` is given, the grid hierarchy comes
    from the per-process :mod:`repro.topo` cache: the same
    ``(r, max_level)`` builds the cluster hierarchy and tiling neighbor
    graph once per process and shares them across scenarios (hierarchies
    are immutable after construction, so sharing is trace-identical to
    rebuilding).  Wall time spent in here is charged to the topo layer's
    setup accumulator, which the sweep runner reads to split per-job
    wall into setup vs run.
    """
    with charge_setup():
        return _build_timed(config)


def _build_timed(config: ScenarioConfig) -> Scenario:
    hierarchy = config.hierarchy
    if hierarchy is None:
        hierarchy = topology_cache().grid(config.r, config.max_level)

    system = _build_system(config, hierarchy)

    # Lazy: repro.analysis imports repro.analysis.experiments, which
    # imports this module — a top-level import here would cycle.
    from .analysis.accounting import WorkAccountant
    from .sim.sharded.context import SendFold

    accountant = WorkAccountant().attach(system.cgcast)
    send_fold = SendFold().attach(system.cgcast)
    energy_ledger = None
    if config.energy is not None:
        from .energy.ledger import EnergyLedger

        energy_ledger = EnergyLedger(config.energy, hierarchy).attach(system.cgcast)
        system.energy_ledger = energy_ledger
        if hasattr(system, "attach_energy"):
            system.attach_energy(energy_ledger)
    injector = None
    if config.fault_plan is not None:
        from .faults.injector import FaultInjector

        injector = FaultInjector(system, config.fault_plan, seed=config.seed).arm()
    return Scenario(
        config=config,
        system=system,
        hierarchy=hierarchy,
        accountant=accountant,
        injector=injector,
        energy_ledger=energy_ledger,
        send_fold=send_fold,
    )
