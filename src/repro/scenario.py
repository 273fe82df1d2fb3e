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
``replicated``, ``emulated``, ``predictive`` build message-level
systems; ``home-agent``, ``awerbuch-peleg``, ``flooding``,
``passive-trace`` build the analytic cost-model baselines (no
simulator, no accountant).  Underscore spellings of any key
(``home_agent``) normalize to the hyphenated canonical form.

Determinism: ``build`` performs exactly the same construction steps for
the same config, and the injector's RNG streams are derived from
``config.seed`` — same config ⇒ same world ⇒ same execution.

Example::

    from repro.scenario import ScenarioConfig, build

    scenario = build(ScenarioConfig(r=3, max_level=2, system="stabilizing"))
    scenario.system.make_evader(...)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Union

from .faults.plan import FaultPlan
from .topo import charge_setup, topology_cache

#: Registry keys of the message-level (simulator-driven) systems.
MESSAGE_SYSTEMS = (
    "vinestalk",
    "no-lateral",
    "stabilizing",
    "replicated",
    "emulated",
    "predictive",
)
#: Registry keys of the analytic cost-model baselines.
ANALYTIC_SYSTEMS = ("home-agent", "awerbuch-peleg", "flooding", "passive-trace")


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
        resume_from: A :class:`~repro.ckpt.Snapshot` (or a path to a
            saved checkpoint file); :func:`build` then restores the
            snapshot's continuation instead of constructing a fresh
            world.  Every other field must either match the snapshot's
            own config or be left at its default — a checkpoint cannot
            be rebuilt under different knobs.
        shards: Number of region shards for the conservative PDES core
            (:mod:`repro.sim.sharded`).  ``1`` (the default) is the
            plain single-loop engine; ``build`` itself always
            constructs one world — the sharded driver builds one
            per-shard replica from ``config.with_(shards=1)``.
        stable_fault_draws: Make per-message fault perturbations
            (loss/duplication/jitter) draw from message-keyed streams
            instead of the armed rule's sequential stream, so the draw
            for a given message is independent of global dispatch order
            — required for cross-K determinism under sharding.
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
            Analytic baselines ignore it (no dispatch path to meter).
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
    resume_from: Optional[Any] = None
    shards: int = 1
    stable_fault_draws: bool = False
    n_objects: int = 1
    find_clients: int = 4
    energy: Optional[Any] = None

    def __post_init__(self) -> None:
        if isinstance(self.system, str):
            if "_" in self.system:
                # Uniform registry keys: accept underscore spellings
                # ("home_agent", "no_lateral", …) and normalize to the
                # canonical hyphenated key so every baseline is reachable
                # under one naming convention.
                object.__setattr__(self, "system", self.system.replace("_", "-"))
            if self.system not in MESSAGE_SYSTEMS + ANALYTIC_SYSTEMS:
                raise ValueError(
                    f"unknown system {self.system!r}; expected one of "
                    f"{MESSAGE_SYSTEMS + ANALYTIC_SYSTEMS} or a class"
                )
        elif not isinstance(self.system, type):
            raise TypeError("system must be a registry key or a class")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise TypeError("fault_plan must be a FaultPlan")
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

    @property
    def is_analytic(self) -> bool:
        """True when ``system`` names an analytic cost-model baseline."""
        return isinstance(self.system, str) and self.system in ANALYTIC_SYSTEMS


@dataclass
class Scenario:
    """A built world, ready to drive.

    Attributes:
        config: The config this world was built from.
        system: The built system (message-level variant or analytic
            baseline object).
        hierarchy: The cluster hierarchy (also for analytic baselines,
            whose cost models run over ``hierarchy.tiling``).
        accountant: Attached work accountant (None for analytic
            baselines).
        injector: Armed fault injector (None without a fault plan).
        energy_ledger: The attached :class:`~repro.energy.EnergyLedger`
            when the config carries an energy model (None otherwise).
        send_fold: The :class:`~repro.sim.sharded.context.SendFold` of
            the system's C-gcast sends (None for analytic baselines).
    """

    config: ScenarioConfig
    system: Any
    hierarchy: Any
    accountant: Optional[Any] = None
    injector: Optional[Any] = None
    energy_ledger: Optional[Any] = None
    send_fold: Optional[Any] = None

    @property
    def sim(self):
        """The simulator (None for analytic baselines)."""
        return getattr(self.system, "sim", None)

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
def _build_vinestalk(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .core.vinestalk import VineStalk

    return VineStalk(hierarchy, delta=config.delta, e=config.e, schedule=config.schedule)


def _build_no_lateral(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .baselines.no_lateral import NoLateralVineStalk

    return NoLateralVineStalk(
        hierarchy, delta=config.delta, e=config.e, schedule=config.schedule
    )


def _build_stabilizing(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .stabilization.system import StabilizingVineStalk

    return StabilizingVineStalk(
        hierarchy,
        delta=config.delta,
        e=config.e,
        schedule=config.schedule,
        stabilization=config.stabilization,
    )


def _build_replicated(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .replication.replicated import ReplicatedVineStalk

    return ReplicatedVineStalk(
        hierarchy,
        replication_factor=config.replication_factor,
        delta=config.delta,
        e=config.e,
        schedule=config.schedule,
    )


def _build_emulated(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .core.emulated import EmulatedVineStalk

    return EmulatedVineStalk(
        hierarchy,
        nodes_per_region=config.nodes_per_region,
        t_restart=config.t_restart,
        delta=config.delta,
        e=config.e,
        schedule=config.schedule,
        physical_routing=config.physical_routing,
    )


def _build_predictive(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .baselines.pack.predictive import PredictiveVineStalk

    return PredictiveVineStalk(
        hierarchy, delta=config.delta, e=config.e, schedule=config.schedule
    )


def _build_home_agent(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .baselines.home_agent import HomeAgentLocator

    return HomeAgentLocator(hierarchy.tiling, delta=config.delta)


def _build_awerbuch_peleg(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .baselines.awerbuch_peleg import AwerbuchPelegDirectory

    return AwerbuchPelegDirectory(hierarchy.tiling, delta=config.delta)


def _build_flooding(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .baselines.flooding import FloodingFinder

    return FloodingFinder(hierarchy.tiling, delta=config.delta)


def _build_passive_trace(config: ScenarioConfig, hierarchy: Any) -> Any:
    from .baselines.pack.passive_trace import PassiveTraceTracker

    return PassiveTraceTracker(hierarchy.tiling, delta=config.delta)


SYSTEM_BUILDERS: Dict[str, Callable[[ScenarioConfig, Any], Any]] = {
    "vinestalk": _build_vinestalk,
    "no-lateral": _build_no_lateral,
    "stabilizing": _build_stabilizing,
    "replicated": _build_replicated,
    "emulated": _build_emulated,
    "predictive": _build_predictive,
    "home-agent": _build_home_agent,
    "awerbuch-peleg": _build_awerbuch_peleg,
    "flooding": _build_flooding,
    "passive-trace": _build_passive_trace,
}


# ----------------------------------------------------------------------
# The factory
# ----------------------------------------------------------------------
def build(config: ScenarioConfig) -> Scenario:
    """Build the world ``config`` describes.

    Message-level systems get an attached work accountant, a send fold
    (the send half of :func:`repro.ckpt.run_fingerprint`) and — when the
    config carries a fault plan — an armed fault injector seeded by
    ``config.seed``.  Analytic baselines get none of these (they have no
    simulator to perturb).

    A config with ``resume_from`` set restores that checkpoint's
    continuation instead (see :mod:`repro.ckpt`): the returned scenario
    picks up at the snapshot's simulation time with its event queue, RNG
    streams and automata state intact, and resumes bit-identically to
    the uninterrupted run.  The caller's other fields must match the
    snapshot's config (or all sit at their defaults) — mismatches raise
    :class:`~repro.ckpt.CkptCompatError`.

    When no explicit ``hierarchy`` is given, the grid hierarchy comes
    from the per-process :mod:`repro.topo` cache: the same
    ``(r, max_level)`` builds the cluster hierarchy and tiling neighbor
    graph once per process and shares them across scenarios (hierarchies
    are immutable after construction, so sharing is trace-identical to
    rebuilding).  Wall time spent in here is charged to the topo layer's
    setup accumulator, which the sweep runner reads to split per-job
    wall into setup vs run.
    """
    if config.resume_from is not None:
        return _build_resumed(config)
    with charge_setup():
        return _build_timed(config)


def _build_resumed(config: ScenarioConfig) -> Scenario:
    """The ``resume_from`` path: restore a checkpoint's continuation."""
    # Lazy: repro.ckpt imports this module.
    from .ckpt import CkptCompatError, Snapshot, load, restore_scenario

    source = config.resume_from
    with charge_setup():
        snapshot = source if isinstance(source, Snapshot) else load(source)
        caller = config.with_(resume_from=None)
        if caller != ScenarioConfig() and caller != snapshot.config:
            raise CkptCompatError(
                "resume_from config mismatch: the other ScenarioConfig "
                "fields must equal the snapshot's config (or all stay "
                f"at defaults); got {caller!r} vs snapshot "
                f"{snapshot.config!r}"
            )
        return restore_scenario(snapshot).scenario


def _build_timed(config: ScenarioConfig) -> Scenario:
    hierarchy = config.hierarchy
    if hierarchy is None:
        hierarchy = topology_cache().grid(config.r, config.max_level)

    if isinstance(config.system, type):
        system = _build_class(config, hierarchy)
    else:
        system = SYSTEM_BUILDERS[config.system](config, hierarchy)

    if config.is_analytic:
        return Scenario(config=config, system=system, hierarchy=hierarchy)

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

        injector = FaultInjector(
            system,
            config.fault_plan,
            seed=config.seed,
            stable_draws=config.stable_fault_draws,
        ).arm()
    return Scenario(
        config=config,
        system=system,
        hierarchy=hierarchy,
        accountant=accountant,
        injector=injector,
        energy_ledger=energy_ledger,
        send_fold=send_fold,
    )


def _build_class(config: ScenarioConfig, hierarchy: Any) -> Any:
    """Instantiate a user-supplied VineStalk-like class."""
    kwargs: Dict[str, Any] = {"delta": config.delta, "e": config.e}
    if config.schedule is not None:
        kwargs["schedule"] = config.schedule
    return config.system(hierarchy, **kwargs)
