"""VSA layer assembly (Fig. 1): hosts + clients + communication.

:class:`VsaNetwork` bundles the pieces every VSA-layer algorithm needs —
a simulator, a TIOA executor, one :class:`~repro.vsa.vsa.VsaHost` per
region, and the C-gcast service — and provides registration helpers.
It has two operating modes:

* **abstract** (default): every VSA is alive for the whole execution —
  the regime of the paper's §IV/§V analysis;
* **emulated**: a :class:`~repro.vsa.emulation.VsaEmulation` drives VSA
  failures and restarts from a physical node population (§II-C.2).

Hosts are :class:`Automata`, built on first read: one never read is
alive and hosts nothing.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..geometry.regions import RegionId
from ..geocast.cgcast import CGcast
from ..hierarchy.hierarchy import ClusterHierarchy
from ..physical.node import PhysicalNode
from ..sim.engine import Simulator
from ..tioa.automaton import TimedAutomaton
from ..tioa.executor import Executor
from .client import Client
from .emulation import VsaEmulation
from .vsa import VsaHost


class _Built(dict):
    """The entries built so far; ``[]`` on a missing key builds one
    (``make`` stores it here), while ``.get`` and ``in`` never build."""

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[Any], Any]) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key: Any) -> Any:
        return self._make(key)


class Automata(Mapping):
    """Every key's entry, each built on its first ``[]``.

    ``len`` and iteration read ``keys()`` afresh, in its order; ``in``
    asks ``locate``, which raises ``KeyError`` for a key outside the
    world (so does ``[]``, building nothing).  ``built`` is the
    built-only view.
    """

    __slots__ = ("built", "_keys", "_locate")

    def __init__(self, keys: Callable[[], Iterable], make: Callable[[Any], Any],
                 locate: Callable[[Any], Any]) -> None:
        self.built = _Built(make)
        self._keys = keys
        self._locate = locate

    def __getitem__(self, key: Any) -> Any:
        return self.built[key]

    def __iter__(self):
        return iter(self._keys())

    def __len__(self) -> int:
        return len(self._keys())

    def __contains__(self, key: Any) -> bool:
        if key in self.built:
            return True
        try:
            self._locate(key)
        except KeyError:
            return False
        return True


class VsaNetwork:
    """The assembled VSA programming layer for one hierarchy.

    Args:
        hierarchy: The cluster hierarchy over the deployment space.
        delta: Physical broadcast delay ``δ``.
        e: VSA emulation output lag ``e``.
        sim: Optional externally owned simulator.
    """

    def __init__(
        self,
        hierarchy: ClusterHierarchy,
        delta: float = 1.0,
        e: float = 0.0,
        sim: Optional[Simulator] = None,
        cgcast_cls=CGcast,
    ) -> None:
        self.hierarchy = hierarchy
        self.delta = delta
        self.e = e
        self.sim = sim if sim is not None else Simulator()
        self.executor = Executor(self.sim)
        self.cgcast = cgcast_cls(self.sim, hierarchy, delta=delta, e=e)
        tiling = hierarchy.tiling
        self.hosts: Automata = Automata(tiling.regions, self._add_host, tiling.index)
        self.clients: Dict[int, Client] = {}
        self.emulation: Optional[VsaEmulation] = None

    # ------------------------------------------------------------------
    # VSA side
    # ------------------------------------------------------------------
    def _add_host(self, region: RegionId) -> VsaHost:
        """Build ``region``'s VSA: alive, hosting nothing yet."""
        self.hierarchy.tiling.index(region)  # KeyError: no such region
        host = self.hosts.built[region] = VsaHost(region)
        return host

    def host(self, region: RegionId) -> VsaHost:
        try:
            return self.hosts[region]
        except KeyError:
            raise KeyError(f"no VSA host for region {region!r}") from None

    def add_subautomaton(
        self, region: RegionId, key: str, automaton: TimedAutomaton
    ) -> TimedAutomaton:
        """Host ``automaton`` at region ``u``'s VSA and register it."""
        self.executor.register(automaton)
        return self.host(region).add_subautomaton(key, automaton)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def add_client(self, client: Client) -> Client:
        """Register a client automaton."""
        self.executor.register(client)
        self.clients[client.node_id] = client
        return client

    # ------------------------------------------------------------------
    # Emulation mode
    # ------------------------------------------------------------------
    def enable_emulation(self, nodes: List[PhysicalNode], t_restart: float) -> VsaEmulation:
        """Switch to the emulated regime driven by ``nodes``."""
        if self.emulation is not None:
            raise RuntimeError("emulation already enabled")
        self.emulation = VsaEmulation(self.sim, self.hosts, t_restart)
        for node in nodes:
            self.emulation.add_node(node)
        self.emulation.initialize()
        return self.emulation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def alive_vsa_count(self) -> int:
        return len(self.hosts) - sum(host.failed for host in self.hosts.built.values())
