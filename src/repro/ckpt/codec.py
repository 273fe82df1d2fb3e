"""Graph serialization for checkpoints (cloudpickle + topo references).

A simulation checkpoint must capture closures: the event queue holds
lambdas and bound methods whose cells reference trackers, injectors and
evaders.  Plain :mod:`pickle` refuses lambdas, so the codec pickles with
:mod:`cloudpickle` — function objects travel by value, and the pickle
memo keeps every shared object (the simulator, the trace, each tracker)
a single instance in the restored graph.

On top of that, the codec teaches the pickler about the content-addressed
topology layer: a hierarchy (or its tiling) that lives in the per-process
:class:`~repro.topo.cache.TopologyCache` is written as a **persistent
reference** — its :class:`~repro.topo.keys.TopologyKey` — instead of by
value.  Restoring resolves the key through the restoring process's own
cache, rebuilding on a cold cache.  That keeps payloads small and, more
importantly, never re-serializes the precomputed route tables and
distance rows riding on cached tilings: they are derived data the
target process can recompute (or already has).

Hierarchies handed in explicitly (``ScenarioConfig(hierarchy=...)``) are
not cache content and fall back to by-value serialization.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Dict, List, Optional, Tuple

import cloudpickle

from ..topo import topology_cache
from ..topo.keys import TopologyKey


class CkptCodecError(RuntimeError):
    """Raised when a checkpoint payload cannot be encoded or decoded."""


def _cache_identity_map() -> Dict[int, Tuple[str, TopologyKey]]:
    """Map ``id(object) -> persistent tag`` for every cached topology.

    Both the hierarchy object and its tiling get a tag: simulation
    components reference either (routers hold the tiling directly), and
    intercepting the tiling is what keeps its ``_repro_route_table`` /
    ``_repro_distance_table`` memo attributes out of the payload.
    """
    mapping: Dict[int, Tuple[str, TopologyKey]] = {}
    for key, hierarchy in topology_cache()._hierarchies.items():
        mapping[id(hierarchy)] = ("hierarchy", key)
        tiling = getattr(hierarchy, "tiling", None)
        if tiling is not None:
            mapping[id(tiling)] = ("tiling", key)
    return mapping


class _GraphPickler(cloudpickle.CloudPickler):
    """CloudPickler emitting topo-cache persistent references."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.DEFAULT_PROTOCOL)
        self._topo_identity = _cache_identity_map()
        self.topo_keys: List[TopologyKey] = []

    def persistent_id(self, obj: Any) -> Optional[tuple]:
        tag = self._topo_identity.get(id(obj))
        if tag is None:
            return None
        kind, key = tag
        if key not in self.topo_keys:
            self.topo_keys.append(key)
        return ("repro.topo", kind, key)


class _GraphUnpickler(pickle.Unpickler):
    """Unpickler resolving topo references through the local cache."""

    def persistent_load(self, pid: tuple) -> Any:
        try:
            namespace, kind, key = pid
        except (TypeError, ValueError):  # pragma: no cover - defensive
            raise CkptCodecError(f"malformed persistent id {pid!r}") from None
        if namespace != "repro.topo" or kind not in ("hierarchy", "tiling"):
            raise CkptCodecError(f"unknown persistent id {pid!r}")
        hierarchy = topology_cache().hierarchy(key)
        return hierarchy if kind == "hierarchy" else hierarchy.tiling


def dumps_graph(graph: Any) -> Tuple[bytes, Tuple[TopologyKey, ...]]:
    """Serialize an object graph; returns ``(payload, topo_keys)``.

    ``topo_keys`` lists every topology the payload references instead of
    embedding — the restoring process needs them resolvable (its cache
    rebuilds them on demand, so the list is informational: it lets warm
    paths pre-build before restore).
    """
    buffer = io.BytesIO()
    pickler = _GraphPickler(buffer)
    try:
        pickler.dump(graph)
    except Exception as exc:
        raise CkptCodecError(f"checkpoint payload not picklable: {exc}") from exc
    return buffer.getvalue(), tuple(pickler.topo_keys)


def loads_graph(payload: bytes) -> Any:
    """Restore a :func:`dumps_graph` payload into a fresh object graph."""
    try:
        return _GraphUnpickler(io.BytesIO(payload)).load()
    except CkptCodecError:
        raise
    except Exception as exc:
        raise CkptCodecError(f"checkpoint payload corrupt: {exc}") from exc
