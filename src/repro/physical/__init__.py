"""Physical substrate: mobile nodes and the dense deployment (§II-C.1)."""

from .deployment import per_region_density
from .node import NodeObserver, PhysicalNode

__all__ = [
    "NodeObserver",
    "PhysicalNode",
    "per_region_density",
]
