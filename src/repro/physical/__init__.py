"""Physical substrate: mobile nodes, GPS oracle, the dense deployment (§II-C.1)."""

from .deployment import per_region_density
from .gps import GpsOracle
from .node import NodeObserver, PhysicalNode

__all__ = [
    "GpsOracle",
    "NodeObserver",
    "PhysicalNode",
    "per_region_density",
]
