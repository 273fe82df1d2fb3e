"""The node deployment of the emulated regime.

:func:`per_region_density` places a :class:`~repro.physical.node.PhysicalNode`
fleet over a tiling, the same count in every region, so every VSA is
emulatable from the start.
"""

from __future__ import annotations

from typing import List

from ..geometry.tiling import Tiling
from .node import PhysicalNode


def per_region_density(tiling: Tiling, nodes_per_region: int) -> List[PhysicalNode]:
    """Exactly ``nodes_per_region`` nodes in every region, ids from 0 in
    ``tiling.regions()`` order."""
    if nodes_per_region < 0:
        raise ValueError("nodes_per_region must be non-negative")
    return [
        PhysicalNode(index * nodes_per_region + k, tiling, region)
        for index, region in enumerate(tiling.regions())
        for k in range(nodes_per_region)
    ]
