"""The node deployment of the emulated regime.

:func:`per_region_density` places a :class:`~repro.physical.node.PhysicalNode`
fleet over a tiling, the same count in every region, so every VSA is
emulatable from the start.
"""

from __future__ import annotations

from typing import List, Optional

from ..geometry.tiling import Tiling
from ..mobility.models import MobilityModel
from ..sim.engine import Simulator
from .node import PhysicalNode


def per_region_density(
    sim: Simulator,
    tiling: Tiling,
    nodes_per_region: int,
    model: Optional[MobilityModel] = None,
    dwell: float = 1.0,
    start_id: int = 0,
) -> List[PhysicalNode]:
    """Exactly ``nodes_per_region`` nodes in every region."""
    if nodes_per_region < 0:
        raise ValueError("nodes_per_region must be non-negative")
    nodes = []
    next_id = start_id
    for region in tiling.regions():
        for _ in range(nodes_per_region):
            nodes.append(
                PhysicalNode(next_id, sim, tiling, region, model=model, dwell=dwell)
            )
            next_id += 1
    return nodes
