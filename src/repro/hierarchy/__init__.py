"""Cluster hierarchies over tilings (§II-B)."""

from .builder import build_agglomerative_hierarchy
from .cluster import ClusterId
from .grid import GridHierarchy, grid_hierarchy
from .hierarchy import (
    ClusterHierarchy,
    ExplicitHierarchy,
    default_head,
    singleton_level_map,
)
from .params import GeometryParams, grid_params, tight_params
from .strip import StripHierarchy, strip_hierarchy, strip_params
from .validation import (
    HierarchyValidationError,
    validate_geometry,
    validate_hierarchy,
    validate_proximity,
    validate_structure,
)

__all__ = [
    "ClusterHierarchy",
    "ClusterId",
    "ExplicitHierarchy",
    "GeometryParams",
    "GridHierarchy",
    "HierarchyValidationError",
    "StripHierarchy",
    "build_agglomerative_hierarchy",
    "default_head",
    "grid_hierarchy",
    "grid_params",
    "singleton_level_map",
    "strip_hierarchy",
    "strip_params",
    "tight_params",
    "validate_geometry",
    "validate_hierarchy",
    "validate_proximity",
    "validate_structure",
]
