"""Work accounting, bound formulas, experiment runners and the report registry."""

from .accounting import WorkAccountant, WorkSnapshot
from .bounds import (
    find_time_bound,
    find_work_bound,
    grid_find_work_bound,
    grid_move_work_bound,
    move_time_bound_per_distance,
    move_work_bound_per_distance,
    search_level_for_distance,
)
from .experiments import (
    ComparisonRow,
    DitheringResult,
    FindCostResult,
    InvariantResult,
    MoveCostResult,
    mean_find_work_by_distance,
    run_baseline_comparison,
    run_dithering,
    run_find_at_distance,
    run_find_sweep,
    run_invariant_watch,
    run_move_walk,
    run_scale_probe,
)
from .parallel import (
    JobResult,
    JobSpec,
    SweepRunner,
    chaos_jobs,
    e1_jobs,
    e2_jobs,
    e8_jobs,
    job,
    scale_jobs,
    topology_keys_of,
)
from .fitting import GROWTH_MODELS, best_growth_model, fit_scale, growth_ratio
from .recovery import ChaosResult, run_chaos
from .reporting import build_report, render_table

__all__ = [
    "ChaosResult",
    "ComparisonRow",
    "DitheringResult",
    "FindCostResult",
    "JobResult",
    "JobSpec",
    "SweepRunner",
    "topology_keys_of",
    "GROWTH_MODELS",
    "InvariantResult",
    "MoveCostResult",
    "WorkAccountant",
    "WorkSnapshot",
    "best_growth_model",
    "build_report",
    "find_time_bound",
    "find_work_bound",
    "fit_scale",
    "grid_find_work_bound",
    "grid_move_work_bound",
    "growth_ratio",
    "mean_find_work_by_distance",
    "move_time_bound_per_distance",
    "move_work_bound_per_distance",
    "run_baseline_comparison",
    "run_dithering",
    "run_find_at_distance",
    "run_find_sweep",
    "run_chaos",
    "run_invariant_watch",
    "run_move_walk",
    "run_scale_probe",
    "render_table",
    "chaos_jobs",
    "e1_jobs",
    "e2_jobs",
    "e8_jobs",
    "job",
    "scale_jobs",
    "search_level_for_distance",
]

from .render import render_grid_world, render_path, render_pointer_stats  # noqa: E402
from .timeline import TimelineEntry, extract_timeline, format_timeline  # noqa: E402

__all__ += [
    "TimelineEntry",
    "extract_timeline",
    "format_timeline",
    "render_grid_world",
    "render_path",
    "render_pointer_stats",
]
