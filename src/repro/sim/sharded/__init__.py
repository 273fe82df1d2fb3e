"""Region-sharded conservative PDES core (`repro.sim.sharded`).

Partitions the grid hierarchy into K region shards, runs each shard's
event loop independently (in-process or in forked workers), and
exchanges boundary-crossing C-gcast traffic at conservative
δ-width time barriers, injected in a canonical order — seed-deterministic
regardless of worker scheduling, with a bit-identical K=1 mode.

See DESIGN.md §8 for the barrier protocol and determinism argument.
"""

from .context import ShardContext, canonical_send_line
from .core import (
    RunRecord,
    ShardedRunError,
    ShardedSimulator,
    canonical_fingerprint,
    run_script,
)
from .plan import ShardPlan, strip_plan
from .workload import make_walk_workload, walk_scenario

__all__ = [
    "RunRecord",
    "ShardContext",
    "ShardPlan",
    "ShardedRunError",
    "ShardedSimulator",
    "canonical_fingerprint",
    "canonical_send_line",
    "make_walk_workload",
    "run_script",
    "strip_plan",
    "walk_scenario",
]
