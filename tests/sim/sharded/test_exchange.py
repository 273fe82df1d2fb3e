"""The cross-shard exchange: flat rows, one batch per destination shard.

A copy bound for a foreign shard is packed as a row ``(deliver_time,
send_time, seq, tags, src, dest, class, *field values)``, a cluster id
as its index in ``hierarchy.all_clusters()``, flagged in ``tags`` —
never recognised by type: a strip world's region ids are ints, like the
indices.  Only the receiving shard decodes a row, into its own cluster
instances.  Checked here: every row of a run decodes to what was sent;
every message class round-trips; a strip world runs the same on two
shards; a payload without a flat form and a row due before the
receiver's clock fail closed, on both backends.
"""

import pickle
import sys
from dataclasses import fields
from unittest import mock

import pytest

from repro.core.messages import (
    Find,
    FindAck,
    FindQuery,
    Found,
    Grow,
    GrowNbr,
    GrowPar,
    Prewarm,
    Shrink,
    ShrinkUpd,
    TrackerMessage,
)
from repro.geometry.tiling import line_tiling
from repro.hierarchy.cluster import ClusterId
from repro.hierarchy.grid import grid_hierarchy
from repro.hierarchy.strip import StripHierarchy
from repro.scenario import ScenarioConfig
from repro.service import cross_check
from repro.sim.sharded import (
    ShardContext,
    ShardedRunError,
    ShardedSimulator,
    make_walk_workload,
    run_script,
)
from repro.sim.sharded.core import _tiling_for
from repro.sim.sharded.plan import strip_plan
from repro.stabilization import Heartbeat, HeartbeatAck
from repro.workload import ScriptedWorkload

GRID = ScenarioConfig(r=3, max_level=2, seed=5, shards=2)
STRIP = ScenarioConfig(hierarchy=StripHierarchy(line_tiling(16), 2), seed=5, shards=2)
WORLDS = {
    "grid": GRID,
    "strip": STRIP,
    "predictive": GRID.with_(system="predictive"),
}


def walk(config, moves=8, finds=4):
    return make_walk_workload(_tiling_for(config), moves, finds, config.seed)


def clusters_of(value):
    """The cluster ids in a decoded ``src``, ``dest`` or payload."""
    if isinstance(value, ClusterId):
        return [value]
    if isinstance(value, TrackerMessage):
        return [v for f in fields(value) if isinstance(v := getattr(value, f.name), ClusterId)]
    return []


def assert_own(context, *values):
    own = {c: c for c in context.scenario.hierarchy.all_clusters()}
    for value in values:
        for cid in clusters_of(value):
            assert own[cid] is cid, f"{cid!r} is not the receiver's instance"


def exchanged(config, workload):
    """Run K=2 serially; return ``[(claimed, decoded)]`` for every row.

    ``claimed`` is what the router packed, ``decoded`` what the
    destination shard's codec makes of the row, both as ``(deliver_time,
    send_time, src, dest, payload)``.
    """
    sim = ShardedSimulator(config, workload, "serial")
    claims = {}
    pairs = []
    route = ShardContext._route_cgcast

    def recording_route(ctx, src, dest, payload, deliver_time):
        claimed = route(ctx, src, dest, payload, deliver_time)
        if claimed:
            claims[ctx.shard_id, ctx._seq] = (deliver_time, ctx.sim.now, src, dest, payload)
        return claimed

    make = sim._make_transport

    def make_transport():
        transport = make()
        step_all = transport.step_all

        def recording_step_all(barrier, inboxes):
            replies = step_all(barrier, inboxes)
            for shard, (outbox, _, _) in enumerate(replies):
                for dest_shard, (earliest, count, rows) in outbox.items():
                    assert dest_shard != shard
                    assert (earliest, count) == (min(row[0] for row in rows), len(rows))
                    receiver = transport.contexts[dest_shard]
                    for row in rows:
                        deliver, send, seq, src, dest, payload = receiver._decode(row)
                        assert_own(receiver, src, dest, payload)
                        claimed = claims.pop((shard, seq))
                        pairs.append((claimed, (deliver, send, src, dest, payload)))
            return replies

        transport.step_all = recording_step_all
        return transport

    sim._make_transport = make_transport
    with mock.patch.object(ShardContext, "_route_cgcast", recording_route):
        result = sim.run()
    assert claims == {} and len(pairs) == result.cross_shard_messages > 0
    return pairs


@pytest.mark.parametrize("world", WORLDS)
def test_every_row_decodes_to_what_was_sent(world):
    pairs = exchanged(WORLDS[world], walk(WORLDS[world]))
    for claimed, decoded in pairs:
        assert decoded == claimed
        assert type(decoded[2]) is type(claimed[2])  # src: a region is never a cluster
    kinds = {type(claimed[4]) for claimed, _ in pairs}
    assert {Grow, Find, Found} <= kinds
    if world == "predictive":
        assert Prewarm in kinds


def _shipped_payloads():
    """The package's TrackerMessage classes (``slots=True`` leaves each
    class's pre-slots draft among the subclasses too: skip those)."""
    seen, todo = set(), [TrackerMessage]
    while todo:
        for sub in todo.pop().__subclasses__():
            module = sys.modules[sub.__module__]
            if sub.__module__.startswith("repro.") and getattr(module, sub.__name__) is sub:
                seen.add(sub)
                todo.append(sub)
    return seen


@pytest.mark.parametrize("world", ["grid", "strip"])
def test_every_message_class_round_trips_into_the_receivers_instances(world):
    config = WORLDS[world]
    if world == "grid":  # a hierarchy the topo cache never saw: not shared
        config = config.with_(hierarchy=grid_hierarchy(3, 2))
    plan = strip_plan(_tiling_for(config), 2)
    idle = ScriptedWorkload((), 0.0)
    sender = ShardContext(config, plan, 0, idle)
    receiver = ShardContext(pickle.loads(pickle.dumps(config)), plan, 1, idle)
    hierarchy = sender.scenario.hierarchy
    assert hierarchy is not receiver.scenario.hierarchy
    cgcast = sender.system.cgcast
    mine = plan.owned_set(0)
    # A shard-0 region beside a shard-1 one, their level-0 clusters, and
    # clusters at every level (any is a valid payload field).
    near, far = next(
        (u, v) for u in sorted(mine) for v in hierarchy.tiling.neighbors(u) if v not in mine
    )
    src, dest = hierarchy.cluster(near, 0), hierarchy.cluster(far, 0)
    up = hierarchy.cluster(far, 1)
    sends = [
        (cgcast.send_vsa, src, dest, Grow(cid=src, object_id=3)),
        (cgcast.send_vsa, src, dest, GrowNbr(cid=src)),
        (cgcast.send_vsa, src, dest, GrowPar(cid=up, object_id=1)),
        (cgcast.send_vsa, src, dest, Shrink(cid=src)),
        (cgcast.send_vsa, src, dest, ShrinkUpd(cid=src, object_id=2)),
        (cgcast.send_vsa, src, dest, Find(cid=None, find_id=4)),
        (cgcast.send_vsa, src, dest, Find(cid=src, find_id=5, object_id=1)),
        (cgcast.send_vsa, src, dest, FindQuery(cid=src, find_id=6)),
        (cgcast.send_vsa, src, dest, FindAck(pointer=up, find_id=6, object_id=2)),
        (cgcast.send_vsa, src, dest, Prewarm(cid=up, expiry=12.375, object_id=1)),
        (cgcast.send_vsa, src, dest, Heartbeat(cid=src)),
        (cgcast.send_vsa, src, dest, HeartbeatAck(cid=up)),
        (cgcast.send_from_client, near, dest, Grow(cid=dest)),
        (cgcast.send_from_client, near, dest, Shrink(cid=dest, object_id=1)),
        (cgcast.send_from_client, near, dest, Find(cid=None, find_id=7)),
    ]
    for send, sender_id, to, payload in sends:
        send(sender_id, to, payload)
    cgcast.send_to_clients(dest, Found(find_id=8, object_id=1))
    expected = [(sender_id, to, payload) for _, sender_id, to, payload in sends]
    expected.append((dest, ("clients", far), Found(find_id=8, object_id=1)))
    assert {type(payload) for _, _, payload in expected} == _shipped_payloads()

    outbox, _, _ = sender.step(0.0, [])
    _, count, rows = outbox[1]
    assert count == len(expected) and list(outbox) == [1]
    decoded = [receiver._decode(row)[3:] for row in rows]
    assert decoded == expected
    for (src_id, to, payload), (want_src, _, _) in zip(decoded, expected):
        assert type(src_id) is type(want_src)
        assert_own(receiver, src_id, to, payload)
        if isinstance(to, ClusterId):
            assert receiver.system.cgcast.processes[to] is not None
    assert decoded[9][2].expiry == 12.375


def test_a_single_shard_builds_no_codec():
    context = ShardContext(GRID.with_(shards=1), strip_plan(_tiling_for(GRID), 1), 0, walk(GRID))
    assert context.system.cgcast.shard_router is None
    assert not hasattr(context, "_clusters")


def test_a_payload_without_a_flat_form_is_refused_at_pack_time():
    plan = strip_plan(_tiling_for(GRID), 2)
    sender = ShardContext(GRID, plan, 0, ScriptedWorkload((), 0.0))
    hierarchy = sender.scenario.hierarchy
    dest = next(c for c in hierarchy.clusters_at_level(0) if plan.shard_of(hierarchy.head(c)) == 1)
    src = hierarchy.clusters_at_level(0)[0]
    for payload, name in (("hello", "str"), (object(), "object")):
        with pytest.raises(ShardedRunError, match=f"cannot ship a {name} payload"):
            sender.system.cgcast.send_vsa(src, dest, payload)


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_a_strip_world_runs_the_same_on_two_shards(backend):
    plain, sharded, match = cross_check(STRIP, walk(STRIP), backend=backend)
    assert match and sharded.backend == backend
    assert sharded.cross_shard_messages > 0
    assert sharded.finds_completed == plain.finds_completed > 0


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_a_row_due_before_the_receivers_clock_is_refused(backend):
    route = ShardContext._route_cgcast

    def early_route(ctx, src, dest, payload, deliver_time):
        return route(ctx, src, dest, payload, deliver_time - 3 * GRID.delta)

    pattern = (r"shard \d got a cross-shard \w+ .+ -> .+ sent at [\d.]+ and due "
               r"at -?[\d.]+, before the barrier at [\d.]+")
    with mock.patch.object(ShardContext, "_route_cgcast", early_route):
        with pytest.raises(ShardedRunError, match=pattern):
            run_script(GRID, walk(GRID), backend)
