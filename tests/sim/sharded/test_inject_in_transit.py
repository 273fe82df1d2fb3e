"""A cross-shard copy is in flight in its receiving replica from injection on.

``ShardContext.inject`` registers each copy with the receiving world's
C-gcast (``CGcast.remote_copy``) when it schedules the delivery, so
after each window's injections the replicas' ``in_transit()`` lists,
summed, are the plain engine's at the same instant (the window's start,
where every earlier event has run on both sides).
"""

from collections import Counter

from repro.sim.sharded import walk_scenario
from repro.sim.sharded.context import ShardContext
from repro.sim.sharded.core import SerialTransport, ShardedSimulator, _tiling_for
from repro.sim.sharded.plan import strip_plan


def _listed(context):
    return Counter(
        (str(src), str(dest), repr(payload), when)
        for src, dest, payload, when in context.system.cgcast.in_transit()
    )


def test_replicas_in_transit_sum_to_the_plain_engines_after_each_injection(monkeypatch):
    config, script = walk_scenario(2, 3, shards=2, seed=11)
    cuts = []

    def step_all(self, barrier, inboxes):
        for context, inbox in zip(self.contexts, inboxes):
            context.inject(inbox)
        # The replicas stand at the last barrier, every earlier event run.
        now = {context.sim.now for context in self.contexts}
        cuts.append((*now, sum(map(_listed, self.contexts), Counter())))
        return [context.step(barrier, []) for context in self.contexts]

    monkeypatch.setattr(SerialTransport, "step_all", step_all)
    record = ShardedSimulator(config, script, backend="serial").run()
    assert record.shards == 2 and record.cross_shard_messages > 0

    plain_config = config.with_(shards=1)
    plain = ShardContext(plain_config, strip_plan(_tiling_for(plain_config), 1), 0, script)
    busy = 0
    for now, summed in cuts:
        plain.sim.run_window(now)
        assert summed == _listed(plain), now
        busy += bool(summed)
    assert busy > len(cuts) // 2
    plain.sim.run()
    assert _listed(plain) == Counter()
