"""The committed golden artifact must stay loadable on HEAD.

``tests/ckpt/golden/walk-r2-M2.ckpt`` is a checkpoint of the scripted
walk (r=2, MAX=2, seed=7, five moves) cut at t=25, committed to the
repo.  CI restores it on every change: the format must stay readable,
the file must pass its digest, the replay must reach the recorded run
fingerprint at the cut, and the continuation must complete its finds.
A change to what the walk does moves that fingerprint, so the artifact
is refused at its cut and must be regenerated::

    PYTHONPATH=src python -c "
    from repro.ckpt import save, snapshot_scenario
    from repro.scenario import build
    from repro.sim.sharded import walk_scenario
    from repro.workload import schedule_workload
    config, script = walk_scenario(2, 2, shards=1, n_moves=5, seed=7)
    s = build(config)
    schedule_workload(s.system, script)
    s.sim.run_until(25.0)
    save(snapshot_scenario(s, note='walk moves=5 golden-artifact'),
         'tests/ckpt/golden/walk-r2-M2.ckpt')"
"""

import pickle
from pathlib import Path

import pytest

from repro.ckpt import CKPT_SCHEMA, load, restore_scenario

ARTIFACT = Path(__file__).parent / "golden" / "walk-r2-M2.ckpt"


@pytest.fixture(scope="module")
def snapshot():
    if not ARTIFACT.exists():
        pytest.fail(f"committed golden artifact missing: {ARTIFACT}")
    try:
        return load(ARTIFACT)
    except Exception as exc:  # a readable failure message in CI
        pytest.fail(f"committed golden artifact no longer loads: {exc}")


def test_meta_matches_the_committed_workload(snapshot):
    meta = snapshot.meta
    assert meta.schema == CKPT_SCHEMA
    assert meta.sim_time == 25.0
    assert meta.events_fired > 0
    assert "walk moves=5" in meta.note
    config = restore_scenario(snapshot).config
    assert (config.r, config.max_level, config.seed) == (2, 2, 7)


def test_artifact_restores_and_resumes(snapshot):
    scenario = restore_scenario(snapshot)
    assert scenario.sim.now == 25.0
    scenario.sim.run()
    records = list(scenario.system.finds.records.values())
    assert len(records) == 4 and all(record.completed for record in records)
    assert scenario.system.evader is not None


def test_artifact_loads_and_restores_without_unpickling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint was unpickled")

    monkeypatch.setattr(pickle, "loads", refuse)
    monkeypatch.setattr(pickle, "Unpickler", refuse)
    assert restore_scenario(load(ARTIFACT)).sim.now == 25.0
