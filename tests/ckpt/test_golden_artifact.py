"""The committed golden artifact must stay loadable on HEAD.

``tests/ckpt/golden/walk-r2-M2.ckpt`` is a checkpoint of the canonical
tracked walk (r=2, MAX=2, seed=7) cut at t=25, committed to the repo.
CI restores it on every change: the format must stay readable, the
payload must pass its fingerprint, and the continuation must resume and
complete its find.  (Trace-level equality with a fresh run is *not*
asserted here — behavior-changing PRs legitimately shift traces and
regenerate the artifact; the fresh-snapshot golden tests in
``test_golden_resume.py`` enforce bit-identical resume on HEAD.)

Regenerate after an intentional behavior or format change::

    PYTHONPATH=src python -c "
    from repro.ckpt import build_tracked_walk, snapshot_scenario, save
    from repro.scenario import ScenarioConfig
    s = build_tracked_walk(ScenarioConfig(r=2, max_level=2, seed=7))
    s.sim.run_until(25.0)
    save(snapshot_scenario(s, note='tracked-walk moves=5 golden-artifact'),
         'tests/ckpt/golden/walk-r2-M2.ckpt')"
"""

from pathlib import Path

import pytest

from repro.ckpt import CKPT_SCHEMA, load, restore_scenario, walk_horizon
from repro.ckpt.snapshot import _python_tag

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
    assert "tracked-walk" in meta.note
    assert [k.kind for k in meta.topo_keys] == ["grid"]
    config = restore_scenario(snapshot).config
    assert (config.r, config.max_level, config.seed) == (2, 2, 7)


def test_artifact_python_tag_matches_ci():
    """The artifact must be regenerated when CI's Python minor moves —
    by-value code objects don't load across minors, and this test makes
    that failure a named action instead of a pickle traceback."""
    raw = ARTIFACT.read_bytes()
    assert _python_tag().encode() in raw.split(b"\n", 2)[1][:4096]


def test_artifact_restores_and_resumes(snapshot):
    scenario = restore_scenario(snapshot)
    assert scenario.sim.now == 25.0
    scenario.sim.run_until(walk_horizon(5))
    assert scenario.sim.now == walk_horizon(5)
    records = list(scenario.system.finds.records.values())
    assert len(records) == 1 and records[0].completed
    assert scenario.system.evader is not None


def test_artifact_forks_deterministically(snapshot):
    from repro.ckpt import fork_scenario, run_fingerprint

    a = fork_scenario(snapshot, 1)
    b = fork_scenario(snapshot, 1)
    a.sim.run_until(walk_horizon(5))
    b.sim.run_until(walk_horizon(5))
    assert run_fingerprint(a) == run_fingerprint(b)
