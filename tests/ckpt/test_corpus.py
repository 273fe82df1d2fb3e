"""The run-file corpus: every file replays as recorded and is K-invariant.

A run file is a ``ckpt/6`` checkpoint holding one script; ``repro
sharded`` and ``repro bisect`` run it from t=0.  ``tests/corpus`` holds
two, both written by ``python -m repro snapshot --at 0 --max-level 3
--seed 11 --moves 8 --finds 4`` (``walk-faulty.ckpt`` adds ``--loss 0.1
--jitter 0.3``); the committed golden artifact is the third input.  A
change to what the walk does moves their recorded fingerprints: rerun
those commands to regenerate them.
"""

from pathlib import Path

import pytest

from repro.ckpt import load, read_run, restore_scenario
from repro.service import cross_check
from tests.sim.sharded.test_sharded_golden import FAULTY_CANONICAL, WALK_CANONICAL

TESTS = Path(__file__).resolve().parent.parent
RUN_FILES = [
    *sorted((TESTS / "corpus").glob("*.ckpt")),
    TESTS / "ckpt" / "golden" / "walk-r2-M2.ckpt",
]
#: The corpus walks are the sharded goldens' walks, so they share pins.
CANONICAL = {"walk.ckpt": WALK_CANONICAL, "walk-faulty.ckpt": FAULTY_CANONICAL}


def test_the_pinned_walks_are_in_the_corpus():
    assert set(CANONICAL) <= {path.name for path in RUN_FILES}


@pytest.mark.parametrize("path", RUN_FILES, ids=lambda path: path.name)
def test_a_run_file_replays_and_matches_at_two_shards(path):
    # Restore replays to the cut and refuses unless the run fingerprint
    # recorded in the header is reproduced.
    snapshot = load(path)
    assert restore_scenario(snapshot).sim.events_fired == snapshot.meta.events_fired
    config, script = read_run(path)
    plain, sharded, match = cross_check(config.with_(shards=2), script)
    assert match is True, (plain.canonical_fingerprint, sharded.canonical_fingerprint)
    if path.name in CANONICAL:
        assert sharded.canonical_fingerprint == CANONICAL[path.name]
