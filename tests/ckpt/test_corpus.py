"""The run-file corpus: every file replays as recorded and is K-invariant.

A run file is a ``ckpt/6`` checkpoint holding one script; ``repro run
FILE --shards K`` and ``repro bisect`` run it from t=0.  ``tests/corpus``
holds two, both written by ``python -m repro gen walk --max-level 3
--seed 11 --moves 8 --finds 4 --out tests/corpus/walk.ckpt``
(``walk-faulty.ckpt`` adds ``--loss 0.1 --jitter 0.3``); the committed
golden artifact is the third input.  A change to what the walk does
moves their recorded fingerprints: rerun those commands to regenerate
them.
"""

from pathlib import Path

import pytest

from repro.ckpt import load, read_run, restore_scenario
from repro.cli import main
from repro.service import cross_check
from tests.sim.sharded.test_sharded_golden import FAULTY_CANONICAL, WALK_CANONICAL

TESTS = Path(__file__).resolve().parent.parent
RUN_FILES = [
    *sorted((TESTS / "corpus").glob("*.ckpt")),
    TESTS / "ckpt" / "golden" / "walk-r2-M2.ckpt",
]
#: The corpus walks are the sharded goldens' walks, so they share pins.
CANONICAL = {"walk.ckpt": WALK_CANONICAL, "walk-faulty.ckpt": FAULTY_CANONICAL}
#: The ``repro gen walk`` flags of each corpus file.
WALK = ("--max-level", "3", "--seed", "11", "--moves", "8", "--finds", "4")
GEN_FLAGS = {"walk.ckpt": WALK, "walk-faulty.ckpt": (*WALK, "--loss", "0.1",
                                                     "--jitter", "0.3")}


def test_the_pinned_walks_are_in_the_corpus():
    assert set(CANONICAL) <= {path.name for path in RUN_FILES}


@pytest.mark.parametrize("name", sorted(GEN_FLAGS))
def test_gen_walk_writes_the_corpus_file_byte_for_byte(name, tmp_path):
    path = tmp_path / name
    assert main(["gen", "walk", *GEN_FLAGS[name], "--out", str(path)]) == 0
    assert path.read_bytes() == (TESTS / "corpus" / name).read_bytes()


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
