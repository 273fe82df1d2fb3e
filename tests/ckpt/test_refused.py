"""Run files whose script their world cannot run are refused up front.

``tests/corpus/refused`` holds crafted run files (r=2, MAX=2): the
payload JSON is written by hand and the header digest recomputed, so
each file passes :func:`~repro.ckpt.load`'s format checks and fails only
on its script.  Two scripts no world can run are refused when the
payload decodes (:class:`~repro.workload.ScriptedWorkload` is valid by
construction); two name a region outside their world and are refused by
:func:`~repro.workload.schedule_workload` — or, on the processes
backend, by the parent before any worker forks.  Either way no event
fires, the library raises :class:`~repro.workload.ScriptError` naming
the action's index, and the CLI exits 2 with one stderr line.

:func:`craft` is the recipe of every file; the first test holds the
committed bytes to it.
"""

import json
from pathlib import Path

import pytest

from repro.ckpt import Snapshot, load, save, snapshot_scenario
from repro.cli import main
from repro.scenario import ScenarioConfig, build
from repro.sim.engine import Simulator
from repro.sim.sharded import run_script
from repro.sim.sharded.worker import ProcessTransport
from repro.workload import ScriptError, decode_inputs

REFUSED = Path(__file__).resolve().parent.parent / "corpus" / "refused"
CONFIG = ScenarioConfig(r=2, max_level=2, seed=11)


def _enter(t, region):
    return {"EvaderEnter": {"object_id": 0, "region": region, "time": t}}


def _step(t, region):
    return {"EvaderStep": {"object_id": 0, "target": region, "time": t}}


def _find(t, region):
    return {"IssueFind": {"deadline": None, "find_id": 1, "object_id": 0,
                          "origin": region, "time": t}}


#: file stem -> (its script's actions, refused when, refused action, why).
FILES = {
    "step-before-enter": (
        [_step(0.0, [1, 2]), _enter(40.0, [2, 2]), _find(60.0, [0, 0])],
        "decode", 0, "steps an object before it enters",
    ),
    "enter-twice": (
        [_enter(0.0, [2, 2]), _enter(40.0, [1, 2]), _find(60.0, [0, 0])],
        "decode", 1, "enters an object a second time",
    ),
    "find-off-world": (
        [_enter(0.0, [2, 2]), _step(40.0, [2, 1]), _find(60.0, [7, 7])],
        "schedule", 2, "outside the world",
    ),
    "enter-off-world": (
        [_enter(0.0, [9, 9]), _find(20.0, [0, 0])],
        "schedule", 0, "outside the world",
    ),
}


def craft(name) -> Snapshot:
    """``FILES[name]`` as a run file: a fresh CONFIG world's snapshot with
    the script's JSON in its payload (``save`` recomputes the digest)."""
    fresh = snapshot_scenario(build(CONFIG), note=f"crafted: {name}")
    document = json.loads(fresh.payload)
    actions = FILES[name][0]
    horizon = actions[-1]["IssueFind"]["time"]
    document["scripts"] = [
        {"ScriptedWorkload": {"actions": actions, "horizon": horizon}}
    ]
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return Snapshot(fresh.meta, payload.encode())


@pytest.fixture
def no_event_fires(monkeypatch):
    """Fail any run that reaches an event loop or forks a worker."""
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(Simulator, "_loop", refuse)
    monkeypatch.setattr(ProcessTransport, "__init__", refuse)


@pytest.mark.parametrize("name", sorted(FILES))
def test_the_committed_file_is_its_recipe(name, tmp_path):
    crafted = tmp_path / "crafted.ckpt"
    save(craft(name), crafted)
    assert (REFUSED / f"{name}.ckpt").read_bytes() == crafted.read_bytes()
    assert sorted(p.stem for p in REFUSED.glob("*.ckpt")) == sorted(FILES)


@pytest.mark.parametrize("backend", ["plain", "serial", "processes"])
@pytest.mark.parametrize("name", sorted(FILES))
def test_the_library_refuses_before_the_first_event(name, backend, no_event_fires):
    _, when, index, why = FILES[name]
    payload = load(REFUSED / f"{name}.ckpt").payload
    with pytest.raises(ScriptError, match=why) as refused:
        config, (script,) = decode_inputs(payload)
        assert when == "schedule"
        run_script(config.with_(shards=2), script, backend)
    assert refused.value.index == index
    assert str(refused.value).startswith(f"script action {index} ")


@pytest.mark.parametrize("argv", [
    ("run", "{}", "--shards", "2"),
    ("run", "{}", "--shards", "2", "--backend", "processes"),
    ("run", "{}"),
    ("bisect", "{}", "{}"),
], ids=["sharded", "sharded-processes", "resume", "bisect"])
@pytest.mark.parametrize("name", sorted(FILES))
def test_the_cli_exits_2_with_one_line(name, argv, capsys, no_event_fires):
    path = str(REFUSED / f"{name}.ckpt")
    capsys.readouterr()
    assert main([arg.format(path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    _, when, index, why = FILES[name]
    assert out == "" and err.count("\n") == 1
    assert f"script action {index} " in err and why in err
