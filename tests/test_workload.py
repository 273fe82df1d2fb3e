"""The script vocabulary: what a valid script is, and which scripts the
generators emit.

The pins are ``crc32(repr(actions))`` of each generator's materialized
script, recorded before the generators stopped sorting and shared one
stagger: each fails if a draw, a stagger, a nudge or a sort moved.
"""

import zlib
from math import inf, nan

import pytest

from repro.mobility.gen import GeneratedWalk, preset_names
from repro.scenario import ScenarioConfig
from repro.service import LoadGenerator
from repro.sim.sharded import walk_scenario
from repro.sim.sharded.core import _tiling_for
from repro.workload import (
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    ScriptError,
    materialize,
)

#: ``repro mobility``'s defaults: r=2, MAX=2, seed 11, 8 moves, 4 finds.
MOBILITY_PINS = {
    "commute": "71201e36",
    "convoy-line": "d90a7b69",
    "convoy-patrol": "bf741ce7",
    "dither": "c36cadae",
    "gauntlet": "b184a7b8",
    "hotspot-churn": "7e15b179",
    "mixed-walk-dither": "43bf1843",
    "obstacle-walk": "39be5a98",
    "phased": "38bbece8",
    "uniform-walk": "31e514f0",
    "waypoint-patrol": "ecc632c9",
    "waypoint-slow-legs": "1d3f7e1e",
}


def _crc(script):
    return f"{zlib.crc32(repr(script.actions).encode()):08x}"


def _service(arrival):
    """``repro gen service``'s defaults (seed 7, M=6, 40 finds, 4 clients)."""
    config = ScenarioConfig(r=2, max_level=2, seed=7, n_objects=6, find_clients=4)
    return LoadGenerator(
        tiling=_tiling_for(config), n_objects=6, n_finds=40, find_clients=4,
        arrival=arrival, rate=1.0, moves_per_object=2, deadline=60.0,
    ), 7


def _mobility(name, n_objects=1):
    return GeneratedWalk(r=2, max_level=2, mobility=name, n_moves=8,
                         n_finds=4, n_objects=n_objects), 11


CASES = {
    "walk": (lambda: (walk_scenario()[1], 0), "d25ee685"),
    "service-poisson": (lambda: _service("poisson"), "ce65f7b1"),
    "service-burst": (lambda: _service("burst"), "7d314e02"),
    "service-uniform": (lambda: _service("uniform"), "d63dcecc"),
    "mobility-uniform-walk-3-objects": (
        lambda: _mobility("uniform-walk", n_objects=3), "2c3981f4"
    ),
    **{
        f"mobility-{name}": (lambda name=name: _mobility(name), pin)
        for name, pin in MOBILITY_PINS.items()
    },
}


def test_every_preset_is_pinned():
    assert sorted(MOBILITY_PINS) == sorted(preset_names())


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_generator_emits_its_pinned_script(case):
    make, pin = CASES[case]
    workload, seed = make()
    script = materialize(workload, seed)
    assert _crc(script) == pin
    assert script.horizon == script.actions[-1].time


@pytest.mark.parametrize("actions, index, why", [
    ((EvaderEnter(0.0, (0, 0)), "enter"), 1, "not a script action"),
    ((EvaderEnter(nan, (0, 0)),), 0, "finite time"),
    ((EvaderEnter(inf, (0, 0)),), 0, "finite time"),
    ((EvaderEnter(-1.0, (0, 0)),), 0, "finite time"),
    ((EvaderEnter(5.0, (0, 0)), IssueFind(4.0, (1, 1), 1)), 1, "finite time >= 5.0"),
    ((IssueFind(0.0, (1, 1), 1), EvaderStep(1.0, (0, 1))), 1, "before it enters"),
    ((EvaderEnter(0.0, (0, 0), 3), EvaderStep(1.0, (0, 1))), 1, "before it enters"),
    ((EvaderEnter(0.0, (0, 0)), EvaderEnter(1.0, (0, 1))), 1, "a second time"),
], ids=["not-an-action", "nan", "inf", "negative", "backwards",
        "step-first", "other-object", "enter-twice"])
def test_an_invalid_script_cannot_be_built(actions, index, why):
    with pytest.raises(ScriptError, match=why) as refused:
        ScriptedWorkload(actions=actions, horizon=10.0)
    assert refused.value.index == index


def test_a_find_may_precede_its_objects_enter():
    script = ScriptedWorkload.of([EvaderEnter(5.0, (0, 0)), IssueFind(1.0, (1, 1), 1)])
    assert [type(a) for a in script.actions] == [IssueFind, EvaderEnter]
    assert script.horizon == 5.0


def test_materialize_returns_a_script_as_it_is():
    workload, seed = _service("poisson")
    script = materialize(workload, seed)
    assert materialize(script) is script
    assert materialize(script, seed + 1) is script
    # A generator still goes through the one stable sort and horizon.
    assert script == ScriptedWorkload.of(workload.events(seed))
    again = materialize(workload, seed)
    assert again == script and again is not script


#: One action of each kind, and their encoding in a run file's payload.
ONE_OF_EACH = ScriptedWorkload.of([
    EvaderEnter(0.0, (0, 0)),
    EvaderStep(1.5, (0, 1)),
    IssueFind(2.25, (1, 1), 7, deadline=30.0),
])
ONE_OF_EACH_JSON = (
    b'"scripts":[{"ScriptedWorkload":{"actions":['
    b'{"EvaderEnter":{"object_id":0,"region":[0,0],"time":0.0}},'
    b'{"EvaderStep":{"object_id":0,"target":[0,1],"time":1.5}},'
    b'{"IssueFind":{"deadline":30.0,"find_id":7,"object_id":0,"origin":[1,1],"time":2.25}}'
    b'],"horizon":2.25}}]}'
)


def test_script_actions_are_slotted_and_encode_as_before():
    import pickle

    from repro.workload import decode_inputs, encode_inputs

    config = ScenarioConfig(r=2, max_level=2)
    payload = encode_inputs(config, (ONE_OF_EACH,))
    assert payload.endswith(ONE_OF_EACH_JSON)
    assert decode_inputs(payload) == (config, (ONE_OF_EACH,))
    for action in ONE_OF_EACH.actions:
        assert not hasattr(action, "__dict__")
        copy = pickle.loads(pickle.dumps(action))
        assert copy == action and hash(copy) == hash(action)
        assert repr(copy) == repr(action)
        with pytest.raises(AttributeError):
            action.time = 9.0
    assert pickle.loads(pickle.dumps(ONE_OF_EACH)) == ONE_OF_EACH
