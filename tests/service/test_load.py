"""The open-loop :class:`~repro.service.LoadGenerator` workload."""

import pytest

from repro.service import ARRIVALS, LoadGenerator
from repro.service.load import BURST_GAP, BURST_SIZE
from repro.topo import shared_grid_hierarchy
from repro.workload import EvaderEnter, EvaderStep, IssueFind, Workload, materialize


@pytest.fixture(scope="module")
def tiling():
    return shared_grid_hierarchy(2, 2).tiling


def make_load(tiling, **overrides):
    kwargs = dict(
        tiling=tiling,
        n_objects=3,
        n_finds=12,
        find_clients=4,
        moves_per_object=2,
        deadline=60.0,
    )
    kwargs.update(overrides)
    return LoadGenerator(**kwargs)


class TestGeneration:
    def test_is_a_workload(self, tiling):
        assert isinstance(make_load(tiling), Workload)

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_stream_shape(self, tiling, arrival):
        load = make_load(tiling, arrival=arrival)
        actions = load.events(seed=5)
        enters = [a for a in actions if isinstance(a, EvaderEnter)]
        steps = [a for a in actions if isinstance(a, EvaderStep)]
        finds = [a for a in actions if isinstance(a, IssueFind)]
        assert len(enters) == load.n_objects
        assert len(steps) == load.n_objects * load.moves_per_object
        assert len(finds) == load.n_finds

    def test_every_object_enters_before_it_steps(self, tiling):
        actions = make_load(tiling).events(seed=5)
        entered = {}
        for action in actions:
            if isinstance(action, EvaderEnter):
                entered[action.object_id] = action.time
            elif isinstance(action, EvaderStep):
                assert action.time > entered[action.object_id]

    def test_timestamps_are_globally_unique_and_sorted(self, tiling):
        actions = materialize(make_load(tiling, n_finds=50), 3).actions
        times = [a.time for a in actions]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_find_ids_are_arrival_ordered_and_unique(self, tiling):
        finds = [
            a for a in make_load(tiling).events(seed=9)
            if isinstance(a, IssueFind)
        ]
        assert [f.find_id for f in finds] == list(
            range(1, len(finds) + 1)
        )

    def test_deadline_stamped_on_every_find(self, tiling):
        finds = [
            a for a in make_load(tiling, deadline=42.0).events(seed=1)
            if isinstance(a, IssueFind)
        ]
        assert all(f.deadline == 42.0 for f in finds)

    def test_object_ids_stay_in_range(self, tiling):
        load = make_load(tiling)
        for action in load.events(seed=13):
            if isinstance(action, IssueFind):
                assert 0 <= action.object_id < load.n_objects

    def test_client_pool_bounds_find_origins(self, tiling):
        load = make_load(tiling, find_clients=2, n_finds=30)
        origins = {
            a.origin for a in load.events(seed=4)
            if isinstance(a, IssueFind)
        }
        assert len(origins) <= 2


class TestDeterminism:
    def test_pure_function_of_seed(self, tiling):
        load = make_load(tiling)
        assert load.events(seed=7) == load.events(seed=7)
        assert load.events(seed=7) != load.events(seed=8)

    def test_materialize_round_trips(self, tiling):
        load = make_load(tiling)
        script = materialize(load, 7)
        assert materialize(script, 7) == script
        assert script.horizon == max(a.time for a in script.actions)


class TestArrivalProcesses:
    def test_burst_groups_arrivals(self, tiling):
        load = make_load(tiling, arrival="burst", n_finds=3 * BURST_SIZE)
        finds = [
            a for a in load.events(seed=2) if isinstance(a, IssueFind)
        ]
        # Three volleys: each spans < 1 time unit while consecutive
        # volleys are BURST_GAP apart.
        volleys = [finds[i : i + BURST_SIZE] for i in range(0, 3 * BURST_SIZE, BURST_SIZE)]
        for volley in volleys:
            assert volley[-1].time - volley[0].time < 1.0
        assert volleys[1][0].time - volleys[0][0].time >= BURST_GAP - 1.0

    def test_uniform_spacing(self, tiling):
        load = make_load(tiling, arrival="uniform", n_finds=8)
        finds = [
            a for a in load.events(seed=2) if isinstance(a, IssueFind)
        ]
        gaps = [b.time - a.time for a, b in zip(finds, finds[1:])]
        assert max(gaps) - min(gaps) < 1.0  # only the uniqueness nudge

    def test_unknown_arrival_rejected(self, tiling):
        with pytest.raises(ValueError):
            make_load(tiling, arrival="thundering-herd")

    def test_degenerate_counts_rejected(self, tiling):
        with pytest.raises(ValueError):
            make_load(tiling, n_objects=0)
        with pytest.raises(ValueError):
            make_load(tiling, find_clients=0)

    @pytest.mark.parametrize("bad", [
        {"rate": 0.0}, {"rate": -1.0}, {"rate": float("nan")}, {"n_finds": -1},
        {"moves_per_object": -1}, {"dwell": float("nan")}, {"dwell": 0.0},
    ])
    def test_out_of_range_shape_rejected(self, tiling, bad):
        # rate=0 used to die in expovariate (ZeroDivisionError), rate<0 to
        # schedule finds before the warm-up, at negative sim times.
        with pytest.raises(ValueError):
            make_load(tiling, **bad)
