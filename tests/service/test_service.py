"""The :class:`~repro.service.TrackingService` front-end.

Covers the PR-7 acceptance gates at test scale:

* **Golden A/B** — an M=1 service run on the plain engine is
  bit-identical (exact trace CRC) to the pre-service single-evader
  reference path;
* **K-invariance** — multi-object service runs produce the same
  canonical fingerprint and the same sim-time metric block on the
  plain engine and the K-sharded PDES engine;
* **No cross-contamination** — per-object find records never bleed
  between lanes (hypothesis property over seeds and arrival shapes).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import ScenarioConfig
from repro.service import ARRIVALS, LoadGenerator, TrackingService
from repro.sim.sharded import run_script, walk_scenario
from repro.sim.sharded.core import _tiling_for
from repro.sim.sharded.workload import make_walk_workload
from repro.workload import IssueFind, materialize


def config(**overrides):
    kwargs = dict(r=2, max_level=2, seed=7, shards=2)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def load_for(cfg, **overrides):
    kwargs = dict(
        tiling=_tiling_for(cfg),
        n_objects=3,
        n_finds=10,
        find_clients=3,
        moves_per_object=1,
        deadline=60.0,
    )
    kwargs.update(overrides)
    return LoadGenerator(**kwargs)


class TestGoldenAB:
    def test_m1_plain_service_bit_identical_to_reference_engine(self):
        # The service path at M=1 must be *exactly* the pre-service
        # engine: same trace, byte for byte (exact CRC, not just the
        # order-insensitive canonical fingerprint).
        cfg = config(r=2, max_level=3, seed=11, shards=1)
        walk = make_walk_workload(_tiling_for(cfg), 8, 4, seed=cfg.seed)
        service = TrackingService(cfg, engine="plain").run(walk)
        reference = run_script(*walk_scenario(
            r=2, max_level=3, shards=1, n_moves=8, n_finds=4, seed=11
        ), "plain")
        assert service.exact_fingerprint == reference.exact_fingerprint
        assert service.canonical_fingerprint == reference.canonical_fingerprint
        assert service.finds_issued == reference.finds_issued
        assert service.finds_completed == reference.finds_completed

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            TrackingService(config(), engine="quantum")


class TestKInvariance:
    @pytest.fixture(scope="class")
    def runs(self):
        cfg = config()
        load = load_for(cfg)
        return (
            TrackingService(cfg, engine="plain").run(load),
            TrackingService(cfg, engine="sharded").run(load),
        )

    def test_fingerprints_match_across_engines(self, runs):
        plain, sharded = runs
        assert sharded.shards == 2
        assert plain.canonical_fingerprint == sharded.canonical_fingerprint

    def test_metric_blocks_identical_across_engines(self, runs):
        plain, sharded = runs
        assert plain.metrics == sharded.metrics
        assert plain.finds == sharded.finds
        assert plain.handovers == sharded.handovers

    def test_seed_determinism(self):
        cfg = config()
        load = load_for(cfg)
        a = TrackingService(cfg, engine="sharded").run(load)
        b = TrackingService(cfg, engine="sharded").run(load)
        assert a.canonical_fingerprint == b.canonical_fingerprint
        assert a.metrics == b.metrics

    def test_seed_override_changes_the_run(self):
        cfg = config()
        load = load_for(cfg)
        service = TrackingService(cfg, engine="plain")
        assert (
            service.run(load, seed=7).canonical_fingerprint
            != service.run(load, seed=8).canonical_fingerprint
        )

    def test_metrics_complete_and_sane(self, runs):
        plain, _ = runs
        metrics = plain.metrics
        assert metrics["finds_issued"] == 10
        assert 0 < metrics["finds_completed"] <= 10
        assert metrics["deadlines_set"] == 10
        latency = metrics["latency"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert metrics["handovers_total"] > 0


class TestNoCrossContamination:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        arrival=st.sampled_from(ARRIVALS),
    )
    def test_find_records_stay_in_their_lane(self, seed, arrival):
        # Every find record must carry exactly the object id, issue
        # time and deadline its scripted arrival assigned — no record
        # may be attributed to another lane, duplicated or dropped from
        # the bookkeeping, whatever the seed or arrival shape.
        cfg = config(seed=seed)
        load = load_for(cfg, arrival=arrival, n_finds=6)
        script = materialize(load, seed)
        issued = {
            a.find_id: a for a in script.actions if isinstance(a, IssueFind)
        }
        result = TrackingService(cfg, engine="plain").run(load, seed=seed)
        assert set(result.finds) == set(issued)
        for find_id, record in result.finds.items():
            action = issued[find_id]
            assert record["object_id"] == action.object_id
            assert record["issued_at"] == pytest.approx(action.time)
            assert record["deadline"] == action.deadline
            if record["completed"]:
                assert record["latency"] >= 0.0
        per_object = {}
        for find_id, record in result.finds.items():
            per_object.setdefault(record["object_id"], set()).add(find_id)
        # The per-object partition covers every find exactly once.
        assert sorted(
            fid for ids in per_object.values() for fid in ids
        ) == sorted(issued)
