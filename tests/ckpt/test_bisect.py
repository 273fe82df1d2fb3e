"""Divergence bisection: the report must pinpoint the first split.

Ground truth for the seeded case is computed here the slow way — two
full runs, first differing trace-affecting event by index — and
:func:`repro.ckpt.bisect_divergence` must land on exactly that event
while doing only windowed comparisons plus one checkpoint replay.
"""

import zlib

import pytest

from repro.ckpt import Variant, bisect_divergence, build_tracked_walk, walk_horizon
from repro.ckpt.bisect import _first_mismatch
from repro.scenario import ScenarioConfig

CONFIG = ScenarioConfig(r=2, max_level=2, seed=7)


def _event_crcs(config):
    """Per-event rolling CRCs of a full run (the reference sequence)."""
    scenario = build_tracked_walk(config)
    sim = scenario.sim
    crcs, crc, seen = [], 0, 0
    while sim.step(until=walk_horizon(5)):
        crc = zlib.crc32(repr(sim.now).encode(), crc)
        records = list(sim.trace)
        for rec in records[seen:]:
            crc = zlib.crc32(
                repr((rec.time, rec.source, rec.kind, rec.detail)).encode(), crc
            )
        seen = len(records)
        crcs.append(crc)
    return crcs


class TestFirstMismatch:
    def test_binary_search_matches_linear_scan(self):
        a = [1, 2, 3, 9, 9, 9]
        b = [1, 2, 3, 4, 5, 6]
        assert _first_mismatch(a, b, 6) == 3

    def test_mismatch_at_zero(self):
        assert _first_mismatch([7, 8], [1, 8], 2) == 0

    def test_mismatch_at_end(self):
        assert _first_mismatch([1, 2, 3], [1, 2, 4], 3) == 2


class TestBisect:
    def test_identical_variants_report_no_divergence(self):
        report = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("base"), window=32
        )
        assert not report.diverged
        assert report.event_index is None
        assert report.fingerprint_a == report.fingerprint_b
        assert report.events_compared > 0

    def test_seed_divergence_is_pinpointed_exactly(self):
        ref_a = _event_crcs(CONFIG)
        ref_b = _event_crcs(CONFIG.with_(seed=8))
        truth = next(
            i for i, (x, y) in enumerate(zip(ref_a, ref_b)) if x != y
        )
        # Window smaller than the divergence index forces at least one
        # checkpoint + windowed replay before the mismatch window.
        report = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("seed:8"), window=8
        )
        assert report.diverged
        assert report.event_index == truth
        assert report.fingerprint_a != report.fingerprint_b
        assert report.event_a is not None and report.event_b is not None
        assert report.event_a.time == report.event_b.time  # same scheduled slot
        assert report.event_a.records != report.event_b.records
        assert report.checkpoints >= 2

    def test_window_size_does_not_change_the_verdict(self):
        small = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("seed:8"), window=4
        )
        large = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("seed:8"), window=512
        )
        assert small.event_index == large.event_index

    @pytest.mark.parametrize("bad", [{"window": 0}, {"window": -5}, {"max_events": 0}])
    def test_an_empty_comparison_is_refused(self, bad):
        # window=0 compared nothing and reported "no divergence" for a
        # pair that does diverge.
        with pytest.raises(ValueError):
            bisect_divergence(
                CONFIG, Variant.parse("base"), Variant.parse("seed:8"), **bad
            )

    def test_obs_toggle_is_divergence_free(self):
        report = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("obs:on"), window=64
        )
        assert not report.diverged

    def test_loss_variant_diverges(self):
        report = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("loss:0.3"), window=64
        )
        assert report.diverged
        assert report.as_dict()["event_index"] == report.event_index


class TestVariantParse:
    def test_parse_roundtrip(self):
        v = Variant.parse("obs:on,seed:6,loss:0.3")
        assert v == Variant(obs=True, seed=6, loss=0.3)
        assert Variant.parse(v.describe()) == v

    def test_base_is_empty(self):
        assert Variant.parse("base") == Variant()
        assert Variant.parse("") == Variant()
        assert Variant().describe() == "base"

    def test_bad_tokens_raise(self):
        import pytest

        with pytest.raises(ValueError):
            Variant.parse("obs:maybe")
        with pytest.raises(ValueError):
            Variant.parse("nonsense:1")
        with pytest.raises(ValueError):
            Variant.parse("seed=5")
