"""Divergence bisection: the report must pinpoint the first split.

Ground truth for the seeded case is computed here the slow way — two
full runs, each event's clock and send lines folded as they come, first
differing event by index — and :func:`repro.ckpt.bisect_divergence`
must land on exactly that event while doing only windowed comparisons
plus one checkpoint replay.
"""

import zlib

import pytest

from repro.ckpt import (
    Variant,
    bisect_divergence,
    build_tracked_walk,
    snapshot_scenario,
    walk_horizon,
)
from repro.ckpt.bisect import _first_mismatch
from repro.scenario import ScenarioConfig
from repro.sim.sharded.context import canonical_send_line

CONFIG = ScenarioConfig(r=2, max_level=2, seed=7)


def _event_sends(config):
    """Per event of a full run: (clock, send lines, tag) — the reference."""
    scenario = build_tracked_walk(config)
    sim = scenario.sim
    sends = []
    scenario.system.cgcast.observe(sends.extend)
    events = []
    while (event := sim._queue.peek()) is not None and sim.step(until=walk_horizon(5)):
        events.append((sim.now, [canonical_send_line(r) for r in sends], event.tag))
        sends.clear()
    return events


def _event_crcs(events):
    """The rolling per-event fingerprints of :func:`_event_sends`."""
    crcs, crc, sent = [], 0, 0
    for now, lines, _tag in events:
        sent = zlib.crc32("".join(lines).encode(), sent)
        crc = zlib.crc32(f"{now!r}|{sent}".encode(), crc)
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
        events_a = _event_sends(CONFIG)
        events_b = _event_sends(CONFIG.with_(seed=8))
        ref_a, ref_b = _event_crcs(events_a), _event_crcs(events_b)
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
        assert report.event_a.send_lines != report.event_b.send_lines
        # The report replays the diverging event itself: its tag and lines.
        for info, events in ((report.event_a, events_a), (report.event_b, events_b)):
            now, lines, tag = events[truth]
            assert (info.time, list(info.send_lines), info.tag) == (now, lines, tag)
            assert info.tag
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


class TestCheckpointSize:
    def test_tracked_walk_snapshot_does_not_grow_with_events(self):
        """A window checkpoint holds the world, not the run so far.

        On a 4-region world the walk has sent over every route by t=105;
        from there, 7x the events fired leave the payload within 1 % —
        what a run records about itself is O(1) (the send CRC), and the
        rest of the walk is one queued event, not one per move.
        """
        scenario = build_tracked_walk(CONFIG.with_(max_level=1), moves=80)
        sizes = {}
        for t in (105.0, 795.0):
            scenario.sim.run_until(t)
            sizes[scenario.sim.events_fired] = len(snapshot_scenario(scenario).payload)
        (early, small), (late, large) = sorted(sizes.items())
        assert late >= 7 * early
        assert large <= small * 1.01, sizes


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
