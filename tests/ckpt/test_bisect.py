"""Divergence bisection: the report must pinpoint the first split.

Ground truth for the seeded case is computed here the slow way — two
full runs, each event's clock and send lines folded as they come, first
differing event by index — and :func:`repro.ckpt.bisect_divergence`,
which scans the two live runs in lockstep, must land on exactly that
event, stop there, and show each side's view of it.
"""

import zlib

import pytest

from repro.ckpt import Variant, bisect_divergence
from repro.scenario import ScenarioConfig, build
from repro.sim.sharded import schedule_workload, walk_scenario
from repro.sim.sharded.context import canonical_send_line

CONFIG = ScenarioConfig(r=2, max_level=2, seed=7)


def _event_sends(config):
    """Per event of a full run: (clock, send lines, tag) — the reference."""
    scenario = build(config)
    _, script = walk_scenario(2, 2, shards=1, n_moves=5, seed=config.seed)
    schedule_workload(scenario.system, script)
    sim = scenario.sim
    sends = []
    scenario.system.cgcast.observe(sends.extend)
    events = []
    while (event := sim._queue.peek()) is not None and sim.step():
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


class TestBisect:
    def test_identical_variants_report_no_divergence(self):
        report = bisect_divergence(CONFIG, Variant.parse("base"), Variant.parse("base"))
        assert not report.diverged
        assert report.event_index is None
        assert report.fingerprint_a == report.fingerprint_b
        assert report.events_compared == len(_event_sends(CONFIG))

    def test_seed_divergence_is_pinpointed_exactly(self):
        events_a = _event_sends(CONFIG)
        events_b = _event_sends(CONFIG.with_(seed=8))
        ref_a, ref_b = _event_crcs(events_a), _event_crcs(events_b)
        truth = next(
            i for i, (x, y) in enumerate(zip(ref_a, ref_b)) if x != y
        )
        report = bisect_divergence(CONFIG, Variant.parse("base"), Variant.parse("seed:8"))
        assert report.diverged
        assert report.event_index == truth
        assert report.fingerprint_a != report.fingerprint_b
        assert report.event_a is not None and report.event_b is not None
        assert report.event_a.time == report.event_b.time  # same scheduled slot
        assert report.event_a.send_lines != report.event_b.send_lines
        # The report shows the diverging event itself: its tag and lines.
        for info, events in ((report.event_a, events_a), (report.event_b, events_b)):
            now, lines, tag = events[truth]
            assert (info.time, list(info.send_lines), info.tag) == (now, lines, tag)
            assert info.tag

    def test_the_scan_stops_at_the_divergence(self):
        report = bisect_divergence(CONFIG, Variant.parse("base"), Variant.parse("seed:8"))
        assert report.events_compared == report.event_index + 1

    @pytest.mark.parametrize("cap", [1, 10, 11])
    def test_max_events_caps_the_comparison(self, cap):
        # The seeds split at event 13, past every cap here; a cap that
        # is reached reports no divergence over exactly that many events.
        report = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("seed:8"), max_events=cap
        )
        assert report.events_compared == cap
        assert not report.diverged
        same = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("base"), max_events=cap
        )
        assert same.events_compared == cap

    @pytest.mark.parametrize(
        "bad", [{"max_events": 0}, {"max_events": -5}, {"until": -1.0}]
    )
    def test_an_empty_comparison_is_refused(self, bad):
        # Each compared nothing and reported "no divergence" for a pair
        # that does diverge.
        with pytest.raises(ValueError):
            bisect_divergence(
                CONFIG, Variant.parse("base"), Variant.parse("seed:8"), **bad
            )

    def test_obs_toggle_is_divergence_free(self):
        report = bisect_divergence(CONFIG, Variant.parse("base"), Variant.parse("obs:on"))
        assert not report.diverged

    def test_loss_variant_diverges(self):
        report = bisect_divergence(
            CONFIG, Variant.parse("base"), Variant.parse("loss:0.3")
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
