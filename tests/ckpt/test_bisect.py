"""Divergence bisection: the report must pinpoint the first split.

Each side is a run file that ``repro gen walk`` wrote.  Ground
truth for the seeded case is computed here the slow way — two full
runs, each event's clock and send lines folded as they come, first
differing event by index — and :func:`repro.ckpt.bisect_divergence`,
which scans the two live runs in lockstep, must land on exactly that
event, stop there, and show each side's view of it.
"""

import zlib

import pytest

from repro.ckpt import bisect_divergence, read_run
from repro.cli import main
from repro.scenario import build
from repro.sim.event_queue import TAG
from repro.sim.sharded.context import canonical_send_line
from repro.workload import schedule_workload

#: Run files of the walk (r=2, MAX=2, 5 moves): name -> ``gen walk`` flags.
RUN_FLAGS = {
    "seed7": (),
    "seed8": ("--seed", "8"),
    "loss": ("--loss", "0.3"),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> ``(config, script)`` read back from its run file."""
    folder = tmp_path_factory.mktemp("runs")
    read = {}
    for name, flags in RUN_FLAGS.items():
        path = str(folder / f"{name}.ckpt")
        assert main(["gen", "walk", *flags, "--out", path]) == 0
        read[name] = read_run(path)
    return read


def _event_sends(run):
    """Per event of a full run: (clock, send lines, tag) — the reference."""
    config, script = run
    scenario = build(config)
    schedule_workload(scenario.system, script)
    sim = scenario.sim
    sends = []
    scenario.system.cgcast.observe(sends.extend)
    events = []
    while (event := sim._queue.peek()) is not None and sim.step():
        events.append((sim.now, [canonical_send_line(r) for r in sends], event[TAG]))
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
    def test_identical_variants_report_no_divergence(self, runs):
        report = bisect_divergence(runs["seed7"], runs["seed7"])
        assert not report.diverged
        assert report.event_index is None
        assert report.fingerprint_a == report.fingerprint_b
        assert report.events_compared == len(_event_sends(runs["seed7"]))

    def test_seed_divergence_is_pinpointed_exactly(self, runs):
        events_a = _event_sends(runs["seed7"])
        events_b = _event_sends(runs["seed8"])
        ref_a, ref_b = _event_crcs(events_a), _event_crcs(events_b)
        truth = next(
            i for i, (x, y) in enumerate(zip(ref_a, ref_b)) if x != y
        )
        report = bisect_divergence(runs["seed7"], runs["seed8"])
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
        # Pinned: the seed-7 and seed-8 walks split at event 13.
        assert (report.event_index, report.events_compared) == (13, 14)
        assert (report.fingerprint_a, report.fingerprint_b) == (2255915123, 1003116192)
        assert (report.event_a.tag, report.event_b.tag) == ("in:client:3", "in:client:1")

    def test_the_scan_stops_at_the_divergence(self, runs):
        report = bisect_divergence(runs["seed7"], runs["seed8"])
        assert report.events_compared == report.event_index + 1

    @pytest.mark.parametrize("cap", [1, 10, 11])
    def test_max_events_caps_the_comparison(self, runs, cap):
        # The seeds split at event 13, past every cap here; a cap that
        # is reached reports no divergence over exactly that many events.
        report = bisect_divergence(runs["seed7"], runs["seed8"], max_events=cap)
        assert report.events_compared == cap
        assert not report.diverged
        same = bisect_divergence(runs["seed7"], runs["seed7"], max_events=cap)
        assert same.events_compared == cap

    @pytest.mark.parametrize(
        "bad", [{"max_events": 0}, {"max_events": -5}, {"until": -1.0}]
    )
    def test_an_empty_comparison_is_refused(self, runs, bad):
        # Each compared nothing and reported "no divergence" for a pair
        # that does diverge.
        with pytest.raises(ValueError):
            bisect_divergence(runs["seed7"], runs["seed8"], **bad)

    def test_obs_toggle_is_divergence_free(self, runs):
        report = bisect_divergence(runs["seed7"], runs["seed7"], obs_b=True)
        assert not report.diverged
        assert report.events_compared == len(_event_sends(runs["seed7"]))

    def test_loss_variant_diverges(self, runs):
        report = bisect_divergence(runs["seed7"], runs["loss"])
        assert report.diverged
        assert report.as_dict()["event_index"] == report.event_index
