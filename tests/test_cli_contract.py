"""The CLI's contract, checked over its command table, in-process.

Four things hold for every row of :data:`repro.cli.COMMANDS`:

(i)   the default ``--json`` envelope has a pinned key set (literals
      below, recorded before the CLI became a table) and text mode
      prints the same values;
(ii)  every numeric flag rejects an out-of-domain value with exit 2 and
      ``data.error``;
(iii) :func:`~repro.service.cross_check` — the one plain ≡ sharded
      verdict — materializes its workload once and agrees with two
      independent service runs;
(iv)  the envelope assertions of CI's five CLI smoke jobs;
(v)   ``repro gen`` then ``repro run`` reproduce what the commands they
      replaced (``snapshot``, ``resume``, ``sharded``, ``service``)
      printed, recorded below as literals from the last commit that had
      them.
"""

import itertools
import json
from pathlib import Path

import pytest

from repro.analysis import reporting
from repro.cli import CLI_SCHEMA, COMMANDS, main
from repro.core.vinestalk import VineStalk

GOLDEN_CKPT = str(Path(__file__).parent / "ckpt" / "golden" / "walk-r2-M2.ckpt")


def run_json(capsys, *argv):
    """``main([*argv, "--json"])`` -> (exit code, the envelope's data)."""
    capsys.readouterr()
    code = main([*argv, "--json"])
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["schema"] == CLI_SCHEMA
    assert envelope["command"] == " ".join(argv[:2] if argv[0] == "gen" else argv[:1])
    return code, envelope["data"]


def gen(tmp_path, kind, *flags, name="run.ckpt"):
    """Write ``repro gen <kind> [flags]``'s run file; return its path."""
    path = str(tmp_path / name)
    assert main(["gen", kind, *flags, "--out", path]) == 0
    return path


@pytest.fixture
def fast_report(monkeypatch, built_report):
    """``repro report`` over the session's one build instead of a new one."""
    monkeypatch.setattr(
        reporting, "build_report", lambda progress=None: built_report
    )


# ----------------------------------------------------------------------
# (i) one result, two renderings
# ----------------------------------------------------------------------
#: command -> (envelope keys, dotted paths of values the text must show).
DEFAULTS = {
    "demo": (
        {"evader_region", "finds", "height", "max_level", "move_work", "moves",
         "r", "seed", "width"},
        ("width", "height", "r", "max_level", "moves"),
    ),
    "find": ({"max_level", "r", "seed", "sweep"}, ("r", "max_level")),
    "chaos": (
        {"crash_rate", "fault_events", "find_retries", "find_success_rate",
         "finds_completed", "finds_issued", "loss_rate", "moves",
         "reconsistency_time", "recovered", "seed", "system", "work_overhead"},
        ("system", "seed", "loss_rate", "crash_rate", "moves",
         "finds_completed", "finds_issued", "find_retries"),
    ),
    "report": ({"failed", "length", "out", "report"}, ("report",)),
    "validate": (
        {"diameter", "error", "kind", "max_level", "r", "regions", "valid"},
        ("kind", "r", "max_level", "regions", "diameter"),
    ),
    "gen walk": (
        {"events_fired", "out", "payload_bytes", "schema", "sim_time"},
        ("out", "schema", "events_fired", "payload_bytes"),
    ),
    "gen service": (
        {"events_fired", "out", "payload_bytes", "schema", "sim_time"},
        ("out", "schema", "events_fired", "payload_bytes"),
    ),
    "run": (
        {"evader_region", "events_fired", "finds_completed", "ran_until",
         "resumed_from_t", "send_crc", "sends", "sim_time"},
        ("events_fired", "sends"),
    ),
    "bisect": (
        {"diverged", "event_a", "event_b", "event_index", "events_compared",
         "fingerprint_a", "fingerprint_b", "note", "run_a", "run_b"},
        ("run_a", "run_b", "note"),
    ),
    "mobility": (
        {"all_fingerprints_match", "all_speed_ok", "finds", "max_level", "mode",
         "moves", "r", "regimes", "seed", "shards"},
        ("r", "max_level", "seed", "moves", "finds", "mode"),
    ),
    "baselines": (
        {"all_classic_match", "cells", "energy_model", "grid", "schema"},
        ("grid.n_moves", "grid.n_finds", "grid.seed", "grid.shards"),
    ),
}

#: Nested key sets of the same envelopes.
NESTED = {
    ("demo", "finds"): {"distance", "latency", "origin", "work"},
    ("find", "sweep"): {"distance", "mean_find_work"},
    ("mobility", "regimes"): {
        "canonical_fingerprint", "events", "find_work", "finds_completed",
        "finds_issued", "fingerprint_match", "mean_dwell", "messages_sent",
        "min_dwell", "move_work", "moves_observed", "objects", "regime",
        "sharded_fingerprint", "speed_ok", "speed_violation", "steps_scripted",
        "touched_levels"},
    ("baselines", "grid"): {
        "faults", "max_level", "n_finds", "n_moves", "presets", "r", "seed",
        "shards", "trackers"},
    ("baselines", "cells"): {
        "energy", "engines", "fault", "find_latency", "finds_completed",
        "finds_issued", "fingerprint_match", "handovers", "kind",
        "message_work", "preconfig", "preset", "tracker"},
}


def default_argv(name, tmp_path):
    """The command with no flags but the paths it cannot run without."""
    if name.startswith("gen "):
        return [*name.split(), "--out", str(tmp_path / "run.ckpt")]
    if name == "run":
        return [name, GOLDEN_CKPT]
    if name == "bisect":
        return [name, GOLDEN_CKPT, GOLDEN_CKPT]
    return [name]


def short(command):
    """A row's test id: ``gen service`` is ``service``."""
    return command.name.split()[-1]


def dig(data, path):
    for key in path.split("."):
        data = data[key]
    return data


def test_the_table_is_the_ten_commands(capsys):
    assert [command.name for command in COMMANDS] == list(DEFAULTS)
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
    assert listed.split(",") == [
        "demo", "find", "chaos", "report", "validate", "gen", "run", "bisect",
        "mobility", "baselines",
    ]
    # The four commands ``gen`` and ``run`` replaced are unknown.
    for gone in ("snapshot", "resume", "sharded", "service"):
        with pytest.raises(SystemExit) as exited:
            main([gone])
        assert exited.value.code == 2
        assert f"invalid choice: '{gone}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: short(command))
def test_default_envelope_keys_and_text(command, capsys, tmp_path, request):
    if command.name == "report":
        request.getfixturevalue("fast_report")
    argv = default_argv(command.name, tmp_path)
    keys, shown = DEFAULTS[command.name]
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert set(data) == keys
    for (name, key), nested in NESTED.items():
        if name == command.name:
            inner = data[key]
            assert set(inner[0] if isinstance(inner, list) else inner) == nested
    assert main(argv) == 0
    text = capsys.readouterr().out
    for path in shown:
        assert str(dig(data, path)) in text, path


# ----------------------------------------------------------------------
# (ii) every numeric flag fails closed
# ----------------------------------------------------------------------
def run_to_a_cut(tmp_path):
    """``run`` saving its end state: what ``snapshot --at`` became."""
    return ["run", GOLDEN_CKPT, "--out", str(tmp_path / "cut.ckpt")]


def run_a_service_file(tmp_path):
    """``run`` of a ``gen service`` file: what ``service --shards`` became."""
    return ["run", gen(tmp_path, "service", name="service.ckpt")]


def flag_of(name, flag):
    (row,) = [command for command in COMMANDS if command.name == name]
    (found,) = [each for each in row.all_flags() if each.name == flag]
    return row, found


NUMERIC = [
    pytest.param(
        command, flag, lambda tmp_path, name=command.name: default_argv(name, tmp_path),
        id=short(command) + flag.name,
    )
    for command in COMMANDS
    for flag in command.all_flags()
    if flag.domain.ok is not None
] + [
    pytest.param(*flag_of("run", "--until"), run_to_a_cut, id="run-cut--until"),
    pytest.param(
        *flag_of("run", "--shards"), run_a_service_file, id="run-service--shards",
    ),
]


def test_every_int_and_float_flag_but_the_seed_declares_a_domain():
    unchecked = {
        flag.name
        for command in COMMANDS
        for flag in command.all_flags()
        if flag.domain.type in (int, float) and flag.domain.ok is None
    }
    assert unchecked == {"--seed"}


@pytest.mark.parametrize("command, flag, base", NUMERIC)
def test_numeric_flag_rejects_out_of_domain(command, flag, base, capsys, tmp_path):
    assert not flag.domain.ok(flag.domain.type("-1"))
    argv = [*base(tmp_path), flag.name, "-1"]
    code, data = run_json(capsys, *argv)
    assert code == 2
    assert set(data) == {"error"}
    assert data["error"].startswith(f"{flag.key} must be ")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == data["error"] + "\n" and not captured.out
    assert not (tmp_path / "cut.ckpt").exists()


@pytest.mark.parametrize("argv", [
    ["chaos", "--duration"],
    ["run", GOLDEN_CKPT, "--until"],
    ["run", GOLDEN_CKPT, "--out", "{cut}", "--until"],
    ["gen", "service", "--deadline"],
    ["gen", "service", "--rate"],
], ids=["chaos--duration", "run--until", "run-cut--until", "service--deadline",
        "service--rate"])
def test_a_non_finite_time_or_rate_is_refused(argv, capsys, tmp_path):
    # Each ran on: chaos until killed, a resumed or cut run writing
    # "Infinity", which is not JSON.
    cut = tmp_path / "cut.ckpt"
    argv = [str(cut) if arg == "{cut}" else arg for arg in argv]
    assert main([*argv, "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "finite" in captured.err
    assert not captured.out and not cut.exists()


# ----------------------------------------------------------------------
# (iii) one verdict
# ----------------------------------------------------------------------
class Counting:
    """A workload that counts how often it is asked for its events."""

    def __init__(self, workload):
        self.workload, self.calls = workload, 0

    def events(self, seed=0):
        self.calls += 1
        return self.workload.events(seed)


def smoke_inputs():
    """``(config, workload)`` as the five former call sites build them."""
    from repro.analysis.crossbase import _fault_plan, _walk, default_energy_model
    from repro.mobility.gen import GeneratedWalk
    from repro.scenario import ScenarioConfig
    from repro.service import LoadGenerator
    from repro.sim.sharded import walk_scenario
    from repro.sim.sharded.core import _tiling_for

    yield "sharded", *walk_scenario(shards=2, loss_rate=0.05, jitter_rate=0.2)
    service = ScenarioConfig(r=2, max_level=2, seed=7, shards=2, n_objects=4)
    for name, arrival, rate in (("service", "burst", 1.0), ("svc", "poisson", 2.0)):
        yield name, service, LoadGenerator(
            tiling=_tiling_for(service), n_objects=4, n_finds=16,
            arrival=arrival, rate=rate, moves_per_object=2, deadline=60.0,
        )
    yield "mobility", ScenarioConfig(r=2, max_level=2, seed=11), GeneratedWalk(
        mobility="gauntlet"
    )
    yield "baselines", ScenarioConfig(
        r=2, max_level=2, system="predictive", seed=7, shards=2,
        energy=default_energy_model(), fault_plan=_fault_plan("loss"),
    ), _walk("dither", 4, 2)


@pytest.mark.parametrize(
    "config, workload",
    [pytest.param(config, workload, id=name)
     for name, config, workload in smoke_inputs()],
)
def test_cross_check_materializes_once_and_agrees_with_two_runs(config, workload):
    from repro.service import TrackingService, cross_check

    counting = Counting(workload)
    plain, sharded, match = cross_check(config, counting)
    assert counting.calls == 1
    assert match is True
    for engine, record in (("plain", plain), ("sharded", sharded)):
        alone = TrackingService(config, engine=engine).run(workload)
        assert alone.canonical_fingerprint == record.canonical_fingerprint
        assert alone.metrics == record.metrics and record.metrics
    assert plain.shards == 1 and sharded.shards == config.shards


class DispatchOrderLoss(VineStalk):
    """Drops every seventh message this world dispatches — a draw keyed
    on dispatch order, which a sharded run, whose replicas each dispatch
    only their own share, cannot reproduce."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._dispatched = itertools.count(1)
        self.cgcast.fault_filter = self._drop

    def _drop(self, src, dest, payload, delay):
        return [] if next(self._dispatched) % 7 == 0 else None


def test_cross_check_reports_a_divergence():
    from repro.service import cross_check
    from repro.sim.sharded import walk_scenario

    config, walk = walk_scenario(shards=2)
    plain, sharded, match = cross_check(
        config.with_(system=DispatchOrderLoss), walk
    )
    assert match is (plain.canonical_fingerprint == sharded.canonical_fingerprint)
    assert match is False


@pytest.mark.parametrize("shards", [2, 4])
def test_a_default_fault_armed_run_is_k_invariant(shards):
    """Every fault rule armed, nothing else set: plain ≡ K shards."""
    from repro.faults import (
        CHANNEL_BOTH, FaultPlan, LagSpike, MessageDuplication, MessageJitter,
        MessageLoss, RegionBlackout, VsaCrashes,
    )
    from repro.service import cross_check
    from repro.sim.sharded import walk_scenario

    config, walk = walk_scenario(shards=shards)
    config = config.with_(fault_plan=FaultPlan.of(
        MessageLoss(rate=0.1, channel=CHANNEL_BOTH),
        MessageDuplication(rate=0.1, channel=CHANNEL_BOTH),
        MessageJitter(rate=0.2, channel=CHANNEL_BOTH, max_extra=0.5),
        LagSpike(at=40.0, duration=60.0, extra_e=0.5),
        VsaCrashes(rate=0.05, period=20.0, downtime=15.0),
        RegionBlackout(at=60.0, duration=30.0, count=2),
        horizon=200.0,
    ))
    plain, sharded, match = cross_check(config, walk)
    assert match is True, (plain.canonical_fingerprint, sharded.canonical_fingerprint)
    assert plain.fault_events == sharded.fault_events
    armed = plain.fault_events
    for kind in ("messages_dropped", "messages_duplicated", "messages_delayed",
                 "crashes", "blackouts"):
        assert armed[kind] > 0, armed


# ----------------------------------------------------------------------
# (iv) the CI smoke invocations
# ----------------------------------------------------------------------
class TestSmokeEnvelopes:
    def test_report(self, capsys, fast_report):
        code, data = run_json(capsys, "report")
        assert code == 0
        assert data["failed"] == [], data["failed"]
        assert data["report"].count("✅") > 0

    def test_service(self, capsys, tmp_path):
        path = gen(tmp_path, "service", "--objects", "4", "--finds", "16",
                   "--arrival", "burst")
        code, data = run_json(capsys, "run", path, "--shards", "2")
        assert code == 0
        assert data["fingerprint_match"], data
        assert data["reference_metrics"] == data["metrics"], data
        assert data["metrics"]["latency"]["p95"] is not None

    def test_invalid_input(self, capsys):
        code, data = run_json(capsys, "run", GOLDEN_CKPT, "--shards", "-1")
        assert code == 2
        assert data["error"], data

    def test_service_has_no_profile_flag(self, capsys):
        # Host-time attribution is the bench tracer's, not the CLI's.
        for argv in (["gen", "service", "--profile"],
                     ["run", GOLDEN_CKPT, "--profile"]):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
            assert "--profile" in capsys.readouterr().err

    def test_baselines(self, capsys):
        code, data = run_json(capsys, "baselines", "--moves", "4", "--finds", "2")
        assert code == 0
        assert data["schema"] == "bench-baselines/1", data
        assert data["all_classic_match"] is True, data
        grid = data["grid"]
        assert len(grid["trackers"]) >= 6, grid
        assert len(grid["presets"]) >= 3, grid
        for cell in data["cells"]:
            for key in ("find_latency", "message_work", "handovers", "energy"):
                assert key in cell, (cell["tracker"], key)

    def test_baselines_without_a_classic_cell_compares_nothing(self, capsys):
        # Exited 0 on a "MATCH" although no cell ran on two engines.
        argv = ["baselines", "--trackers", "flooding", "--presets", "dither",
                "--moves", "4", "--finds", "2"]
        code, data = run_json(capsys, *argv)
        assert code == 0 and data["all_classic_match"] is None
        assert main(argv) == 0
        assert "fingerprints: nothing compared" in capsys.readouterr().out

    def test_resume(self, capsys):
        code, result = run_json(capsys, "run", GOLDEN_CKPT)
        assert code == 0
        assert result["resumed_from_t"] == 25.0, result
        assert result["ran_until"] == result["sim_time"] == 207.0, result
        assert result["finds_completed"] == 4, result

    def test_resume_refuses_an_until_before_the_snapshot(self, capsys):
        # Ran to exit 0 reporting ran_until 3 beside sim_time 25.
        code, data = run_json(capsys, "run", GOLDEN_CKPT, "--until", "3")
        assert code == 2
        assert set(data) == {"error"} and "t=25" in data["error"], data
        assert main(["run", GOLDEN_CKPT, "--until", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == data["error"] + "\n" and not captured.out

    @pytest.mark.parametrize("where", ["header", "payload"])
    def test_resume_refuses_a_corrupted_checkpoint(self, capsys, tmp_path, where):
        data = bytearray(Path(GOLDEN_CKPT).read_bytes())
        data[data.index(b"golden-artifact") if where == "header" else -1] ^= 1
        path = tmp_path / "corrupted.ckpt"
        path.write_bytes(bytes(data))
        code, data = run_json(capsys, "run", str(path))
        assert code == 2
        assert set(data) == {"error"} and "digest" in data["error"], data
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == data["error"] + "\n" and not captured.out

    def test_resume_runs_a_snapshot_cut_past_its_walk(self, capsys, tmp_path):
        # A 0-move walk is quiescent before a cut at 50: the resumed run
        # must stay at the cut, not end before it.
        path = str(tmp_path / "late.ckpt")
        walk = gen(tmp_path, "walk", "--moves", "0")
        code, _ = run_json(capsys, "run", walk, "--until", "50", "--out", path)
        assert code == 0
        code, data = run_json(capsys, "run", path)
        assert code == 0
        assert data["ran_until"] == data["sim_time"] == data["resumed_from_t"] == 50.0

    def test_resume_of_a_world_that_never_quiesces_needs_until(self, capsys, tmp_path):
        from repro.ckpt import save, snapshot_scenario
        from repro.scenario import ScenarioConfig, build

        path = tmp_path / "stabilizing.ckpt"
        scenario = build(ScenarioConfig(r=2, max_level=2, system="stabilizing"))
        scenario.sim.run_until(10.0)
        save(snapshot_scenario(scenario), path)
        code, data = run_json(capsys, "run", str(path))
        assert code == 2 and "--until" in data["error"], data
        code, data = run_json(capsys, "run", str(path), "--until", "30")
        assert code == 0 and data["sim_time"] == 30.0, data

    def test_bisect(self, capsys, tmp_path):
        a = gen(tmp_path, "walk", name="a.ckpt")
        b = gen(tmp_path, "walk", "--seed", "8", name="b.ckpt")
        code, report = run_json(capsys, "bisect", a, b)
        assert code == 0
        assert report["diverged"] is True, report
        assert isinstance(report["event_index"], int), report
        assert report["events_compared"] == report["event_index"] + 1, report
        assert report["event_a"]["time"] is not None
        for side in ("event_a", "event_b"):
            assert isinstance(report[side]["tag"], str) and report[side]["tag"], report
            assert report[side]["send_lines"], report

    def test_sharded_across_shard_counts_and_backends(self, capsys, tmp_path):
        walk = ["--max-level", "3", "--seed", "11", "--moves", "8", "--finds", "4"]
        clean = gen(tmp_path, "walk", *walk, name="walk.ckpt")
        faulty = gen(tmp_path, "walk", *walk, "--loss", "0.05", "--jitter", "0.2",
                     name="faulty.ckpt")
        code1, k1 = run_json(capsys, "run", clean, "--shards", "1")
        code2, k2 = run_json(
            capsys, "run", faulty, "--shards", "2", "--backend", "processes",
        )
        assert code1 == code2 == 0
        assert k1["fingerprint_match"], k1
        assert k1["bit_identical"], k1
        assert k2["fingerprint_match"], k2
        assert k2["backend"] == "processes", k2
        assert k2["cross_shard_messages"] > 0, k2

    def test_chaos(self, capsys):
        code, result = run_json(
            capsys, "chaos", "--r", "2", "--max-level", "2", "--seed", "7",
            "--system", "stabilizing", "--loss", "0.1", "--crash", "0.02",
            "--duration", "120",
        )
        assert code == 0
        assert result["find_success_rate"] > 0, result
        assert result["finds_issued"] > 0, result
        assert result["recovered"], result
        assert sum(result["fault_events"].values()) > 0, "no faults were injected"

    def test_mobility(self, capsys):
        code, data = run_json(
            capsys, "mobility", "--regimes", "uniform-walk,dither,gauntlet",
            "--shards", "1",
        )
        assert code == 0
        assert data["all_speed_ok"] is True, data
        assert data["all_fingerprints_match"] is True, data
        rows = {row["regime"]: row for row in data["regimes"]}
        assert set(rows) == {"uniform-walk", "dither", "gauntlet"}, rows
        for row in rows.values():
            assert row["finds_completed"] == row["finds_issued"] > 0, row
            assert row["min_dwell"] > 0, row
            assert row["sharded_fingerprint"] == row["canonical_fingerprint"], row
        # The adversarial regime must actually dither: every move
        # crosses the deepest cluster boundary.
        assert set(rows["dither"]["touched_levels"]) == {"2"}, rows["dither"]
        assert rows["gauntlet"]["objects"] == 3, rows["gauntlet"]


# ----------------------------------------------------------------------
# (v) the replaced commands, reproduced
# ----------------------------------------------------------------------
CORPUS_WALK = str(Path(__file__).parent / "corpus" / "walk.ckpt")
#: Host-clock fields: the only ones a rerun may change.
WALL = {"wall_s", "barrier_wait_s", "shard_busy_s", "critical_path_s"}
#: Every arrival process below gave each of the 4 objects 4-5 handovers.
HANDOVERS = {"histogram": {"4-7": 4}, "max": 5, "mean": 4.5, "min": 4, "objects": 4}

#: ``repro service --objects 4 --finds 16 --arrival A --json`` as the
#: command printed it: the fingerprint both engines agreed on, the K=2
#: run's counts, and the service metrics, which the two engines
#: reported equal.
PARENT_SERVICE = {
    "poisson": ("f6bb45c6", {
        "events": 506, "messages_sent": 416, "windows": 37,
        "cross_shard_messages": 85,
    }, {
        "completion_rate": 0.9375, "deadline_miss_rate": 0.0625,
        "deadlines_missed": 1, "deadlines_set": 16, "finds_completed": 15,
        "finds_issued": 16, "handovers": HANDOVERS, "handovers_total": 18,
        "latency": {"jitter": 3.5860842154082224, "mean": 7.2,
                    "p50": 8.499999999999998, "p95": 13.0,
                    "p99": 13.000000000000004},
        "mean_find_work": 16.4375, "throughput_per_time": 0.5507377391620788,
    }),
    "burst": ("5755155e", {
        "events": 552, "messages_sent": 463, "windows": 38,
        "cross_shard_messages": 104,
    }, {
        "completion_rate": 1.0, "deadline_miss_rate": 0.0,
        "deadlines_missed": 0, "deadlines_set": 16, "finds_completed": 16,
        "finds_issued": 16, "handovers": HANDOVERS, "handovers_total": 18,
        "latency": {"jitter": 3.9863046797754937, "mean": 7.375, "p50": 5.5,
                    "p95": 13.375, "p99": 14.275},
        "mean_find_work": 19.375, "throughput_per_time": 0.21469755739595345,
    }),
    "uniform": ("ba52d806", {
        "events": 569, "messages_sent": 480, "windows": 76,
        "cross_shard_messages": 110,
    }, {
        "completion_rate": 1.0, "deadline_miss_rate": 0.0,
        "deadlines_missed": 0, "deadlines_set": 16, "finds_completed": 16,
        "finds_issued": 16, "handovers": HANDOVERS, "handovers_total": 18,
        "latency": {"jitter": 4.205189257817411, "mean": 7.81256103515625,
                    "p50": 6.75048828125, "p95": 14.875,
                    "p99": 15.774999999999999},
        "mean_find_work": 20.4375, "throughput_per_time": 0.18604651162790697,
    }),
}

#: ``repro sharded tests/corpus/walk.ckpt --shards 2 --json`` as the
#: command printed it, host-clock fields aside.
PARENT_SHARDED = {
    "backend": "serial", "bit_identical": False,
    "canonical_fingerprint": "1624cda5", "cross_shard_messages": 20,
    "events": 343, "fault_events": None, "finds_completed": 4,
    "finds_issued": 4, "fingerprint_match": True, "messages_sent": 293,
    "reference_fingerprint": "1624cda5", "shards": 2, "windows": 93,
}

#: ``repro resume tests/ckpt/golden/walk-r2-M2.ckpt --json`` as the
#: command printed it.
PARENT_RESUME = {
    "evader_region": [0, 1], "events_fired": 208, "finds_completed": 4,
    "ran_until": 207.0, "resumed_from_t": 25.0, "send_crc": 2699385428,
    "sends": 186, "sim_time": 207.0,
}


@pytest.mark.parametrize("arrival", list(PARENT_SERVICE))
def test_gen_service_then_run_is_the_service_command(arrival, capsys, tmp_path):
    path = gen(tmp_path, "service", "--objects", "4", "--finds", "16",
               "--arrival", arrival)
    code, data = run_json(capsys, "run", path, "--shards", "2")
    fingerprint, counts, metrics = PARENT_SERVICE[arrival]
    assert code == 0 and data["fingerprint_match"] is True
    assert data["canonical_fingerprint"] == data["reference_fingerprint"] == fingerprint
    assert {key: data[key] for key in counts} == counts
    assert data["metrics"] == data["reference_metrics"] == metrics


def test_run_on_shards_is_the_sharded_command(capsys):
    argv = ["run", CORPUS_WALK, "--shards", "2"]
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert set(data) == {*PARENT_SHARDED, *WALL, "metrics", "reference_metrics"}
    assert {key: data[key] for key in PARENT_SHARDED} == PARENT_SHARDED
    assert data["metrics"] == data["reference_metrics"]
    assert data["metrics"]["finds_completed"] == 4
    assert main(argv) == 0
    text = capsys.readouterr().out
    for key in ("shards", "backend", "events", "windows", "cross_shard_messages",
                "canonical_fingerprint", "reference_fingerprint"):
        assert str(data[key]) in text, key


def test_run_of_a_cut_is_the_resume_command(capsys):
    code, data = run_json(capsys, "run", GOLDEN_CKPT)
    assert code == 0 and data == PARENT_RESUME
