"""The obs/2 artifact: payload shape, file round-trip, CI checker.

Loads ``benchmarks/check_obs_report.py`` by path (benchmarks/ is not a
package) and runs it against a real probe artifact — the same gate CI's
smoke-cli applies — plus negative cases proving the checker rejects
malformed artifacts.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import repro.obs as obs
from repro.obs.export import (
    OBS_SCHEMA,
    obs_payload,
    render_obs_summary,
    write_obs_artifact,
)
from repro.obs.probe import run_obs_probe

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_obs_report", REPO_ROOT / "benchmarks" / "check_obs_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_probe():
    return run_obs_probe(stride=16)


class TestPayload:
    def test_payload_shape_and_schema(self):
        payload = small_probe()
        assert payload["schema"] == OBS_SCHEMA == "obs/2"
        assert payload["event_schema"] >= 1
        # The artifact carries no host time (the bench tracer's job).
        assert "phases" not in payload and "spans" not in payload
        events = payload["events"]
        assert sum(events["by_kind"].values()) == events["seen"]
        assert events["retained"] <= events["seen"]
        assert payload["conformance"]["violations_total"] == 0
        assert payload["results"]["find_completed"] == 1
        assert payload["counters"] == {
            f"events.{kind}": n for kind, n in sorted(events["by_kind"].items())
        }

    def test_payload_is_json_safe(self):
        json.dumps(small_probe())

    def test_probe_restores_gate(self):
        small_probe()
        assert obs.OBS.collector is None
        assert not obs.OBS.events_enabled

    def test_payload_without_conformance(self):
        with obs.observed() as collector:
            pass
        payload = obs_payload(collector)
        assert payload["conformance"] is None

    @pytest.mark.parametrize("toggles", [{"spans": True}, {"events": False}])
    def test_observed_accepts_only_the_event_gate(self, toggles):
        with pytest.raises(ValueError):
            obs.observed(**toggles)
        assert obs.OBS.collector is None


class TestArtifactAndChecker:
    def test_checker_accepts_probe_artifact(self, tmp_path, capsys):
        path = tmp_path / "OBS.json"
        write_obs_artifact(path, small_probe())
        checker = load_checker()
        assert checker.check(path) == 0
        assert "obs ok" in capsys.readouterr().out

    def test_artifact_file_round_trips(self, tmp_path):
        payload = small_probe()
        path = tmp_path / "OBS.json"
        write_obs_artifact(path, payload)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(payload)
        )

    def test_checker_rejects_bad_schema(self, tmp_path, capsys):
        payload = small_probe()
        payload["schema"] = "obs/0"
        path = tmp_path / "OBS.json"
        write_obs_artifact(path, payload)
        checker = load_checker()
        assert checker.check(path) == 1
        assert "schema" in capsys.readouterr().err

    def test_checker_gates_on_violations_unless_allowed(self, tmp_path):
        payload = small_probe()
        payload["conformance"]["violations_total"] = 2
        payload["conformance"]["recorded"] = [
            {"time": 1.0, "check": "theorem-4.8", "detail": "x"}
        ]
        path = tmp_path / "OBS.json"
        write_obs_artifact(path, payload)
        checker = load_checker()
        assert checker.check(path) == 1
        assert checker.check(path, allow_violations=True) == 0
        assert checker.main([str(path), "--allow-violations"]) == 0


def test_summary_renders_counts_and_verdicts():
    payload = small_probe()
    text = render_obs_summary(payload)
    assert "schema obs/2" in text
    assert "grow-sent" in text
    assert "theorem-4.8" in text
    assert "phase" not in text
