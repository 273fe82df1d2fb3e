"""The experiment registry: EXPERIMENTS.md is what it computes.

One session-scoped ``build_report()`` (``tests/conftest.py``) runs every
experiment once; the paper's claims are thereby checked on every run of
the suite, by the code that writes the document.  The doctored-result
tests show each kind of verdict can fail: the mark turns and ``repro
report`` exits 1.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import reporting
from repro.analysis.reporting import EXPERIMENTS
from repro.cli import CLI_SCHEMA, main

COMMITTED = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BY_KEY = {experiment.key: experiment for experiment in EXPERIMENTS}


@pytest.fixture(scope="module")
def report(built_report):
    return built_report


class TestRegistry:
    def test_keys_in_document_order(self):
        assert [experiment.key for experiment in EXPERIMENTS] == [
            *(f"e{i}" for i in range(1, 10)),
            *(f"x{i}" for i in range(1, 6)),
            "obs", "svc", "xbase",
        ]

    def test_every_check_passes(self, report):
        text, failed = report
        assert failed == []
        assert "❌" not in text

    def test_committed_document_is_the_regenerated_one(self, report):
        # On a mismatch: python -m repro report --out EXPERIMENTS.md
        assert report[0] == COMMITTED.read_text()

    def test_every_section_states_claim_tables_and_checks(self, report):
        sections = report[0].split("\n## ")[1:]
        assert len(sections) == len(EXPERIMENTS)
        for experiment, section in zip(EXPERIMENTS, sections):
            assert section.startswith(experiment.title)
            for block in ("**Paper:** ", "**Measured** (", "```", "- ✅ "):
                assert block in section


def e3_two_grows_outstanding():
    result = BY_KEY["e3"].run()
    result[0][1].max_grow_outstanding = 2
    return result, "the most grows ever outstanding is exactly 1 in every world"


def e8_flat_home_agent():
    result = BY_KEY["e8"].run()
    for job in result:
        for row in job.value:
            if row.algorithm == "home-agent":
                row.move_work, row.find_work = 27.0, 22.0
    return result, "…and has crossed over on the largest"


def x5_stabilizing_cell_stays_broken():
    result = BY_KEY["x5"].run()
    cell = next(res for res in result if res.system == "stabilizing")
    cell.recovered = False
    return result, (
        "the stabilizing X1 variant re-reaches a consistent structure in "
        "every cell"
    )


def x4_budget_exhausted():
    result = [(1.0, True, 0), (0.01, False, None)]
    return result, (
        "every regime recovers to a usable structure within the move budget"
    )


@pytest.mark.parametrize("doctor", [
    e3_two_grows_outstanding,
    e8_flat_home_agent,
    x5_stabilizing_cell_stays_broken,
    x4_budget_exhausted,
])
def test_a_doctored_result_fails_its_check_and_the_cli(doctor, capsys, monkeypatch):
    experiment = BY_KEY[doctor.__name__.split("_")[0]]
    result, statement = doctor()
    assert (statement, False) in experiment.checks(result)
    text, failed = experiment.section(result)
    assert f"- ❌ {statement}" in text and statement in failed

    monkeypatch.setattr(experiment, "run", lambda: result)
    monkeypatch.setattr(reporting, "EXPERIMENTS", (experiment,))
    assert main(["report", "--json"]) == 1
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)
    assert envelope["schema"] == CLI_SCHEMA
    assert [experiment.key, statement] in envelope["data"]["failed"]
    assert f"FAILED {experiment.key}: {statement}" in captured.err


def test_an_exhausted_move_budget_prints_never():
    text, _ = BY_KEY["x4"].section(x4_budget_exhausted()[0])
    assert text.count("never") == 1 and " 41" not in text


def test_report_cli_exits_zero_with_no_failed_checks(capsys, monkeypatch):
    monkeypatch.setattr(reporting, "EXPERIMENTS", (BY_KEY["e3"],))
    assert main(["report", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["failed"] == [] and "## E3" in data["report"]
