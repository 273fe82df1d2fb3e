"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session")
def built_report():
    """One ``build_report()`` (~5 s) for every test that reads the document."""
    from repro.analysis.reporting import build_report

    return build_report()
