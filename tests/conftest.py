"""Fixtures shared by every test module."""

import pytest

from sgalab import artifacts, config


@pytest.fixture(autouse=True)
def _no_kept_fit():
    """Start each test without the fit or traces an earlier test left in memory."""
    config._FITTED.clear()
    artifacts._KEPT.clear()
