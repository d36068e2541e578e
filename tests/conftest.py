"""Fixtures shared by every test module."""

import pytest

from sgalab import config


@pytest.fixture(autouse=True)
def _no_kept_fit():
    """Start each test without the fit an earlier test left in ``config``."""
    config._FITTED.clear()
