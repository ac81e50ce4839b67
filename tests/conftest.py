"""Shared fixtures.

The desk bench is session-scoped: one memoized cost oracle serves every
test that needs a working closed loop.
"""

from __future__ import annotations

import pytest

from axistune.presets import get_preset


@pytest.fixture(scope="session")
def desk_bench():
    """Cost oracle for the default benchmark."""
    return get_preset("desk").bench()
