"""Shared fixtures.

The expensive fixtures are session-scoped: one desk bench serves every
test that needs a working closed loop, and one full exhaustive grid
evaluation on it backs every test that needs a reference cost table.
"""

from __future__ import annotations

import numpy as np
import pytest

from axistune.presets import FEASIBLE_PRESETS, LAB_SERVO, LAB_SERVO_CURRENT, get_preset


@pytest.fixture(scope="session")
def plant():
    return LAB_SERVO


@pytest.fixture(scope="session")
def cc():
    return LAB_SERVO_CURRENT


@pytest.fixture(scope="session")
def desk_fset():
    return FEASIBLE_PRESETS["desk"]


@pytest.fixture(scope="session")
def desk_bench():
    """Cost oracle for the default benchmark."""
    return get_preset("desk").bench()


@pytest.fixture(scope="session")
def desk_grid(desk_bench, desk_fset):
    """Exhaustive cost table on the desk grid: (best, best_cost, table)."""
    from axistune.tuner import grid_search

    return grid_search(desk_fset, batch_oracle=desk_bench.evaluate_many)
