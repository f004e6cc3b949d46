"""Shared fixtures.

The desk-scale sieve construction (k=2, full drift, y=1e4, N=4e6) takes
about 0.4 s to build on a 2-core host, so it is session-scoped and
shared by the oracle tests; acceptance timing rebuilds it fresh inside
the timed block instead of borrowing this one.
"""

from __future__ import annotations

import numpy as np
import pytest

from extremal_means import oracle

DESK_K = 2
DESK_DELTA = 1.0
DESK_Y = 10**4
DESK_N = 4_000_000


@pytest.fixture(scope="session")
def desk_spec() -> oracle.MultiplicativeSpec:
    return oracle.construct_tracking_spec(DESK_K, DESK_DELTA, DESK_Y, 1.0, DESK_N)


@pytest.fixture(scope="session")
def desk_f(desk_spec) -> np.ndarray:
    return oracle.build_f(desk_spec, DESK_N)
