"""Shared fixtures."""

import numpy as np
import pytest

from semiclassic.potential import _SCAN_PANELS, ScatteringProblem


@pytest.fixture
def knot_scans(monkeypatch):
    """A function returning how many times V has been sampled on the grid of
    the scan for its extrema (``_SCAN_PANELS + 1`` points) since the test began."""
    count = [0]
    v = ScatteringProblem.v

    def counting_v(problem, x):
        count[0] += np.size(x) == _SCAN_PANELS + 1
        return v(problem, x)

    monkeypatch.setattr(ScatteringProblem, "v", counting_v)
    return lambda: count[0]
