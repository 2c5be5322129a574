"""Shared fixtures and hypothesis configuration for the test suite.

Hypothesis settings profiles (per the standard idiom): the ``dev``
profile keeps property tests fast during local iteration, ``ci`` runs
them thoroughly.  CI selects its profile via ``HYPOTHESIS_PROFILE=ci``
(the workflow sets it); explicit ``--hypothesis-profile`` still wins.
The profiles and the per-test settings tiers live in ``_helpers``,
which registers and loads them on import.
"""

from __future__ import annotations

import numpy as np
import pytest

from _helpers import dispatch_instances, server_instances  # noqa: F401 (re-export)


# ---------------------------------------------------------------------------
# Paper worked examples (Figures 1 and 2) as fixtures.
# ---------------------------------------------------------------------------


@pytest.fixture
def figure1_instance():
    """Figure 1: rates [5,2,1,1], queues [2,1,3,1], 7 arrivals.

    Paper values: iwl = 1.375, iba = [4.875, 1.75, 0, 0.375].
    """
    return {
        "queues": np.array([2, 1, 3, 1], dtype=np.int64),
        "rates": np.array([5.0, 2.0, 1.0, 1.0]),
        "arrivals": 7,
        "iwl": 1.375,
        "iba": np.array([4.875, 1.75, 0.0, 0.375]),
    }


@pytest.fixture
def figure2_instance():
    """Figure 2: one fast server (mu=10, q=9), eight slow empty servers, a=7.

    Paper values: iwl = 0.875; the fast server -- although *above* the
    ideal workload -- receives probability ~0.221 (~1.55 of 7 jobs).
    """
    return {
        "queues": np.array([9] + [0] * 8, dtype=np.int64),
        "rates": np.array([10.0] + [1.0] * 8),
        "arrivals": 7,
        "iwl": 0.875,
        "p_fast_approx": 0.222,
        "expected_jobs_fast_approx": 1.55,
    }
