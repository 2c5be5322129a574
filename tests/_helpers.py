"""Shared hypothesis settings, strategies and statistical assertions.

A plain helper module (not a conftest) so test files can ``from _helpers
import ...`` without depending on pytest's conftest import machinery --
importing from ``conftest`` breaks when another rootdir directory (e.g.
``benchmarks/``) registers its own ``conftest`` module first.

Hypothesis profiles set the suite-wide example budget: ``dev`` (the
default) keeps local iteration fast, ``ci`` runs thoroughly; select one
with ``HYPOTHESIS_PROFILE=ci``.  On top of the profile, tests pick a
named tier scaled from its budget:

``DETERMINISM_SETTINGS``
    Twice the profile's examples, for the bit-identity suites where
    determinism is the claim under test.
``QUICK_SETTINGS``
    A fifth of them (at least five), for I/O-bound tests such as the
    service's, where each example touches disk or sockets.
"""

from __future__ import annotations

import math
import os

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

__all__ = [
    "DETERMINISM_SETTINGS",
    "QUICK_SETTINGS",
    "server_instances",
    "edge_case_snapshots",
    "dispatch_instances",
    "ensemble_tolerance",
    "assert_ensemble_close",
]

settings.register_profile("ci", max_examples=200, deadline=None)
settings.register_profile("dev", max_examples=25, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

_PROFILE_EXAMPLES = settings().max_examples

#: Bit-identity suites: twice the profile's example budget.
DETERMINISM_SETTINGS = settings(max_examples=2 * _PROFILE_EXAMPLES, deadline=None)
#: I/O-bound tests: a fifth of the profile's budget, at least five.
QUICK_SETTINGS = settings(max_examples=max(5, _PROFILE_EXAMPLES // 5), deadline=None)


def ensemble_tolerance(n: int, base: float = 1.0, floor: float = 0.01) -> float:
    """Relative tolerance for an ``n``-sample ensemble vs a prediction.

    Sampling error of an ensemble mean shrinks like ``1/sqrt(n)``, so
    the tolerance is ``floor + base / sqrt(n)``: bigger ensembles (or
    bigger simulated systems) must match their analytical prediction
    *more* tightly, while ``floor`` absorbs model error that does not
    vanish with ``n`` (e.g. the O(1/n) finite-system gap to a
    mean-field limit, or histogram discretization).
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    return floor + base / math.sqrt(n)


def assert_ensemble_close(
    observed: float,
    predicted: float,
    *,
    n: int,
    base: float = 1.0,
    floor: float = 0.01,
    label: str = "ensemble mean",
) -> None:
    """Assert an empirical ensemble statistic matches a prediction.

    The shared check for every "simulation agrees with theory" test:
    second-moment formulas (``test_theory``), fluid-limit parity
    (``test_meanfield``).  Relative error is measured against the
    prediction; tolerance comes from :func:`ensemble_tolerance`.
    """
    scale = max(abs(float(predicted)), 1e-12)
    error = abs(float(observed) - float(predicted)) / scale
    tolerance = ensemble_tolerance(n, base=base, floor=floor)
    assert error <= tolerance, (
        f"{label}: observed {observed!r} vs predicted {predicted!r} -> "
        f"relative error {error:.4f} > tolerance {tolerance:.4f} (n={n})"
    )


@st.composite
def server_instances(draw, max_servers: int = 24, max_queue: int = 60):
    """A random (queues, rates) pair with well-conditioned rates."""
    n = draw(st.integers(min_value=1, max_value=max_servers))
    queues = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=max_queue),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    rates = np.array(
        draw(
            st.lists(
                st.floats(
                    min_value=0.25,
                    max_value=64.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    return queues, rates


@st.composite
def edge_case_snapshots(draw, max_servers: int = 24):
    """A (queues, rates) snapshot biased toward the solvers' edge cases.

    Small queues over rates drawn mostly from ``{1, 2, 4}`` give tied
    loads and tied ``(2q+1)/mu`` keys; one draw in a few has all-zero
    queues; ``n == 1`` is in range; other rates are heterogeneous floats.
    """
    n = draw(st.integers(min_value=1, max_value=max_servers))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        queues = np.zeros(n, dtype=np.int64)
    else:
        queues = np.array(
            draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), dtype=np.int64
        )
    rate = st.one_of(
        st.sampled_from([1.0, 2.0, 4.0]),
        st.floats(min_value=0.25, max_value=64.0, allow_nan=False),
    )
    rates = np.array(draw(st.lists(rate, min_size=n, max_size=n)))
    return queues, rates


@st.composite
def dispatch_instances(draw, max_servers: int = 24, max_arrivals: int = 200):
    """A random (queues, rates, arrivals) dispatching instance."""
    queues, rates = draw(server_instances(max_servers=max_servers))
    arrivals = draw(st.integers(min_value=1, max_value=max_arrivals))
    return queues, rates, arrivals
