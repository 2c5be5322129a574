"""Mean-field (fluid-limit) backend: analytics instead of simulation.

The simulation kernels scale linearly in servers x rounds; the fluid
limit does not scale in servers at all.  This package tracks the
per-class queue-length *tail fractions* ``s_{j,k} = P(class-j queue >= k)``
of the empirical measure and advances them with the deterministic round
map that the stochastic system converges to as ``n -> infinity``
(propagation of chaos for the synchronous-round model):

* :mod:`repro.meanfield.odes` -- the drift / round-map algebra: class
  binning of heterogeneous rate vectors, the exact linear departure
  update for geometric capacities, the exact Poisson-split arrival
  update (``random`` / ``rr``), and the power-of-d choice arrival flux
  (``jsq(d)``, and ``jsq`` as d -> n) integrated in within-round job
  time.
* :mod:`repro.meanfield.integrator` -- fixed-step RK4 (plus Euler for
  debugging) with conservation / negativity invariant checks each step.
* :mod:`repro.meanfield.backend` -- :class:`MeanFieldBackend`, the
  ``"meanfield"`` registration in :mod:`repro.sim.backends`, consuming
  the same ``SimulationConfig`` seam as every simulation kernel and
  synthesizing results through the probe/metrics interface.  This
  package sits above ``sim``: the backend registry names
  ``repro.meanfield.backend`` in a table and imports it on the first
  lookup of ``"meanfield"``, so ``sim`` never imports it.
"""

from .backend import MeanFieldBackend
from .integrator import FixedStepIntegrator, InvariantError, euler_step, rk4_step
from .odes import FluidModel, ServerClasses, arrival_choices_for_policy

__all__ = [
    "FluidModel",
    "ServerClasses",
    "arrival_choices_for_policy",
    "FixedStepIntegrator",
    "InvariantError",
    "euler_step",
    "rk4_step",
    "MeanFieldBackend",
]
