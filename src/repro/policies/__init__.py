"""Dispatching policies: SCD, TWF, the baselines and the policy framework.

The SCD family (``scd``, ``scd-sized``, ``twf``) is built on the math of
:mod:`repro.core`; the baselines need only the greedy solver.  Importing
this package registers every policy with the name registry, so
``make_policy("scd")``, ``make_policy("hlsq")`` etc. work after
``import repro.policies`` (importing any submodule imports it).
"""

from .base import Policy, SystemContext, available_policies, make_policy, register_policy
from .greedy import greedy_batch_assign, greedy_batch_assign_heap, greedy_certificate_ok
from .jiq import JIQPolicy
from .jsq import JSQPolicy, SEDPolicy
from .led import LEDPolicy
from .lsq import LSQPolicy
from .power_of_d import PowerOfDPolicy
from .random_policies import UniformRandomPolicy, WeightedRandomPolicy
from .round_robin import RoundRobinPolicy, WeightedRoundRobinPolicy
from .scd import SCDPolicy, SizedSCDPolicy
from .twf import TWFPolicy

__all__ = [
    "Policy",
    "SystemContext",
    "make_policy",
    "available_policies",
    "register_policy",
    "greedy_batch_assign",
    "greedy_batch_assign_heap",
    "greedy_certificate_ok",
    "SCDPolicy",
    "SizedSCDPolicy",
    "TWFPolicy",
    "JSQPolicy",
    "SEDPolicy",
    "PowerOfDPolicy",
    "JIQPolicy",
    "LSQPolicy",
    "LEDPolicy",
    "RoundRobinPolicy",
    "WeightedRoundRobinPolicy",
    "WeightedRandomPolicy",
    "UniformRandomPolicy",
]
