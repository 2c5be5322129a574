#!/usr/bin/env python
"""Extending the library: plugging a custom dispatching policy into the
simulator and racing it against SCD.

The example implements "d-SED with memory" -- a plausible practitioner
heuristic that samples d servers rate-proportionally and keeps an EWMA of
its own past placements to avoid repeatedly hammering one sample winner.
It registers the policy under a name, so the experiment runner and the
benchmark harness can use it like any built-in.

Run:
    python examples/custom_policy.py [--rounds N]
"""

import argparse

import numpy as np

import repro
from repro.policies.base import register_policy


class MemorySEDPolicy(repro.Policy):
    """Sample d servers ~ mu, rank by q/mu plus a self-placement penalty.

    The penalty is an EWMA of this dispatcher's own recent placements --
    a cheap, communication-free herding damper (each dispatcher avoids
    *its own* recent favorites, decorrelating the fleet a little).
    """

    def __init__(self, d: int = 3, memory: float = 0.5) -> None:
        super().__init__()
        if d < 1:
            raise ValueError("d must be >= 1")
        if not 0.0 <= memory < 1.0:
            raise ValueError("memory must be in [0, 1)")
        self.d = d
        self.memory = memory
        self.name = f"memsed({d})"

    def _on_bind(self) -> None:
        m, n = self.ctx.num_dispatchers, self.ctx.num_servers
        self._penalty = np.zeros((m, n))
        self._cdf = np.cumsum(self.rates / self.rates.sum())
        self._queues = None

    def begin_round(self, round_index, queues):
        self._queues = queues
        self._penalty *= self.memory  # decay everyone's memory once per round

    def dispatch(self, dispatcher, num_jobs):
        n = self.ctx.num_servers
        counts = np.zeros(n, dtype=np.int64)
        samples = np.searchsorted(self._cdf, self.rng.random((num_jobs, self.d)))
        load = self._queues / self.rates + self._penalty[dispatcher] / self.rates
        local = load.copy()
        inv_rates = 1.0 / self.rates
        for row in samples:
            best = row[int(np.argmin(local[row]))]
            counts[best] += 1
            local[best] += inv_rates[best]
        self._penalty[dispatcher] += counts
        return counts


register_policy("memsed")(MemorySEDPolicy)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3000)
    args = parser.parse_args()

    system = repro.SystemSpec(num_servers=60, num_dispatchers=10, profile="u1_10")
    experiment = repro.Experiment(
        ["scd", "memsed", "hjsq(2)", "sed"],
        system,
        0.95,
        rounds=args.rounds,
        base_seed=21,
    )
    print("Racing a custom policy against the built-ins (rho = 0.95):\n")
    rows = []
    for record in experiment.run():
        s = record.result.summary()
        rows.append([record.result.policy_name, s["mean"], s["p99"]])
    print(repro.format_table(["policy", "mean", "p99"], rows))
    print(
        "\nThe heuristic improves on plain SED but stochastic coordination\n"
        "still wins: per-dispatcher memory only decorrelates a dispatcher\n"
        "from itself, not from the rest of the fleet."
    )


if __name__ == "__main__":
    main()
