"""Public-API surface tests: exports resolve, everything is documented."""

import inspect

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name!r}"

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_no_accidental_private_exports(self):
        assert not [name for name in repro.__all__ if name.startswith("_")]


class TestDocumentation:
    """Every public item carries a real docstring (deliverable e)."""

    def test_package_docstring(self):
        assert repro.__doc__ and "Stochastic Coordination" in repro.__doc__

    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_public_items_documented(self, name):
        obj = getattr(repro, name)
        if isinstance(obj, (tuple, dict, str, float, int)):
            return  # constants document themselves at definition site
        doc = inspect.getdoc(obj)
        assert doc and len(doc.split()) >= 3, f"{name} lacks a docstring"

    @pytest.mark.parametrize(
        "cls_name",
        [
            "SCDPolicy",
            "TWFPolicy",
            "Simulation",
            "ResponseTimeHistogram",
            "SizedServerQueue",
        ],
    )
    def test_public_methods_documented(self, cls_name):
        cls = getattr(repro, cls_name)
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls_name}.{name} lacks a docstring"


class TestSubmodules:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.core.iwl",
            "repro.core.probabilities",
            "repro.core.qp_reference",
            "repro.core.estimation",
            "repro.core.scd",
            "repro.core.twf",
            "repro.core.theory",
            "repro.policies",
            "repro.policies.base",
            "repro.policies.greedy",
            "repro.policies.jsq",
            "repro.policies.power_of_d",
            "repro.policies.jiq",
            "repro.policies.lsq",
            "repro.policies.led",
            "repro.policies.round_robin",
            "repro.policies.random_policies",
            "repro.policies.scd",
            "repro.policies.twf",
            "repro.sim",
            "repro.sim.engine",
            "repro.sim.arrivals",
            "repro.sim.service",
            "repro.sim.backends",
            "repro.sim.metrics",
            "repro.sim.seeding",
            "repro.sim.sized",
            "repro.sim.scenarios",
            "repro.workloads",
            "repro.workloads.heterogeneity",
            "repro.workloads.scenarios",
            "repro.analysis",
            "repro.analysis.ccdf",
            "repro.analysis.tables",
            "repro.analysis.runtime",
            "repro.analysis.stability",
            "repro.experiments.persistence",
            "repro.experiments.figures",
            "repro.analysis.replication",
            "repro.cli",
        ],
    )
    def test_module_docstrings(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.split()) > 5, (
            f"{module_name} lacks a substantive module docstring"
        )

    def test_doctest_examples_in_package_docstring(self):
        """The docstring's non-skipped example must actually hold."""
        import numpy as np

        q, mu = np.array([2, 1, 3, 1]), np.array([5.0, 2.0, 1.0, 1.0])
        assert repro.compute_iwl(q, mu, arrivals=7) == 1.375
