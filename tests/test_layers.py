"""The package is a stack of layers, and every import points down it.

``src/repro`` is split into packages in one declared order (:data:`LAYERS`).
A module may import from its own package and from packages earlier in the
order, never from a later one.  Every ``import`` statement counts --
module-level, inside a function, or under ``TYPE_CHECKING`` -- because a
lazy import is still a dependency.  A cycle between packages needs at least
one import that points up the order, so this check also rules out cycles.

The one dependency that runs upward is written down as data, not as an
import: the engine-backend registry names ``repro.meanfield.backend`` in a
table and imports it on first lookup.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.sim.backends import _DEFERRED_BACKENDS, make_backend

SRC = Path(__file__).resolve().parent.parent / "src"

#: The declared order: each package may import only from itself and the
#: packages before it.  ``repro/__init__.py`` and ``repro/__main__.py`` are
#: the entry points above the stack.
LAYERS = (
    "workloads",
    "core",
    "policies",
    "sim",
    "meanfield",
    "analysis",
    "experiments",
    "runs",
    "service",
    "cli",
)

ENTRY_POINTS = {"__init__", "__main__"}


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(node: ast.AST, module: str, is_package: bool) -> list[str]:
    """Absolute names an import statement loads (each ``from`` name included)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        base = module.split(".")
        if not is_package:
            base.pop()
        base = base[: len(base) - (node.level - 1)]
        source = ".".join(base + ([node.module] if node.module else []))
    else:
        source = node.module
    return [source] + [f"{source}.{alias.name}" for alias in node.names]


def _package_of(module: str, root: Path) -> str | None:
    """The layer a ``repro`` module belongs to; None outside the package.

    ``repro`` itself (and ``from repro import X``) resolves to ``"repro"``,
    the lazy top level, which no layer may import.
    """
    parts = module.split(".")
    if parts[0] != root.name:
        return None
    if len(parts) == 1:
        return root.name
    head = parts[1]
    if (root / head).is_dir() or (root / f"{head}.py").is_file():
        return head
    return root.name  # a public name of the top level, as in ``from repro import X``


def import_edges(root: Path) -> list[tuple[str, str, str]]:
    """Every import between two packages: ``(from, to, "file:line name")``."""
    edges = []
    for path in sorted(root.rglob("*.py")):
        if path.parent == root and path.stem in ENTRY_POINTS:
            continue
        module = _module_name(path, root.parent)
        source = _package_of(module, root)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            # One edge per statement and package, named by its first target.
            found: dict[str, str] = {}
            for target in _imported_modules(node, module, path.name == "__init__.py"):
                found.setdefault(_package_of(target, root), target)
            for dest, target in found.items():
                if dest is not None and dest != source:
                    where = f"{path.relative_to(root.parent)}:{node.lineno} {target}"
                    edges.append((source, dest, where))
    return edges


def upward_imports(root: Path, layers=LAYERS) -> list[str]:
    rank = {name: index for index, name in enumerate(layers)}
    return [
        f"{where} ({source} imports {dest})"
        for source, dest, where in import_edges(root)
        if rank.get(dest, len(layers)) > rank[source]
    ]


def test_every_package_has_a_layer():
    root = SRC / "repro"
    packages = {p.name for p in root.iterdir() if (p / "__init__.py").is_file()}
    modules = {p.stem for p in root.glob("*.py")} - ENTRY_POINTS
    assert packages | modules == set(LAYERS)


def test_no_import_points_up_the_layer_order():
    assert upward_imports(SRC / "repro") == []


def test_core_imports_no_other_package():
    """The paper's math (Algorithms 3 and 4, SCD's decision) stands alone."""
    assert [where for source, _, where in import_edges(SRC / "repro") if source == "core"] == []


def test_walker_sees_lazy_relative_and_top_level_imports(tmp_path):
    """A planted upward import is caught in each form it can take."""
    root = tmp_path / "repro"
    for package in ("sim", "experiments"):
        (root / package).mkdir(parents=True)
        (root / package / "__init__.py").write_text("")
    (root / "__init__.py").write_text("from .experiments import grid\n")
    (root / "experiments" / "grid.py").write_text("from ..sim import engine\n")
    (root / "sim" / "engine.py").write_text(
        "def run():\n"
        "    from ..experiments import grid\n"
        "    import repro.experiments.grid\n"
        "    from repro import Experiment\n"
    )
    found = upward_imports(root, ("sim", "experiments"))
    assert found == [
        "repro/sim/engine.py:2 repro.experiments (sim imports experiments)",
        "repro/sim/engine.py:3 repro.experiments.grid (sim imports experiments)",
        "repro/sim/engine.py:4 repro (sim imports repro)",
    ]


@pytest.mark.parametrize("name", sorted(_DEFERRED_BACKENDS))
def test_deferred_backend_registers_from_its_module(name):
    """Each table entry names the module whose import registers it."""
    assert type(make_backend(name)).__module__ == _DEFERRED_BACKENDS[name]
