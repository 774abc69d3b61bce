"""API integrity: every package imports cleanly and every name exported in
``__all__`` actually exists — the contract a downstream user relies on —
and no module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TESTS = Path(__file__).resolve().parent

MODULES = [
    "repro",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.process",
    "repro.sim.rng",
    "repro.sim.timers",
    "repro.net",
    "repro.net.bandwidth",
    "repro.net.faults",
    "repro.net.latency",
    "repro.net.message",
    "repro.net.network",
    "repro.net.topology",
    "repro.crypto",
    "repro.crypto.cost",
    "repro.crypto.feldman",
    "repro.crypto.field",
    "repro.crypto.hashing",
    "repro.crypto.memo",
    "repro.crypto.merkle",
    "repro.crypto.polynomial",
    "repro.crypto.shamir",
    "repro.crypto.signatures",
    "repro.crypto.threshold",
    "repro.crypto.vss_encryption",
    "repro.core",
    "repro.core.batching",
    "repro.core.bv_broadcast",
    "repro.core.clocks",
    "repro.core.commit",
    "repro.core.dbft",
    "repro.core.distance",
    "repro.core.node",
    "repro.core.obfuscation",
    "repro.core.replica",
    "repro.core.services",
    "repro.core.smr",
    "repro.core.types",
    "repro.core.vvb",
    "repro.baselines",
    "repro.baselines.fino",
    "repro.baselines.hotstuff",
    "repro.baselines.pompe",
    "repro.attacks",
    "repro.attacks.byzantine",
    "repro.attacks.pompe_attacks",
    "repro.workload",
    "repro.workload.amm",
    "repro.workload.arrivals",
    "repro.workload.clients",
    "repro.workload.generator",
    "repro.workload.mev",
    "repro.workload.spec",
    "repro.metrics",
    "repro.metrics.ascii_chart",
    "repro.metrics.capacity",
    "repro.metrics.fairness",
    "repro.metrics.stats",
    "repro.metrics.tracelog",
    "repro.harness",
    "repro.harness.cluster",
    "repro.harness.config",
    "repro.harness.experiments",
    "repro.harness.factory",
    "repro.harness.sweep",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_cli_module_importable():
    import repro.__main__  # noqa: F401


def _top_level_imports(tree):
    """``(name bound, line)`` for each import at module level, including
    those under a top-level ``if``/``try`` (``TYPE_CHECKING`` guards)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Every name the module reads, including inside string annotations,
    plus the names its ``__all__`` lists."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as ``"Network"``
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return used


def test_no_module_imports_a_name_it_never_uses():
    """Over ``src/repro`` and ``tests/``.  ``__init__.py`` files are exempt:
    their imports are re-exports.  In ``tests/`` a name some function
    takes as a parameter counts as used: pytest injects an imported
    fixture by that name."""
    unused = []
    for path in sorted([*SRC.rglob("*.py"), *TESTS.rglob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        if TESTS in path.parents:
            used |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
        unused += [
            f"{path.relative_to(SRC.parents[1])}:{line}: {name}"
            for name, line in _top_level_imports(tree)
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_baseline_or_workload_module_imports_the_lyra_replica():
    """Pompē, Fino and the clients share the replica shell
    (``repro.core.replica``), not Lyra's node module."""
    offenders = []
    for package in ("baselines", "workload"):
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    # ``from repro.core import node`` counts too.
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(SRC.parents[1])}:{node.lineno}: {name}"
                    for name in names
                    if name == "repro.core.node"
                ]
    assert not offenders, "imports of repro.core.node:\n" + "\n".join(offenders)
