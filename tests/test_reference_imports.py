"""Import-direction guards, by AST walk over ``src/repro``.

``repro.reference`` holds baselines and oracles only: production code
must never depend on it — the two measurement modules are its only
importers.  ``repro.numeric`` is single-threaded math: nothing in it
imports the executor (``repro.exec``), so no kernel there can grow a
thread fan-out over calls too short to repay one (DESIGN §8).
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ALLOWED = {"training/bench.py", "tune/search.py"}


def _imports(tree: ast.AST, name: str) -> bool:
    """Whether ``tree`` imports ``repro.<name>`` or anything below it."""
    target = f"repro.{name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith(target) for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # (the package uses absolute imports only)
            module = node.module or ""
            if module.startswith(target):
                return True
            if module == "repro" and any(a.name == name for a in node.names):
                return True
    return False


def _importers(root: Path, name: str) -> set:
    return {
        path.relative_to(PACKAGE).as_posix()
        for path in root.rglob("*.py")
        if _imports(ast.parse(path.read_text()), name)
    }


def test_only_bench_and_tune_import_reference():
    assert _importers(PACKAGE, "reference") - {"reference.py"} == ALLOWED


def test_numeric_does_not_import_exec():
    assert _importers(PACKAGE / "numeric", "exec") == set()


def test_guard_sees_every_import_form():
    for planted in (
        "import repro.exec.pool",
        "from repro.exec.pool import get_pool",
        "from repro import exec",
        "def f():\n    from repro.exec import ops",
    ):
        assert _imports(ast.parse(planted), "exec"), planted
    assert not _imports(ast.parse("from repro import tune"), "exec")
