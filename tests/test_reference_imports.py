"""``repro.reference`` holds baselines and oracles only: production code
must never depend on it.  An AST walk over ``src/repro`` asserts that the
two measurement modules are its only importers."""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ALLOWED = {"training/bench.py", "tune/search.py"}


def _imports_reference(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("repro.reference") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # (the package uses absolute imports only)
            module = node.module or ""
            if module.startswith("repro.reference"):
                return True
            if module == "repro" and any(
                a.name == "reference" for a in node.names
            ):
                return True
    return False


def test_only_bench_and_tune_import_reference():
    importers = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "reference.py"
        and _imports_reference(ast.parse(path.read_text()))
    }
    assert importers == ALLOWED
