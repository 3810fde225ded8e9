"""One attention core: no attention-backend option anywhere.

The streaming kernel (:mod:`repro.numeric.flash`) is the only production
attention; the dense ``S x S`` computation it replaced is the tolerance
oracle in :mod:`repro.reference`, reached by tests and the bench, never
by a constructor argument.  An AST walk over the packages that build
models keeps a ``backend`` / ``attn_backend`` parameter from coming
back.  The one exception is :class:`~repro.training.STVTrainer`'s
keyword, which accepts only ``"streaming"`` and stays until the
run-level benchmark stops passing it.
"""

import ast
from pathlib import Path
from typing import Set

import repro

PACKAGE = Path(repro.__file__).parent
GUARDED = ("numeric", "parallel", "training", "serving")
NAMES = {"backend", "attn_backend"}
SHIM = {"training/stv_trainer.py:STVTrainer.__init__"}


def backend_parameters(source: str, where: str) -> Set[str]:
    """``where:Class.function`` for every function in ``source`` with a
    parameter named in :data:`NAMES`."""
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                if any(p.arg in NAMES for p in params):
                    found.add(f"{where}:{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(source), "")
    return found


def test_guard_catches_planted_parameters():
    planted = "\n".join([
        "def f(x, backend='dense'): pass",
        "class M:",
        "    def __init__(self, *, attn_backend='dense'): pass",
        "    def g(self, backend_name): pass",
    ])
    assert backend_parameters(planted, "m.py") == {
        "m.py:f", "m.py:M.__init__",
    }


def test_only_the_trainer_shim_takes_a_backend():
    found = set()
    for package in GUARDED:
        for path in (PACKAGE / package).rglob("*.py"):
            found |= backend_parameters(
                path.read_text(), path.relative_to(PACKAGE).as_posix()
            )
    assert found == SHIM
