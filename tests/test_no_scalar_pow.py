"""No general power on the substrate's hot paths.

numpy fast-paths only exponents 2, 0.5 and -1; any other one — ``x**3``,
``np.power(x, 3)`` — runs libm ``pow`` one element at a time, about a
hundred times slower than the multiplies it stands for (DESIGN, "numeric
slow paths": that was two thirds of a training step).  An AST walk over
the substrate packages keeps the spelling out: no ``np.power`` /
``np.float_power`` call, and no ``**`` whose exponent is a numeric
literal other than 2 unless the base is a literal too (``1024**3``,
``2.0**12`` are constants folded at compile time; ``beta1 ** step`` is a
scalar with a runtime exponent; ``hidden**2`` is the fast path; 0.5 and
-1 have their own names, ``np.sqrt`` and ``np.reciprocal`` / ``1.0 / x``).
"""

import ast
from pathlib import Path
from typing import List

import repro

PACKAGE = Path(repro.__file__).parent
GUARDED = ("numeric", "exec", "optim", "parallel", "serving", "tensors",
           "training", "core")


def _numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    )


def slow_power_sites(source: str) -> List[int]:
    """Line numbers of every general-power spelling in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Pow
        ):
            base, exponent = (
                (node.left, node.right) if isinstance(node, ast.BinOp)
                else (node.target, node.value)
            )
            if (
                _numeric_literal(exponent)
                and ast.literal_eval(exponent) != 2
                and not _numeric_literal(base)
            ):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("power", "float_power")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_catches_planted_powers():
    planted = "\n".join([
        "y = x**3",                       # 1
        "y = np.power(x, 3, out=t)",      # 2
        "y = numpy.float_power(x, 2)",    # 3
        "y = (a + b) ** 0.5",             # 4
        "y = x ** -1",                    # 5
        "x **= 3",                        # 6
    ])
    assert slow_power_sites(planted) == [1, 2, 3, 4, 5, 6]


def test_guard_passes_the_allowed_spellings():
    allowed = "\n".join([
        "gib = 1024**3",
        "scale = 2.0**12",
        "bc1 = 1 - beta1 ** step",
        "flops = 12 * hidden**2",
        "sech2 = 1.0 - tanh_inner**2",
        "x **= 2",
        "t = (x * x) * x",
        "f(**kwargs)",
    ])
    assert slow_power_sites(allowed) == []


def test_substrate_has_no_general_power():
    sites = {
        f"{path.relative_to(PACKAGE).as_posix()}:{line}"
        for package in GUARDED
        for path in (PACKAGE / package).rglob("*.py")
        for line in slow_power_sites(path.read_text())
    }
    assert sites == set()
