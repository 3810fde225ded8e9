"""No numpy float16 conversion on the training paths.

numpy's fp32<->fp16 conversion is a scalar loop (several ns per element
each way); the training paths keep fp16 *values* in fp32 storage, made by
``repro.numeric.lowprec.round_fp16`` (DESIGN §7's storage rule).  An AST
walk over the training packages keeps the native dtype out: no
``np.float16`` / ``np.half`` attribute (``astype(np.float16)``,
``dtype=np.float16``, ``arena.like(np.float16)``) and no float16 dtype
spelled as a string.  ``repro.reference`` is exempt — its
``dp_step_reference`` is the numpy-cast oracle.
"""

import ast
from pathlib import Path
from typing import List

import repro

PACKAGE = Path(repro.__file__).parent
GUARDED = ("core", "optim", "training", "parallel")
FP16_ATTRS = {"float16", "half"}
FP16_STRINGS = {"float16", "half", "f2", "<f2", "=f2", "e", "<e", "=e"}
DTYPE_TAKERS = {"astype", "like", "view", "dtype"}


def _is_fp16_string(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value in FP16_STRINGS


def fp16_sites(source: str) -> List[int]:
    """Line numbers of every float16 spelling in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FP16_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None))
            if (name in DTYPE_TAKERS and node.args
                    and _is_fp16_string(node.args[0])):
                lines.append(node.lineno)
            elif any(kw.arg == "dtype" and _is_fp16_string(kw.value)
                     for kw in node.keywords):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_guard_catches_planted_casts():
    planted = "\n".join([
        "y = x.astype(np.float16)",               # 1
        "a = arena.like(np.float16)",             # 2
        "b = np.empty(n, dtype=np.float16)",      # 3
        "c = np.zeros(n, dtype='float16')",       # 4
        "d = x.astype('f2')",                     # 5
        "e = numpy.half(1.0)",                    # 6
        "f = np.dtype('e')",                      # 7
        "g = x.view(np.float16)",                 # 8
    ])
    assert fp16_sites(planted) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_guard_passes_fp32_storage():
    allowed = "\n".join([
        "y = round_fp16(x, out)",
        "a = arena.like()",
        "b = np.empty(n, dtype=np.float32)",
        "c = x.astype(np.float32)",
        "d = precision == 'fp16'",
        "e = {'fp16': round_fp16}",
    ])
    assert fp16_sites(allowed) == []


def test_training_paths_have_no_fp16_conversion():
    sites = {
        f"{path.relative_to(PACKAGE).as_posix()}:{line}"
        for package in GUARDED
        for path in (PACKAGE / package).rglob("*.py")
        for line in fp16_sites(path.read_text())
    }
    assert sites == set()
