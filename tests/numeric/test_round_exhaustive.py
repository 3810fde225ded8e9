"""``round_fp16`` against numpy's cast on every one of the 2^32 fp32
encodings.

Several minutes of CPU, so it is outside tier-1: the ``exhaustive``
marker is deselected by default (``pyproject.toml``) and a CI job of its
own runs ``python -m pytest -m exhaustive``.
"""

import numpy as np
import pytest

from repro.numeric.lowprec import round_fp16

#: Encodings per slab: 16 M inputs keep the sweep to ~256 MB of buffers.
SLAB = 1 << 24


@pytest.mark.exhaustive
def test_round_fp16_matches_numpy_on_all_fp32_inputs():
    bits = np.empty(SLAB, dtype=np.uint32)
    out = np.empty(SLAB, dtype=np.float32)
    step = np.arange(SLAB, dtype=np.uint32)
    mismatches = 0
    for start in range(0, 1 << 32, SLAB):
        np.add(step, np.uint32(start), out=bits)
        x = bits.view(np.float32)
        round_fp16(x, out)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = x.astype(np.float16).astype(np.float32)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(out), nan), hex(start)
        mismatches += int(np.count_nonzero(
            (out.view(np.uint32) != ref.view(np.uint32)) & ~nan))
    assert mismatches == 0
