"""Seeded input generators.

``--seed`` feeds only these generators (and the seeds handed to the
program's own model-init / data-stream / injector arguments); the
program receives generated inputs, never the seed's meaning.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def stratified_ints(rng: np.random.Generator, lo: int, hi: int,
                    n: int) -> List[int]:
    """``n`` integers covering ``[lo, hi]`` evenly, in seeded order.

    A stratified draw from U[lo, hi]: every seed sees the same multiset
    of lengths (so the total work of a run does not depend on the seed)
    in a different order, paired with different prompts.
    """
    if n < 1 or hi < lo:
        raise ValueError("need n >= 1 and lo <= hi")
    grid = np.rint(np.linspace(lo, hi, n)).astype(np.int64)
    return [int(v) for v in rng.permutation(grid)]


def requests(seed: int, n: int, vocab: int, prompt_len: Tuple[int, int],
             output_len: Tuple[int, int]) -> List[Tuple[np.ndarray, int]]:
    """``n`` serving requests: (prompt token ids, generation budget)."""
    rng = np.random.default_rng([seed, 0x5e12])
    prompts = stratified_ints(rng, *prompt_len, n)
    outputs = stratified_ints(rng, *output_len, n)
    return [
        (rng.integers(0, vocab, size=p, dtype=np.int64), o)
        for p, o in zip(prompts, outputs)
    ]


def shuffled(seed: int, items: Sequence) -> list:
    """``items`` in a seeded order (the simulator sweep's point order)."""
    rng = np.random.default_rng([seed, 0x51e0])
    return [items[i] for i in rng.permutation(len(items))]
