"""Chunk planning: how a flat arena plane is split across workers.

A :class:`ChunkPlan` carves ``[0, n)`` into contiguous, cache-friendly
ranges, one (or a few) per worker.  Two alignment rules make the split
safe for the substrate's kernels:

* **Vector alignment.**  Every interior boundary is a multiple of
  ``align`` (the SVE vector length in fp32 lanes), so a chunk never
  splits a vector-length tile — the numpy analogue of handing each
  OpenMP thread whole-vector main loops (§4.6).  Only the final
  boundary, ``n`` itself, may be unaligned (the tail predicate).
* **Balance.**  Chunks differ by at most one ``align`` quantum, so no
  worker is handed more than one extra vector tile of work.

Because every routed kernel is elementwise (Adam update, scale,
copy, fixed-order reduce), chunk boundaries cannot change any result
bit: the chunked execution is bitwise identical to the serial ancestor
for *any* plan, which the hypothesis suite in ``tests/exec`` asserts
across adversarial sizes and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

#: Default vector length (fp32 lanes) chunk boundaries are aligned to —
#: matches :class:`repro.optim.implementations.GraceAdam`'s default
#: ``vector_length`` (the ``svcntw()`` of a 512-bit SVE implementation).
DEFAULT_ALIGN = 16


@dataclass(frozen=True)
class ChunkPlan:
    """An ordered partition of ``[0, n)`` into worker-aligned ranges.

    Attributes:
        n: total element count covered.
        chunks: ``(lo, hi)`` pairs, in ascending order, tiling ``[0, n)``
            exactly.
        align: the vector quantum interior boundaries are multiples of.
    """

    n: int
    chunks: Tuple[Tuple[int, int], ...]
    align: int

    @classmethod
    def split(
        cls, n: int, n_chunks: int, align: int = DEFAULT_ALIGN
    ) -> "ChunkPlan":
        """Partition ``[0, n)`` into at most ``n_chunks`` aligned ranges.

        Fewer chunks are produced when ``n`` is too small to give every
        chunk at least one ``align`` quantum (a chunk smaller than one
        vector tile would defeat the whole-vector main loop).
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        if align < 1:
            raise ValueError(f"align must be >= 1, got {align}")
        if n == 0:
            return cls(0, (), align)
        # Quanta of `align` elements; the tail partial quantum (if any)
        # rides with the last chunk.
        quanta = n // align
        usable = min(n_chunks, max(1, quanta))
        base, extra = divmod(quanta, usable)
        chunks = []
        cursor = 0
        for i in range(usable):
            take = (base + (1 if i < extra else 0)) * align
            hi = cursor + take
            if i == usable - 1:
                hi = n
            chunks.append((cursor, hi))
            cursor = hi
        return cls(n, tuple(chunks), align)

    def __post_init__(self) -> None:
        cursor = 0
        for lo, hi in self.chunks:
            if lo != cursor or hi <= lo:
                raise ValueError(
                    f"chunks must tile [0, {self.n}) in order; "
                    f"got boundary ({lo}, {hi}) at cursor {cursor}"
                )
            if hi != self.n and hi % self.align:
                raise ValueError(
                    f"interior boundary {hi} splits a {self.align}-element "
                    f"vector tile"
                )
            cursor = hi
        if cursor != self.n:
            raise ValueError(f"chunks cover [0, {cursor}), expected [0, {self.n})")

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)

    def largest_chunk(self) -> int:
        """Elements in the biggest chunk (0 for an empty plan)."""
        return max((hi - lo for lo, hi in self.chunks), default=0)
