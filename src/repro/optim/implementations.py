"""The three Adam implementations of Table 3.

All produce bit-identical fp32 updates (the unit tests assert this); they
differ in *how* they traverse memory, mirroring the real designs:

* :class:`ReferenceAdam` — PyTorch-native style ("PT-CPU"): a per-parameter
  loop of unfused numpy expressions that allocates temporaries on every op.
* :class:`CPUAdam` — DeepSpeed's x86 design: parameters flattened into one
  contiguous buffer, updated with fused in-place vector operations.
* :class:`GraceAdam` — the paper's ARM design (§4.6): the flat buffer walked
  in cache-sized tiles with a runtime-chosen vector length (the numpy stand-
  in for SVE's ``svcntw()`` length-agnostic loops), fused in-place math per
  tile, and OpenMP-style tile partitioning across worker threads — executed
  for real on arena-backed steps via the chunked kernel executor
  (:mod:`repro.exec`), whose worker-aligned chunks and fused scratch
  kernels stay bitwise identical to the serial walk
  (:func:`repro.reference.grace_adam_serial`).

Latency on actual Grace hardware is priced by
:func:`repro.optim.kernels.adam_latency_seconds`, calibrated to Table 3.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro import tune
from repro.exec.ops import parallel_adam_flat
from repro.exec.pool import KernelPool
from repro.optim.adam import (
    AdamConfig,
    AdamParamState,
    adam_invert,
    adam_update,
)
from repro.tensors.arena import FlatArena
from repro.tensors.errors import TensorValidationError, ensure_dense_fp32

Params = Dict[str, np.ndarray]
Grads = Dict[str, np.ndarray]


class AdamOptimizer:
    """Base class: owns per-parameter state and the shared config.

    If ``params`` already form a :class:`FlatArena` (their values are
    packed views of one buffer), the optimizer binds to it at
    construction and mirrors its moment state into same-layout arenas,
    enabling the flat fast paths in the subclasses and the one-memcpy
    rollback in :class:`repro.optim.rollback.SnapshotRollback`.  Plain
    dicts keep the historical per-tensor behaviour.

    Args:
        params: name -> fp32 master weight array (updated in place).
        config: AdamW hyperparameters.
    """

    kernel_name = "abstract"
    #: Whether ``step`` mutates ``state[name].m/.v`` in place.  Arena-
    #: backed moment storage is only coherent for in-place updaters;
    #: :class:`ReferenceAdam` rebinds state arrays every step and opts out.
    arena_state_inplace = True

    def __init__(self, params: Params, config: AdamConfig | None = None):
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        for name, p in params.items():
            ensure_dense_fp32(name, p)
        self.params = params
        self.config = config or AdamConfig()
        self.state: Dict[str, AdamParamState] = {
            name: AdamParamState.zeros_like(p) for name, p in params.items()
        }
        self.arena: Optional[FlatArena] = None
        self.arena_m: Optional[FlatArena] = None
        self.arena_v: Optional[FlatArena] = None
        wrapped = FlatArena.wrap(params)
        if wrapped is not None:
            self.bind_arena(wrapped)

    def bind_arena(self, arena: FlatArena) -> None:
        """Bind to a parameter arena (and arena-back the moments).

        ``arena.views`` must alias ``self.params`` value-for-value.  For
        in-place implementations the Adam moments are moved into fresh
        same-layout arenas so ``(p, m, v)`` are three parallel flat
        planes — the layout GraceAdam's tiled walk and the snapshot
        rollback both exploit.
        """
        if set(arena.views) != set(self.params):
            raise TensorValidationError(
                "arena tensor set does not match optimizer parameters"
            )
        self.arena = arena
        if not self.arena_state_inplace:
            return
        self.arena_m = arena.like()
        self.arena_v = arena.like()
        for name, st in self.state.items():
            m_view = self.arena_m.views[name]
            m_view[...] = st.m
            st.m = m_view
            v_view = self.arena_v.views[name]
            v_view[...] = st.v
            st.v = v_view

    @property
    def step_count(self) -> int:
        """Steps applied so far (uniform across parameters)."""
        return next(iter(self.state.values())).step

    def step(self, grads: Grads) -> None:
        """Apply one update from fp32 gradients (in place).

        ``grads`` may cover a *subset* of parameters — the bucket-wise
        speculative stepping of §4.4 relies on this (CPUAdam is the
        exception: its fused flat buffer requires the full set).
        """
        raise NotImplementedError

    def invert_step(self, grads: Grads) -> None:
        """Undo the most recent update given the gradients that produced it
        (the in-place rollback primitive of §4.4)."""
        for name, grad in grads.items():
            adam_invert(self.params[name], grad, self.state[name], self.config)

    def _check_grads(self, grads: Grads) -> None:
        unknown = set(grads) - set(self.params)
        if unknown:
            raise KeyError(f"gradients for unknown parameters {sorted(unknown)}")
        if not grads:
            raise ValueError("step called with no gradients")
        for name, g in grads.items():
            if np.shape(g) != self.params[name].shape:
                raise TensorValidationError(
                    f"gradient {name!r} has shape {np.shape(g)}, "
                    f"expected {self.params[name].shape}"
                )

    def _uniform_step(self) -> Optional[int]:
        """The shared step count, or ``None`` if parameters diverge."""
        steps = {st.step for st in self.state.values()}
        return steps.pop() if len(steps) == 1 else None


class ReferenceAdam(AdamOptimizer):
    """Unfused per-tensor Adam — the "PT-CPU" row of Table 3.

    Deliberately written with out-of-place temporaries, the memory-traffic
    pattern that makes the native implementation >3x slower on Grace.
    """

    kernel_name = "pt_cpu"
    # The out-of-place style rebinds st.m/st.v to fresh temporaries every
    # step, so arena-backed moment views would silently go stale.
    arena_state_inplace = False

    def step(self, grads: Grads) -> None:
        self._check_grads(grads)
        c = self.config
        for name in grads:
            param = self.params[name]
            grad = np.asarray(grads[name], dtype=np.float32)
            st = self.state[name]
            st.step += 1
            # Out-of-place expressions: every line allocates a temporary.
            st.m = c.beta1 * st.m + (1 - c.beta1) * grad
            st.v = c.beta2 * st.v + (1 - c.beta2) * grad * grad
            if c.bias_correction:
                bc1 = 1 - c.beta1**st.step
                bc2 = 1 - c.beta2**st.step
            else:
                bc1 = bc2 = 1.0
            m_hat = st.m / bc1
            v_hat = st.v / bc2
            update = m_hat / (np.sqrt(v_hat) + c.eps)
            if c.weight_decay:
                param *= 1.0 - c.lr * c.weight_decay
            param -= c.lr * update


class CPUAdam(AdamOptimizer):
    """DeepSpeed-style fused flat-buffer Adam (the "CPU-Adam" row).

    Parameters live in a :class:`FlatArena` (adopted at construction if
    the caller's dict is not already arena-backed); each step is one
    fused pass over the flat buffer on the chunked executor, bitwise
    identical to the whole-plane serial pass it descends from
    (:func:`repro.reference.cpu_adam_serial`).  Because the per-tensor
    params and state are *views* of the same memory, there is no
    scatter-back copy after the update and no re-sync after an
    inversion — coherence is structural.

    Args:
        params: name -> fp32 master weights.
        config: hyperparameters.
        pool: kernel pool for the chunked step (``None`` uses the
            process-default pool).
    """

    kernel_name = "cpu_adam"

    def __init__(
        self,
        params: Params,
        config: AdamConfig | None = None,
        pool: KernelPool | None = None,
    ):
        super().__init__(params, config)
        if self.arena is None:
            self.bind_arena(FlatArena.adopt(params))
        unpadded = self.arena.layout.unpadded
        self._flat_p = self.arena.flat[:unpadded]
        self._flat_m = self.arena_m.flat[:unpadded]
        self._flat_v = self.arena_v.flat[:unpadded]
        self._flat_step = 0
        self._pool = pool

    def _flatten_grads(self, grads: Grads) -> np.ndarray:
        self._check_grads(grads)
        missing = set(self.params) - set(grads)
        if missing:
            raise KeyError(
                "CPUAdam's fused flat buffer needs the full gradient set; "
                f"missing {sorted(missing)}"
            )
        unpadded = self.arena.layout.unpadded
        flat = self.arena.flat_of(grads)
        if flat is not None:
            return flat[:unpadded]
        self.arena.note_copy(unpadded * 4)
        return np.concatenate(
            [np.asarray(grads[name], dtype=np.float32).ravel()
             for name in self.arena.layout.names]
        )

    def step(self, grads: Grads) -> None:
        g = self._flatten_grads(grads)
        self._flat_step += 1
        parallel_adam_flat(
            self._flat_p, self._flat_m, self._flat_v, g,
            self.config, self._flat_step, pool=self._pool,
        )
        for st in self.state.values():
            st.step = self._flat_step
        # The scatter-back the dict design needed: p, m, v written once each.
        self.arena.note_alias(3 * self._flat_p.nbytes)

    def invert_step(self, grads: Grads) -> None:
        super().invert_step(grads)
        # Params/state are arena views, so the flat mirrors are already
        # coherent; only the shared step counter needs unwinding.
        self._flat_step -= 1


class GraceAdam(AdamOptimizer):
    """Tiled, length-agnostic Adam for Grace (§4.6).

    The update walks each parameter in ``tile_size``-element chunks sized to
    the Grace L2 slice, applying the fused vector kernel per tile — the
    numpy analogue of the SVE ``svld1/svmla/svsqrt`` pipeline with
    ``svprfm`` prefetch.  ``vector_length`` is discovered at runtime
    (``svcntw()``) and tiles are rounded to whole vectors.

    Args:
        params: name -> fp32 master weights.
        config: hyperparameters.
        tile_size: elements per cache tile (the paper's TILE constant).
            ``None`` resolves the ``grace.tile_size`` tunable — the
            registry default, or the host-measured value when a tuning
            profile is active.
        vector_length: SVE vector width in fp32 lanes; tiles are rounded
            down to a multiple of this to mirror whole-vector main loops,
            and executor chunk boundaries are aligned to it.
        n_threads: modelled OpenMP thread count for the Table 3 latency
            story (what Grace hardware would use; independent of the
            executor's real worker threads below).
        pool: kernel pool the fused flat step executes on (``None`` uses
            the process-default pool).
    """

    kernel_name = "grace_adam"

    def __init__(
        self,
        params: Params,
        config: AdamConfig | None = None,
        tile_size: int | None = None,
        vector_length: int = 16,
        n_threads: int = 72,
        pool: KernelPool | None = None,
    ):
        super().__init__(params, config)
        if tile_size is None:
            tile_size = tune.value("grace.tile_size")
        if tile_size < 1 or vector_length < 1 or n_threads < 1:
            raise ValueError("tile_size, vector_length, n_threads must be >= 1")
        self.vector_length = vector_length
        self.tile_size = max(vector_length, tile_size - tile_size % vector_length)
        self.n_threads = n_threads
        self._pool = pool

    def _tiles(self, n: int) -> Iterable[Tuple[int, int]]:
        for lo in range(0, n, self.tile_size):
            yield lo, min(n, lo + self.tile_size)

    def _step_flat(self, flat_g: np.ndarray, step: int) -> None:
        """One fused pass over the whole arena (p, m, v planes) on the
        chunked executor.

        Bitwise-identical to the per-tensor loop: the update is purely
        elementwise, so tile boundaries (per-tensor or arena-wide) cannot
        change any result bit.
        """
        n = self.arena.layout.unpadded
        parallel_adam_flat(
            self.arena.flat[:n], self.arena_m.flat[:n],
            self.arena_v.flat[:n], flat_g,
            self.config, step, pool=self._pool,
            align=self.vector_length,
        )
        for st in self.state.values():
            st.step = step

    def step(self, grads: Grads) -> None:
        self._check_grads(grads)
        c = self.config
        if (self.arena is not None and self.arena_m is not None
                and len(grads) == len(self.params)):
            # Full-set step on an arena: if the gradients are themselves
            # arena-backed with the same layout, update all three planes
            # in one flat tiled walk with zero copies.
            flat_g = self.arena.flat_of(grads)
            step = self._uniform_step()
            if flat_g is not None and step is not None:
                self._step_flat(flat_g[:self.arena.layout.unpadded],
                                step + 1)
                return
        # Subset (or non-arena) step — what STV's bucket-wise speculative
        # stepping takes: walk each tensor in cache tiles, the numpy
        # analogue of the svld1/svmla/svsqrt pipeline.
        for name in grads:
            st = self.state[name]
            st.step += 1
            flat_p = self.params[name].reshape(-1)
            flat_g = np.asarray(grads[name], dtype=np.float32).reshape(-1)
            flat_m = st.m.reshape(-1)
            flat_v = st.v.reshape(-1)
            for lo, hi in self._tiles(flat_p.size):
                adam_update(flat_p[lo:hi], flat_m[lo:hi], flat_v[lo:hi],
                            flat_g[lo:hi], c, st.step)


_IMPLEMENTATIONS = {
    "pt_cpu": ReferenceAdam,
    "cpu_adam": CPUAdam,
    "grace_adam": GraceAdam,
}


def make_optimizer(
    kernel: str, params: Params, config: AdamConfig | None = None
) -> AdamOptimizer:
    """Construct an Adam implementation by its Table 3 kernel name."""
    try:
        cls = _IMPLEMENTATIONS[kernel]
    except KeyError:
        raise KeyError(
            f"unknown Adam kernel {kernel!r}; known: {sorted(_IMPLEMENTATIONS)}"
        ) from None
    return cls(params, config)
