"""Property and contract tests for the flat parameter arena."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import reference
from repro.optim.adam import AdamConfig
from repro.optim.implementations import GraceAdam
from repro.parallel.zero import ZeroShardedAdam
from repro.telemetry import Telemetry
from repro.tensors.arena import ArenaLayout, FlatArena
from repro.tensors.errors import TensorValidationError, ensure_dense_fp32


def _shapes_strategy():
    shape = st.lists(
        st.integers(min_value=1, max_value=5), min_size=1, max_size=2
    ).map(tuple)
    return st.lists(shape, min_size=1, max_size=6).map(
        lambda shapes: {f"t{i}": s for i, s in enumerate(shapes)}
    )


class TestLayout:
    def test_padding_to_world_size(self):
        layout = ArenaLayout.plan({"a": (22,)}, world_size=4)
        assert layout.unpadded == 22
        assert layout.total == 24

    def test_offsets_are_packed(self):
        layout = ArenaLayout.plan({"a": (2, 3), "b": (5,), "c": (1,)})
        assert layout.offsets == (0, 6, 11)
        assert layout.total == layout.unpadded == 12

    def test_empty_rejected(self):
        with pytest.raises(TensorValidationError):
            ArenaLayout.plan({})


class TestAliasingInvariant:
    @given(shapes=_shapes_strategy(), world=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_view_writes_hit_flat_and_back(self, shapes, world):
        arena = FlatArena.zeros(shapes, world_size=world)
        rng = np.random.default_rng(0)
        # view -> flat
        for name, view in arena.views.items():
            view[...] = rng.standard_normal(view.shape).astype(np.float32)
        rebuilt = np.concatenate(
            [arena.views[n].ravel() for n in arena.layout.names]
        )
        np.testing.assert_array_equal(
            arena.flat[: arena.layout.unpadded], rebuilt
        )
        # flat -> view
        arena.flat[...] = np.arange(arena.layout.total, dtype=np.float32)
        for name, off, shape in zip(
            arena.layout.names, arena.layout.offsets, arena.layout.shapes
        ):
            size = int(np.prod(shape))
            np.testing.assert_array_equal(
                arena.views[name].ravel(),
                np.arange(off, off + size, dtype=np.float32),
            )

    @given(shapes=_shapes_strategy(), world=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_padding_never_leaks_into_views(self, shapes, world):
        arena = FlatArena.zeros(shapes, world_size=world)
        pad = arena.layout.total - arena.layout.unpadded
        # poison the pad region; no view may see it
        arena.flat[arena.layout.unpadded:] = np.float32(np.nan)
        for view in arena.views.values():
            assert np.all(np.isfinite(view))
        # and writes through views never touch the pad
        for view in arena.views.values():
            view[...] = 1.0
        if pad:
            assert np.all(np.isnan(arena.flat[arena.layout.unpadded:]))

    def test_shards_tile_the_flat_buffer(self):
        arena = FlatArena.zeros({"a": (10,)}, world_size=4)
        arena.flat[...] = np.arange(12, dtype=np.float32)
        gathered = np.concatenate([arena.shard(r) for r in range(4)])
        np.testing.assert_array_equal(gathered, arena.flat)
        assert all(arena.shard(r).base is not None for r in range(4))


class TestWrapAdopt:
    def test_adopt_rebinds_and_wrap_roundtrips(self, rng):
        params = {
            "w": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(7).astype(np.float32),
        }
        originals = {k: v.copy() for k, v in params.items()}
        arena = FlatArena.adopt(params)
        for name in params:
            assert np.shares_memory(params[name], arena.flat)
            np.testing.assert_array_equal(params[name], originals[name])
        wrapped = FlatArena.wrap(params)
        assert wrapped is not None
        assert wrapped.flat.base is arena.flat.base or np.shares_memory(
            wrapped.flat, arena.flat
        )

    def test_wrap_rejects_unrelated_dicts(self, rng):
        params = {
            "w": rng.standard_normal(8).astype(np.float32),
            "b": rng.standard_normal(8).astype(np.float32),
        }
        assert FlatArena.wrap(params) is None

    def test_wrap_rejects_wrong_padding(self, rng):
        params = {"w": rng.standard_normal(10).astype(np.float32)}
        arena = FlatArena.adopt(params, world_size=4)  # total 12
        assert FlatArena.wrap(params, world_size=1) is None
        assert FlatArena.wrap(params, world_size=4) is not None
        assert arena.layout.total == 12

    def test_adopt_validates_inputs(self):
        with pytest.raises(TensorValidationError):
            FlatArena.adopt({"w": [1.0, 2.0]})
        with pytest.raises(TensorValidationError):
            FlatArena.adopt({"w": np.zeros(4, dtype=np.float64)})
        strided = np.zeros((4, 4), dtype=np.float32)[:, ::2]
        with pytest.raises(TensorValidationError):
            FlatArena.adopt({"w": strided})


class TestValidation:
    def test_ensure_dense_fp32_messages(self):
        with pytest.raises(TensorValidationError, match="numpy ndarray"):
            ensure_dense_fp32("x", 3.0)
        with pytest.raises(TensorValidationError, match="fp32"):
            ensure_dense_fp32("x", np.zeros(2, dtype=np.float16))
        with pytest.raises(TensorValidationError, match="contiguous"):
            ensure_dense_fp32("x", np.zeros((4, 4), dtype=np.float32).T)
        with pytest.raises(TensorValidationError, match="shape"):
            ensure_dense_fp32("x", np.zeros(2, dtype=np.float32), shape=(3,))

    def test_validation_error_is_type_and_value_error(self):
        assert issubclass(TensorValidationError, TypeError)
        assert issubclass(TensorValidationError, ValueError)

    def test_optimizer_rejects_mismatched_grad_shape(self, rng):
        params = {"w": rng.standard_normal(8).astype(np.float32)}
        opt = GraceAdam(params, AdamConfig())
        with pytest.raises(TensorValidationError, match="shape"):
            opt.step({"w": np.zeros(5, dtype=np.float32)})

    def test_fill_from_rejects_wrong_sets(self):
        arena = FlatArena.zeros({"a": (4,), "b": (4,)})
        with pytest.raises(TensorValidationError, match="missing"):
            arena.fill_from({"a": np.zeros(4, dtype=np.float32)})
        with pytest.raises(TensorValidationError, match="shape"):
            arena.fill_from({
                "a": np.zeros(4, dtype=np.float32),
                "b": np.zeros(5, dtype=np.float32),
            })


class TestRangeOf:
    def test_contiguous_and_holey_ranges(self):
        arena = FlatArena.zeros({"a": (4,), "b": (6,), "c": (2,)})
        assert arena.range_of(["a", "b"]) == (0, 10)
        assert arena.range_of(["b", "c"]) == (4, 12)
        assert arena.range_of(["c", "b"]) == (4, 12)  # order-insensitive
        assert arena.range_of(["a", "c"]) is None     # hole at b
        assert arena.range_of(["a", "nope"]) is None

    def test_snapshot_restore_roundtrip(self):
        arena = FlatArena.zeros({"a": (4,), "b": (6,)})
        arena.flat[...] = np.arange(10, dtype=np.float32)
        saved = arena.snapshot(4, 10)
        arena.flat[4:10] = -1.0
        arena.restore(saved, 4)
        np.testing.assert_array_equal(
            arena.flat, np.arange(10, dtype=np.float32)
        )


class TestTelemetryCounters:
    def test_adopt_counts_copies_and_flat_of_counts_aliases(self, rng):
        tel = Telemetry()
        params = {
            "w": rng.standard_normal(8).astype(np.float32),
            "b": rng.standard_normal(8).astype(np.float32),
        }
        arena = FlatArena.adopt(params, telemetry=tel)
        copied = tel.metrics.counter("arena_bytes_copied")
        aliased = tel.metrics.counter("arena_bytes_aliased")
        assert copied.value == 64  # 16 fp32 elements moved in, exactly once
        grads_arena = arena.like()
        grads_arena.views["w"][...] = 1.0
        assert arena.flat_of(dict(grads_arena.views)) is not None
        assert aliased.value == 64

    def test_flat_of_rejects_foreign_layout(self, rng):
        arena = FlatArena.zeros({"a": (4,), "b": (4,)})
        other = FlatArena.zeros({"a": (8,)})
        assert arena.flat_of(dict(other.views)) is None
        plain = {
            "a": np.zeros(4, dtype=np.float32),
            "b": np.zeros(4, dtype=np.float32),
        }
        assert arena.flat_of(plain) is None


class TestZeroOnArenaBitwise:
    """The tentpole guarantee: sharding over the arena changes no bit."""

    @given(
        world=st.integers(min_value=1, max_value=6),
        n_steps=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_sharded_arena_step_equals_unsharded_graceadam(
        self, world, n_steps
    ):
        rng = np.random.default_rng(world * 101 + n_steps)
        shapes = {"w": (5, 3), "b": (7,), "e": (11,)}
        init = {
            k: rng.standard_normal(s).astype(np.float32)
            for k, s in shapes.items()
        }
        sharded_params = {k: v.copy() for k, v in init.items()}
        plain_params = {k: v.copy() for k, v in init.items()}
        sharded = ZeroShardedAdam(sharded_params, world)
        unsharded = GraceAdam(plain_params, AdamConfig())
        for step in range(n_steps):
            grads = {
                k: rng.standard_normal(s).astype(np.float32)
                for k, s in shapes.items()
            }
            # every rank contributes the same gradients -> the average
            # equals the single-rank gradient
            sharded.step([{k: g.copy() for k, g in grads.items()}
                          for _ in range(world)])
            unsharded.step(grads)
        for k in shapes:
            np.testing.assert_array_equal(
                sharded.params[k], unsharded.params[k]
            )

    def test_dict_copy_and_arena_modes_agree_bitwise(self, rng):
        shapes = {"w": (6, 2), "b": (9,)}
        init = {
            k: rng.standard_normal(s).astype(np.float32)
            for k, s in shapes.items()
        }
        arena_mode = ZeroShardedAdam(
            {k: v.copy() for k, v in init.items()}, 3
        )
        dict_params = {k: v.copy() for k, v in init.items()}
        layout, shards = reference.zero_dict_copy_shards(dict_params, 3)
        for step in (1, 2, 3):
            grads = {
                k: rng.standard_normal(s).astype(np.float32)
                for k, s in shapes.items()
            }
            per_rank = [
                {k: g.copy() for k, g in grads.items()} for _ in range(3)
            ]
            arena_mode.step(per_rank)
            reference.zero_dict_copy_step(
                dict_params, layout, shards,
                [{k: g.copy() for k, g in grads.items()} for _ in range(3)],
                arena_mode.config, step,
            )
        for k in shapes:
            np.testing.assert_array_equal(
                arena_mode.params[k], dict_params[k]
            )
