"""The tunable registry: the single source of names, defaults, ranges."""

import pytest

from repro.tune import registry


def test_names_sorted_and_stable():
    names = registry.names()
    assert names == tuple(sorted(names))
    assert names == registry.names()


def test_every_default_is_valid():
    for name in registry.names():
        t = registry.get(name)
        assert registry.is_valid(name, t.default), name
        assert t.lo <= t.default <= t.hi, name


def test_every_choice_is_in_range():
    for name in registry.names():
        t = registry.get(name)
        for c in t.choices:
            assert registry.is_valid(name, c), (name, c)


def test_expected_tunables_present():
    names = set(registry.names())
    # The consumers this PR threads lookups through must all have a
    # registered knob; a rename here must be deliberate.
    assert {
        "adam.min_parallel", "adam.cache_tile", "scale.min_parallel",
        "copy.min_parallel", "reduce.min_parallel", "grace.tile_size",
        "flash.block_q",
        "flash.block_k", "rollback.snapshot_cutoff",
        "zero.bucket_elements", "zero.min_pipeline", "pool.workers",
        "spill.chunk_bytes", "spill.prefetch_depth", "spill.writer_queue",
    } <= names


def test_rounding_kernels_have_no_crossover():
    """The fp16/bf16 rounding and the gradient landing run on the calling
    thread; the crossovers of the casts they replaced are gone."""
    names = set(registry.names())
    assert not {"cast.min_parallel", "scale_into.min_parallel",
                "add_scaled.min_parallel"} & names


def test_spill_workload_has_revert_entries():
    """The end-to-end validation backstop must know which profile
    entries steer the spill workload (the revert set)."""
    from repro.tune.search import _WORKLOAD_ENTRIES

    assert _WORKLOAD_ENTRIES["spill"] == (
        "spill.chunk_bytes", "spill.prefetch_depth", "spill.writer_queue",
    )


def test_unknown_name_raises_with_known_names():
    with pytest.raises(KeyError) as exc:
        registry.get("nonsense.knob")
    assert "adam.min_parallel" in str(exc.value)
    with pytest.raises(KeyError):
        registry.default("nonsense.knob")


def test_is_valid_rejects_non_integers_and_bools():
    assert not registry.is_valid("adam.min_parallel", True)
    assert not registry.is_valid("adam.min_parallel", 1.5)
    assert not registry.is_valid("adam.min_parallel", "64")
    assert not registry.is_valid("adam.min_parallel", None)


def test_is_valid_rejects_out_of_range():
    t = registry.get("flash.block_q")
    assert not registry.is_valid("flash.block_q", t.lo - 1)
    assert not registry.is_valid("flash.block_q", t.hi + 1)
    assert registry.is_valid("flash.block_q", t.lo)
    assert registry.is_valid("flash.block_q", t.hi)


def test_is_valid_unknown_name_false():
    assert not registry.is_valid("nonsense.knob", 1)


def test_every_tunable_documents_its_consumer():
    for name in registry.names():
        t = registry.get(name)
        assert t.doc, name
        assert t.consumer, name
