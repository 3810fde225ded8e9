"""Generator determinism: same seed, same inputs; another seed, others."""

import numpy as np

from bench import gen
from bench.workloads.base import Context
from bench.workloads import make_all


def _same(a, b):
    return len(a) == len(b) and all(
        np.array_equal(pa, pb) and oa == ob
        for (pa, oa), (pb, ob) in zip(a, b))


def test_requests_repeat_for_a_seed_and_differ_across_seeds():
    a = gen.requests(3, 40, 512, (8, 48), (16, 64))
    assert _same(a, gen.requests(3, 40, 512, (8, 48), (16, 64)))
    b = gen.requests(4, 40, 512, (8, 48), (16, 64))
    assert not _same(a, b)
    assert [o for _, o in a] != [o for _, o in b]
    # Stratified: every seed carries the same total work.
    assert sorted(o for _, o in a) == sorted(o for _, o in b)
    assert sorted(len(p) for p, _ in a) == sorted(len(p) for p, _ in b)
    assert min(len(p) for p, _ in a) == 8 and max(o for _, o in a) == 64


def test_shuffled_is_a_seeded_permutation():
    items = list(range(30))
    assert gen.shuffled(1, items) == gen.shuffled(1, items)
    assert gen.shuffled(1, items) != gen.shuffled(2, items)
    assert sorted(gen.shuffled(2, items)) == items


def test_training_batches_follow_the_seed(tmp_path):
    def first_batches(seed):
        workload = make_all()["train_zero_resident"]
        from repro.numeric.transformer import TransformerParams

        workload.spec = TransformerParams(**workload.SPEC)
        ctx = Context(seed=seed, seconds=1, quick=True, out=tmp_path)
        batches = workload._batches(ctx, workload.BATCH)
        return [next(batches)[0] for _ in range(3)]

    a, b, c = first_batches(5), first_batches(5), first_batches(6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_sim_point_order_follows_the_seed(tmp_path):
    def order(seed):
        workload = make_all()["sim_sweep"]
        workload.build(Context(seed=seed, seconds=4, quick=False,
                               out=tmp_path))
        return workload.order

    assert order(1) == order(1)
    assert order(1) != order(2) and sorted(map(str, order(1))) == \
        sorted(map(str, order(2)))
