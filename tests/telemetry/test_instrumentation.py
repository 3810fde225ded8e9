"""End-to-end tests of telemetry wired through engines, trainers, comms."""

import numpy as np
import pytest

from repro.core.engine import SuperOffloadConfig, SuperOffloadEngine
from repro.numeric.transformer import TransformerParams
from repro.parallel.comm import SimProcessGroup
from repro.parallel.ulysses import UlyssesAttention
from repro.telemetry import Telemetry
from repro.training import DataParallelTrainer, InstabilityInjector, STVTrainer


def run_trainer(telemetry=None, iters=12):
    trainer = STVTrainer(
        batch=4,
        injector=InstabilityInjector(
            warmup_iters=8, spike_probability=0.6, spike_scale=80.0,
            overflow_probability=0.4, seed=0,
        ),
        seed=1,
        telemetry=telemetry,
    )
    return trainer, trainer.run(iters)


def test_engine_emits_phase_spans(tiny_model):
    telemetry = Telemetry()
    engine = SuperOffloadEngine(
        tiny_model, SuperOffloadConfig(clip_norm=8.0), telemetry=telemetry
    )
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 61, size=(4, 16))
    targets = rng.integers(0, 61, size=(4, 16))
    engine.train_step(ids, targets)
    names = {s.name for s in telemetry.tracer.spans}
    assert {"train_step", "fwd_bwd", "cast", "speculative_step",
            "validate"} <= names
    step = telemetry.tracer.spans_named("train_step")[0]
    assert step.attrs == {"iteration": 0}
    # phase spans nest inside the step span
    fwd = telemetry.tracer.spans_named("fwd_bwd")[0]
    assert fwd.depth == step.depth + 1
    assert step.start <= fwd.start and fwd.finish <= step.finish


def test_rollback_counter_matches_engine_count():
    telemetry = Telemetry()
    trainer, record = run_trainer(telemetry)
    assert record.rollback_iterations, "injector must provoke rollbacks"
    metrics = telemetry.metrics
    total = (
        metrics.counter("rollbacks_total", reason="overflow").value
        + metrics.counter("rollbacks_total", reason="clip").value
    )
    assert total == trainer.engine.rollback_count
    assert len(telemetry.tracer.spans_named("rollback")) == int(total)
    assert metrics.counter("train_iterations_total").value == 12
    assert metrics.histogram("train_loss").count == 12


def test_loss_scale_gauge_tracks_scaler():
    telemetry = Telemetry()
    trainer, _ = run_trainer(telemetry)
    gauge = telemetry.metrics.gauge("loss_scale")
    assert gauge.value == trainer.engine.loss_scale


def test_default_is_noop_and_records_nothing(tiny_model):
    engine = SuperOffloadEngine(tiny_model, SuperOffloadConfig(clip_norm=8.0))
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 61, size=(4, 16))
    targets = rng.integers(0, 61, size=(4, 16))
    engine.train_step(ids, targets)
    assert not engine.telemetry.enabled
    assert engine.telemetry.tracer.spans == ()
    assert len(engine.telemetry.metrics) == 0
    assert engine.telemetry.metrics.summary_rows() == []


def test_telemetry_does_not_perturb_numerics():
    _, silent = run_trainer(telemetry=None)
    _, traced = run_trainer(telemetry=Telemetry())
    assert silent.losses == traced.losses
    assert silent.rollback_iterations == traced.rollback_iterations


def test_collective_counters_count_payload_bytes():
    telemetry = Telemetry()
    group = SimProcessGroup(2, telemetry=telemetry)
    bufs = [np.ones(4, dtype=np.float32) for _ in range(2)]
    group.all_reduce(bufs)
    group.all_gather(bufs)
    group.reduce_scatter(bufs)
    metrics = telemetry.metrics
    for op in ("all_reduce", "all_gather", "reduce_scatter"):
        assert metrics.counter("collective_calls_total", op=op).value == 1
        assert metrics.counter("collective_bytes_total", op=op).value == 32
    group.broadcast(bufs[0])
    assert metrics.counter("collective_bytes_total", op="broadcast").value \
        == 32  # 16 bytes replicated to 2 ranks


def test_reduce_scatter_does_not_double_count_all_reduce():
    telemetry = Telemetry()
    group = SimProcessGroup(2, telemetry=telemetry)
    group.reduce_scatter([np.ones(4, dtype=np.float32) for _ in range(2)])
    assert telemetry.metrics.counter(
        "collective_calls_total", op="all_reduce"
    ).value == 0


def test_ulysses_counts_reshards(rng):
    telemetry = Telemetry()
    group = SimProcessGroup(2, telemetry=telemetry)
    attn = UlyssesAttention(4, group)
    h = 8
    qkv = [rng.standard_normal((1, 4, 3 * h)).astype(np.float32)
           for _ in range(2)]
    outputs, caches = attn.forward(qkv)
    attn.backward([o.copy() for o in outputs], caches)
    metrics = telemetry.metrics
    scatter = metrics.counter(
        "ulysses_reshards_total", direction="scatter_heads"
    ).value
    gather = metrics.counter(
        "ulysses_reshards_total", direction="gather_seq"
    ).value
    # forward: 3 scatter + 1 gather; backward: 1 scatter + 3 gather
    assert scatter == 4
    assert gather == 4
    assert metrics.counter(
        "collective_calls_total", op="all_to_all"
    ).value == 8


def test_dp_trainer_instrumented():
    telemetry = Telemetry()
    spec = TransformerParams(vocab=61, max_seq=16, hidden=24, n_layers=2,
                             n_heads=4)
    trainer = DataParallelTrainer(spec, world_size=2, clip_norm=1.0,
                                  telemetry=telemetry)
    trainer.train(3, batch=4)
    metrics = telemetry.metrics
    assert metrics.histogram("dp_train_loss").count == 3
    assert metrics.counter(
        "collective_calls_total", op="reduce_scatter"
    ).value == 3
    names = {s.name for s in telemetry.tracer.spans}
    # the trainer's steps are validated: reduce + norm under
    # ``grad_health``, the clip and the Adam per bucket
    assert {"train_step", "fwd_bwd", "zero_step", "grad_health",
            "bucket_reduce", "bucket_adam", "cast"} <= names
    steps = telemetry.tracer.spans_named("train_step")
    assert [s.attrs["iteration"] for s in steps] == [0, 1, 2]


def test_dp_trainer_numerics_unchanged_by_telemetry():
    spec = TransformerParams(vocab=61, max_seq=16, hidden=24, n_layers=2,
                             n_heads=4)
    silent = DataParallelTrainer(spec, world_size=2, clip_norm=1.0)
    traced = DataParallelTrainer(spec, world_size=2, clip_norm=1.0,
                                 telemetry=Telemetry())
    a = silent.train(3, batch=4)
    b = traced.train(3, batch=4)
    assert [r.loss for r in a] == [r.loss for r in b]


def test_synchronous_engine_spans(tiny_model):
    telemetry = Telemetry()
    engine = SuperOffloadEngine(
        tiny_model,
        SuperOffloadConfig(stv=False, clip_norm=8.0),
        telemetry=telemetry,
    )
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 61, size=(4, 16))
    targets = rng.integers(0, 61, size=(4, 16))
    engine.train_step(ids, targets)
    names = {s.name for s in telemetry.tracer.spans}
    assert {"train_step", "fwd_bwd", "validate", "optimizer_step",
            "cast"} <= names
    assert "speculative_step" not in names
