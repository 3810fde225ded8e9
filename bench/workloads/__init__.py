"""The seven workloads, by name.

Names are fixed: later issues cite them.  Each ``why`` is the one-line
reason recorded in ``BENCHMARK.json``; ``bench/README.md`` has the long
form.  Sizes were chosen on a 2-core host so that one measured window
lasts about ``run_seconds`` (8 s); the per-second rates below turn
``--seconds`` into operation counts.
"""

from __future__ import annotations

from typing import Dict

from bench.workloads.base import Workload
from bench.workloads.serve import Serve
from bench.workloads.sim import SimSweep
from bench.workloads.train import TrainSTV, TrainZero


def make_all() -> Dict[str, Workload]:
    """Fresh instances of every workload, keyed by name (a workload
    holds the state of one run, so each run builds its own)."""
    workloads = [
        TrainSTV(
            "train_stv_compute",
            "STV engine with real rollbacks, dense attention: fwd+bwd "
            "matmul/LN/GELU dominate, attention and optimizer do not",
            spec=dict(vocab=512, max_seq=128, hidden=192, n_layers=4,
                      n_heads=6),
            batch=4, trainer_args={}, steps_per_second=2.75,
        ),
        TrainSTV(
            "train_stv_longseq",
            "same engine at seq 2048 with streaming attention and the "
            "activation workspace: attention dominates the step",
            spec=dict(vocab=256, max_seq=2048, hidden=64, n_layers=1,
                      n_heads=4),
            batch=1,
            trainer_args=dict(attn_backend="streaming",
                              use_workspace=True),
            steps_per_second=3.0,
        ),
        TrainZero(
            "train_zero_resident",
            "ZeRO-sharded Adam over 4 ranks, moments in memory: optimizer, "
            "collectives, arena and trainer glue outweigh fwd+bwd",
            disk=False, steps_per_second=3.0,
        ),
        TrainZero(
            "train_zero_disk",
            "same trainer with moments streamed through the disk tier and "
            "async checkpoints: spill and checkpoint cost shows only here",
            disk=True, steps_per_second=2.5,
        ),
        Serve(
            "serve_saturated",
            "closed loop at concurrency 8, unbounded KV: decode, qmatmul "
            "and queue hand-off dominate, KV eviction is zero",
            max_seq=160, prompt_len=(8, 48), output_len=(16, 64),
            max_pages=None, requests_per_second=15.0, floor=24,
        ),
        Serve(
            "serve_kv_spill",
            "same server with KV working set about 2x the page budget: "
            "pages evict to and restore from disk on every decode",
            max_seq=192, prompt_len=(64, 112), output_len=(16, 48),
            max_pages=112, requests_per_second=3.25, floor=26,
        ),
        SimSweep(
            "sim_sweep",
            "Table 2 plus the Fig. 10 sweep, two passes: host time of the "
            "simulator; simulated statistics must repeat exactly",
            sizes_per_second=0.75,
        ),
    ]
    return {w.name: w for w in workloads}

