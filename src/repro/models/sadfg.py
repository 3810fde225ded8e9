"""Superchip-aware dataflow graph (SA-DFG, paper §4.1).

Each vertex is a tensor operator carrying its compute cost on *both* the
Hopper GPU and the Grace CPU; each edge carries the bytes that would cross
NVLink-C2C if its endpoints land on different devices.  An offload strategy
is a two-way partition of this graph.

Two partitioners are provided:

* :func:`greedy_min_cut_partition` — the PCIe-era heuristic (ZeRO-Offload's
  edge-cut): pin compute-heavy ops to the GPU and cut the cheapest edges,
  minimizing communication volume.
* :func:`superchip_partition` — SuperOffload's objective: minimize modelled
  *iteration time* (eq. 1–3), which on a 900 GB/s link tolerates much more
  traffic in exchange for balanced utilization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.hardware.bandwidth import BandwidthModel
from repro.hardware.specs import DeviceSpec
from repro.models.config import ModelConfig
from repro.models.estimators import param_count


class OpKind(enum.Enum):
    """Operator classes that appear in the training iteration DFG."""

    FORWARD = "forward"
    BACKWARD = "backward"
    OPTIMIZER = "optimizer"
    CAST = "cast"


@dataclass(frozen=True)
class OpCost:
    """Per-operator cost annotation.

    Attributes:
        kind: operator class.
        gpu_time: seconds if executed on the GPU.
        cpu_time: seconds if executed on the CPU.
        state_bytes: persistent state the op anchors (e.g. the optimizer
            vertex anchors the fp32 master/moment states).
    """

    kind: OpKind
    gpu_time: float
    cpu_time: float
    state_bytes: int = 0


class SADFG:
    """A directed acyclic graph of annotated operators.

    ``networkx`` is imported by the three methods that use it: this
    module is re-exported by :mod:`repro.models`, which every trainer and
    simulator process imports, and none of them builds a graph.
    """

    def __init__(self) -> None:
        import networkx as nx

        self.graph = nx.DiGraph()

    def add_op(self, name: str, cost: OpCost) -> None:
        """Add an operator vertex."""
        if name in self.graph:
            raise ValueError(f"duplicate op {name!r}")
        self.graph.add_node(name, cost=cost)

    def add_flow(self, src: str, dst: str, nbytes: int) -> None:
        """Add a dataflow edge carrying ``nbytes`` if it crosses devices."""
        if src not in self.graph or dst not in self.graph:
            raise KeyError(f"unknown endpoint in flow {src!r} -> {dst!r}")
        import networkx as nx

        self.graph.add_edge(src, dst, nbytes=nbytes)
        if not nx.is_directed_acyclic_graph(self.graph):
            self.graph.remove_edge(src, dst)
            raise ValueError(f"flow {src!r} -> {dst!r} would create a cycle")

    def ops(self) -> Iterable[str]:
        """Vertex names in topological order."""
        import networkx as nx

        return nx.topological_sort(self.graph)

    def cost_of(self, name: str) -> OpCost:
        """Annotation of one vertex."""
        return self.graph.nodes[name]["cost"]

    def cut_bytes(self, assignment: Dict[str, str]) -> int:
        """Bytes crossing the device boundary under ``assignment``."""
        total = 0
        for src, dst, data in self.graph.edges(data=True):
            if assignment[src] != assignment[dst]:
                total += data["nbytes"]
        return total


def partition_cost(
    dfg: SADFG,
    assignment: Dict[str, str],
    link: BandwidthModel,
    overlap: float = 0.0,
) -> float:
    """Modelled iteration time of a partition.

    The GPU is the pacing resource: forward/backward always execute there,
    and a bucketized schedule hides up to ``overlap`` of the CPU work and
    the cut traffic behind it.  The exposed remainder — the tail that
    Figs. 3-4 show on the critical path — is charged in full.
    """
    if not 0 <= overlap < 1:
        raise ValueError("overlap must be in [0, 1)")
    gpu_time = 0.0
    cpu_time = 0.0
    for name in dfg.graph.nodes:
        cost = dfg.cost_of(name)
        if assignment[name] == "gpu":
            gpu_time += cost.gpu_time
        else:
            cpu_time += cost.cpu_time
    comm = link.transfer_time(dfg.cut_bytes(assignment))
    return gpu_time + (1 - overlap) * (cpu_time + comm)


def greedy_min_cut_partition(dfg: SADFG) -> Dict[str, str]:
    """The PCIe-era heuristic: forward/backward on GPU, optimizer (and the
    casts feeding it) on CPU — the assignment that minimizes link volume for
    mixed-precision training (§3, §4.5)."""
    assignment: Dict[str, str] = {}
    for name in dfg.graph.nodes:
        kind = dfg.cost_of(name).kind
        assignment[name] = "cpu" if kind in (OpKind.OPTIMIZER, OpKind.CAST) else "gpu"
    return assignment


def superchip_partition(
    dfg: SADFG,
    link: BandwidthModel,
    gpu_memory_budget: int,
    overlap: float = 0.8,
) -> Dict[str, str]:
    """SuperOffload's partition: start from the min-cut assignment, then pull
    optimizer vertices back onto the GPU — most-expensive-first — while the
    modelled iteration time improves and their state fits the budget (the
    bucketization-repartitioning idea of §4.3 expressed at DFG level).
    """
    assignment = greedy_min_cut_partition(dfg)
    best_cost = partition_cost(dfg, assignment, link, overlap)
    budget = gpu_memory_budget
    movable = sorted(
        (n for n in dfg.graph.nodes if dfg.cost_of(n).kind == OpKind.OPTIMIZER),
        key=lambda n: dfg.cost_of(n).cpu_time,
        reverse=True,
    )
    for name in movable:
        state = dfg.cost_of(name).state_bytes
        if state > budget:
            continue
        trial = dict(assignment)
        trial[name] = "gpu"
        # Casts feeding a GPU-resident optimizer are free on GPU.
        for pred in dfg.graph.predecessors(name):
            if dfg.cost_of(pred).kind == OpKind.CAST:
                trial[pred] = "gpu"
        cost = partition_cost(dfg, trial, link, overlap)
        if cost < best_cost:
            assignment = trial
            best_cost = cost
            budget -= state
    return assignment


def build_training_sadfg(
    config: ModelConfig,
    gpu: DeviceSpec,
    cpu: DeviceSpec,
    micro_batch: int,
    n_buckets: int = 8,
    seq: int | None = None,
) -> SADFG:
    """Construct the per-iteration SA-DFG for one model.

    Layer-granular forward/backward vertices feed bucket-granular optimizer
    vertices (with their FP16->FP32 cast producers), matching the structure
    the engine schedules (§4.3).
    """
    from repro.sim.compute import ComputeModel  # local import: avoid cycle

    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    s = seq if seq is not None else config.seq
    tokens = micro_batch * s
    psi = param_count(config)
    gpu_model = ComputeModel(gpu)
    cpu_model = ComputeModel(cpu)

    dfg = SADFG()
    layer_params = psi / config.n_layers
    fwd_flops = 2 * layer_params * tokens
    bwd_flops = 4 * layer_params * tokens
    cpu_slowdown = gpu.achievable_flops / cpu.achievable_flops

    prev_fwd = None
    for i in range(config.n_layers):
        fwd = f"fwd.{i}"
        dfg.add_op(
            fwd,
            OpCost(
                OpKind.FORWARD,
                gpu_time=gpu_model.dense_time(fwd_flops, tokens, config.hidden),
                cpu_time=gpu_model.dense_time(fwd_flops, tokens, config.hidden)
                * cpu_slowdown,
            ),
        )
        if prev_fwd is not None:
            dfg.add_flow(prev_fwd, fwd, 2 * config.hidden * tokens)
        prev_fwd = fwd
    prev_bwd = None
    for i in reversed(range(config.n_layers)):
        bwd = f"bwd.{i}"
        dfg.add_op(
            bwd,
            OpCost(
                OpKind.BACKWARD,
                gpu_time=gpu_model.dense_time(bwd_flops, tokens, config.hidden),
                cpu_time=gpu_model.dense_time(bwd_flops, tokens, config.hidden)
                * cpu_slowdown,
            ),
        )
        dfg.add_flow(f"fwd.{i}", bwd, 2 * config.hidden * tokens)
        if prev_bwd is not None:
            dfg.add_flow(prev_bwd, bwd, 2 * config.hidden * tokens)
        prev_bwd = bwd

    bucket_params = psi // n_buckets
    layers_per_bucket = max(1, config.n_layers // n_buckets)
    for b in range(n_buckets):
        cast = f"cast.{b}"
        step = f"step.{b}"
        grad_fp32 = 4 * bucket_params
        dfg.add_op(
            cast,
            OpCost(
                OpKind.CAST,
                gpu_time=1.5 * grad_fp32 / gpu.mem_bandwidth,
                cpu_time=1.5 * grad_fp32 / (cpu.mem_bandwidth * 0.5),
            ),
        )
        dfg.add_op(
            step,
            OpCost(
                OpKind.OPTIMIZER,
                gpu_time=gpu_model.adam_step_time(bucket_params, "gpu"),
                cpu_time=cpu_model.adam_step_time(bucket_params, "grace_adam"),
                state_bytes=12 * bucket_params,
            ),
        )
        # Buckets fill in backward order: bucket b collects the gradients of
        # the layers whose backward completes b-th.
        first_layer = config.n_layers - 1 - b * layers_per_bucket
        src_layer = max(0, first_layer - layers_per_bucket + 1)
        dfg.add_flow(f"bwd.{src_layer}", cast, 2 * bucket_params)
        dfg.add_flow(cast, step, grad_fp32)
    return dfg
