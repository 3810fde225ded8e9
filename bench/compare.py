"""``bench compare A B``: one verdict per (workload, end-to-end metric).

A and B are each a results file written by ``bench run``, or a directory
of them (a set of runs of one commit).  The rule is the choosing-metrics
guide's: B's median may not be worse than A's by more than the metric's
bound in ``BENCHMARK.json``; where the run-to-run spread is wider than
the bound the pair is *unresolved*, not unchanged, unless every run of B
reads better than every run of A.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from bench import stats

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    a: float
    b: float
    ratio: float       # b / a: the base is A
    spread: float      # widest quartile spread of the two sets
    bound: float
    verdict: str


def load_set(path: Path) -> List[dict]:
    """Results documents from one file or every ``*.json`` in a folder."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = [json.loads(f.read_text()) for f in files]
    docs = [d for d in docs if isinstance(d, dict) and "workloads" in d]
    if not docs:
        raise ValueError(f"no bench results under {path}")
    return docs


def _values(docs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        d["workloads"][workload]["end_to_end"][metric] for d in docs
        if metric in d["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """The guide's three-way verdict for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if worse_by > bound:
        return WORSE
    spread = max(stats.quartile_spread(a), stats.quartile_spread(b))
    if spread > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return OK if all_better else UNRESOLVED
    return OK


def compare(a_docs: List[dict], b_docs: List[dict],
            spec: dict) -> List[Row]:
    rows: List[Row] = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = _values(a_docs, w["name"], m["name"])
            b = _values(b_docs, w["name"], m["name"])
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            rows.append(Row(
                w["name"], m["name"], m["unit"], med_a, med_b,
                med_b / med_a,
                max(stats.quartile_spread(a), stats.quartile_spread(b)),
                m["bound"],
                verdict(a, b, m["better"], m["bound"]),
            ))
    return rows


def format_rows(rows: List[Row], n_a: int, n_b: int) -> str:
    head = (f"{'workload':<20} {'metric':<12} {'unit':<5} "
            f"{'A (n=%d)' % n_a:>12} {'B (n=%d)' % n_b:>12} "
            f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    lines = [head, "-" * len(head)]
    lines += [
        f"{r.workload:<20} {r.metric:<12} {r.unit:<5} {r.a:>12.4f} "
        f"{r.b:>12.4f} {r.ratio:>7.3f} {r.spread:>7.3f} "
        f"{r.bound:>6.2f}  {r.verdict}"
        for r in rows
    ]
    return "\n".join(lines)


def summary(rows: List[Row]) -> Dict[str, int]:
    return {v: sum(r.verdict == v for r in rows)
            for v in (OK, WORSE, UNRESOLVED)}
