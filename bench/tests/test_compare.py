"""``bench compare`` verdicts on hand-made result files."""

import json

import pytest

from bench import compare as cmp
from bench.__main__ import main

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "work_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.05},
        {"name": "op_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.05},
    ],
}


def _docs(rates, latencies):
    return [{"workloads": {"w": {"end_to_end": {
        "work_per_s": r, "op_ms_p50": l}}}}
        for r, l in zip(rates, latencies)]


def _verdicts(a, b):
    return {r.metric: r for r in cmp.compare(a, b, SPEC)}


def test_within_bound_is_ok_and_ratio_has_a_as_base():
    rows = _verdicts(_docs([100, 101, 99], [10, 10.1, 9.9]),
                     _docs([98, 97, 99], [10.3, 10.2, 10.4]))
    assert rows["work_per_s"].verdict == cmp.OK
    assert rows["work_per_s"].ratio == pytest.approx(0.98)
    assert rows["op_ms_p50"].verdict == cmp.OK


def test_median_worse_than_bound_is_worse_in_either_direction():
    rows = _verdicts(_docs([100, 101, 99], [10, 10.1, 9.9]),
                     _docs([90, 91, 89], [11, 11.1, 10.9]))
    assert rows["work_per_s"].verdict == cmp.WORSE     # higher is better
    assert rows["op_ms_p50"].verdict == cmp.WORSE      # lower is better
    better = _verdicts(_docs([100, 101, 99], [10, 10.1, 9.9]),
                       _docs([120, 121, 119], [8, 8.1, 7.9]))
    assert {r.verdict for r in better.values()} == {cmp.OK}


def test_spread_wider_than_bound_is_unresolved_unless_all_runs_win():
    noisy_a = _docs([80, 100, 120, 90, 110], [10] * 5)
    same = _docs([82, 101, 119, 92, 108], [10] * 5)
    rows = _verdicts(noisy_a, same)
    assert rows["work_per_s"].spread > 0.05
    assert rows["work_per_s"].verdict == cmp.UNRESOLVED
    assert rows["op_ms_p50"].verdict == cmp.OK
    # Every run of B beats every run of A: resolved despite the spread.
    clear = _docs([130, 150, 170, 140, 160], [10] * 5)
    assert _verdicts(noisy_a, clear)["work_per_s"].verdict == cmp.OK


def test_single_runs_compare_medians_with_no_spread():
    rows = _verdicts(_docs([100], [10]), _docs([96], [10.4]))
    assert {r.verdict for r in rows.values()} == {cmp.OK}
    assert rows["op_ms_p50"].spread == 0.0


def test_command_reads_files_and_folders_and_fails_on_worse(
        tmp_path, capsys):
    from bench import runner

    spec = runner.contract()
    e2e = {m["name"]: 100.0 for m in spec["end_to_end"]}
    workloads = {w["name"]: {"end_to_end": dict(e2e)}
                 for w in spec["workloads"]}
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"workloads": workloads}))
    set_b = tmp_path / "b"
    set_b.mkdir()
    for i, scale in enumerate((1.0, 1.01, 0.99)):
        doc = {"workloads": {
            name: {"end_to_end": {k: v * scale for k, v in e2e.items()}}
            for name in workloads}}
        (set_b / f"run{i}.json").write_text(json.dumps(doc))
    assert main(["compare", str(a), str(set_b)]) == 0
    out = capsys.readouterr().out
    assert out.count(" ok") >= len(workloads) * len(e2e)
    assert "B (n=3)" in out and "0 worse" in out
    slow = json.loads(a.read_text())
    first = spec["workloads"][0]["name"]
    slow["workloads"][first]["end_to_end"]["setup_s"] *= 2.0
    c = tmp_path / "c.json"
    c.write_text(json.dumps(slow))
    assert main(["compare", str(a), str(c)]) == 1
    assert "1 worse" in capsys.readouterr().out
