"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest -q bench/test_bench.py

Checks that each run emits every metric BENCHMARK.json names, with its unit,
that no fit fails, and that the recorded spans nest: each child lies inside
its parent and no self time is negative.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import Fit  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    args = run.parse_args(
        ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    )
    return run.run(args)["result"]


def _expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_nested_spans(workload):
    result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected("per_layer")

    lines = (run.RUNS_DIR / f"{workload}.spans.jsonl").read_text().splitlines()
    spans = {s["id"]: s for s in map(json.loads, lines)}
    assert spans
    for span in spans.values():
        assert span["end"] >= span["start"]
        assert span["end"] - span["start"] - span["child_s"] >= -1e-9, span
        parent = spans.get(span["parent"])
        if span["parent"] is not None:
            assert parent is not None, span
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], (parent, span)


def test_tail_keeps_ten_samples_beyond_it():
    times = [float(i) for i in range(1, 101)]
    value, pct = run.tail(times)
    assert pct == 90 and value == 90.0
    assert run.tail([1.0, 3.0, 2.0]) == (2.0, 50)


def test_overhead_pairs_each_untraced_unit_with_the_traced_unit_after_it():
    timing = [(1.0, False), (1.1, True), (2.0, False), (2.2, True), (5.0, False)]
    fits = [Fit(seconds=s, traced=t) for s, t in timing]
    assert run.overhead(fits) == pytest.approx(0.1)
