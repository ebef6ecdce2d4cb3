"""Tests of the benchmark itself. Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import timing
from tracing import self_times

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# The metrics the benchmark prints by name, beyond the driver-checked ones.
SHOWN = {
    "medic-simulate": {
        "agent_rounds_per_s": "1/s", "causal_late_reward": "reward", "simulate_p50_ms": "ms", "simulate_tail_ms": "ms",
    },  # fmt: skip
    "wide-inference": {"queries_per_s": "1/s", "query_p50_ms": "ms", "query_tail_ms": "ms"},
    "cli-cold": {"cold_start_p50_ms": "ms", "cold_start_tail_ms": "ms"},
}
COMMON = {
    "setup_s": "s", "raw_setup_s": "s", "pass_ms": "ms", "raw_pass_ms": "ms", "ref_best_ms": "ms", "wall_s": "s", "peak_rss_mb": "MB",
    "error_rate": "ratio",
}  # fmt: skip


def test_self_time_on_a_hand_built_span_tree():
    #           root  a   b   a's child  c (half outside root)  second root
    start = [1000, 1010, 1020, 1012, 1090, 1200]
    end = [1100, 1030, 1050, 1018, 1120, 1210]
    parent = [-1, 0, 0, 1, 0, -1]
    # root: 100 minus a and b overlapping (1010-1050) minus c clipped (1090-1100)
    assert self_times(start, end, parent).tolist() == [50, 14, 30, 6, 30, 10]


def test_self_time_of_a_lone_span_is_its_duration():
    assert self_times([5], [9], [-1]).tolist() == [4]
    assert self_times([], [], []).tolist() == []


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (20, 50.0), (110, 100 * 100 / 110)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile):
    samples = [float(x) for x in reversed(range(n))]
    pct, value = timing.tail_percentile(samples)
    assert pct == pytest.approx(percentile)
    assert sum(1 for x in samples if x > value) == 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        timing.tail_percentile([1.0] * 10)


def test_best_pass_sums_each_operations_fastest_run_at_nominal_speed():
    # Fastest reference pass: twice REF_NOMINAL_MS, so times halve.
    nominal_ns = timing.REF_NOMINAL_MS * 1e6
    ref = [[3 * nominal_ns] * 3, [2 * nominal_ns, 4 * nominal_ns]]
    samples = timing.Samples(op_ns=[[30, 10, 20], [7, 9]], ref_ns=ref, ref_after_ns=ref)
    assert timing.best_pass(samples) == pytest.approx((10 + 7) / 2)


def test_paired_pass_takes_the_median_ratio_to_the_references_around_each_run():
    samples = timing.Samples(op_ns=[[10, 40, 9], [6, 6]], ref_ns=[[4, 10, 3], [2, 3]], ref_after_ns=[[6, 10, 3], [2, 3]])
    # ratios: op 0 -> 2, 4, 3 (median 3); op 1 -> 3, 2 (median 2.5)
    assert timing.paired_pass(samples, 100.0) == pytest.approx(100.0 * (3 + 2.5))


def test_timed_loop_runs_an_untimed_round_then_at_least_min_rounds():
    seen, refs = [], []
    samples = timing.timed_loop(
        [lambda i: i, lambda i: -i], 0.0, 3, lambda i, k, result: seen.append((i, k, result)), lambda: refs.append(1)
    )
    assert seen == [(i, i % 2, i if i % 2 == 0 else -i) for i in range(8)]
    assert len(refs) == 9
    assert [len(ns) for ns in samples.op_ns] == [len(ns) for ns in samples.ref_ns] == [3, 3]
    assert [len(ns) for ns in samples.ref_after_ns] == [3, 3]


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _bench(BENCH.parent, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    units = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric ") :].partition(" = ")
            units[name] = rest.rsplit(" ", 1)[1]
    expected = {**SHOWN[workload], **COMMON} if trace == 0 else {"error_rate": "ratio"}
    if trace:
        expected.update(wanted)
    assert expected.items() <= units.items()
    record = json.loads(next(line[len("record ") :] for line in lines if line.startswith("record ")))
    assert record["seed"] == 5 and record["sizes"] and record["cpu_affinity"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "cli-cold", 0)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
