"""The timed loop every workload shares, and the statistics drawn from it.

A run alternates two kinds of unit until its time is up: one reference
pass, then one operation of the workload, and ends with a reference pass. Each unit is timed on its own
with ``perf_counter_ns``. The reference is fixed work that is not the
program: by default ``reference_loop``; a workload may bring its own.

On a small shared machine the speed of a core drifts by tens of percent
over seconds to minutes, as neighbours come and go, so the total time of
a run says as much about the neighbours as about the program. The
reference runs at the same moments as the operations, so it sees the
same drift, and two estimators use it to cancel most of it:

- ``best_pass``: each distinct operation runs many times and its
  *fastest* run is taken, the time it takes when nothing gets in its
  way, then scaled by ``REF_NOMINAL_MS`` over the fastest reference
  pass. It reads as the time on a core that runs the reference loop in
  ``REF_NOMINAL_MS``. Suits short in-process operations, of which a run
  makes hundreds.
- ``paired_pass``: each operation's time is divided by the mean of the
  reference passes just before and just after it, and the median ratio
  is scaled by the reference's nominal time. Suits operations whose
  speed drifts with state that the fastest reference pass does not see:
  process launches, with a launch as the reference, and long in-process
  operations that no quiet moment covers whole.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

REF_STEPS = 6_000
REF_KEYS = tuple(f"key{i}" for i in range(20_000))
# Near the reference loop's fastest time (4.7 ms) on the 2-core x86
# machine the benchmark was written on.
REF_NOMINAL_MS = 5.0
TAIL_BEYOND = 10


def reference_loop() -> float:
    """Fixed work of the kinds the program does, none of it the program's:
    dict and string look-ups spread over a megabyte, float sums and
    one scalar numpy call per step. The same work on every call."""
    rng = np.random.default_rng(0)
    counts: dict[str, int] = {}
    total = 0.0
    for i in range(REF_STEPS):
        key = REF_KEYS[i * 7919 % len(REF_KEYS)]
        counts[key] = counts.get(key, 0) + 1
        total += rng.random()
    return total


@dataclass
class Samples:
    """Per-unit times, in nanoseconds, from one timed loop. ``op_ns[k][j]``
    is operation k's j-th timed run, and ``ref_ns[k][j]`` and
    ``ref_after_ns[k][j]`` are the reference passes just before and just
    after it."""

    op_ns: list[list[int]]
    ref_ns: list[list[int]]
    ref_after_ns: list[list[int]]

    def to_json(self) -> dict:
        return {"op_ns": self.op_ns, "ref_ns": self.ref_ns, "ref_after_ns": self.ref_after_ns}

    @classmethod
    def from_json(cls, data: dict) -> "Samples":
        return cls(data["op_ns"], data["ref_ns"], data["ref_after_ns"])


def timed_loop(
    ops: Sequence[Callable[[int], object]],
    seconds: float,
    min_rounds: int,
    on_result: Callable[[int, int, object], None],
    reference: Callable[[], object] = reference_loop,
) -> Samples:
    """Run ``ops`` round-robin between ``reference`` passes for ``seconds``.

    ``ops[k](i)`` runs operation k as unit i. One untimed round runs
    first, so caches fill and lazy set-up finishes before timing starts.
    At least ``min_rounds`` timed rounds run whatever the clock says, and
    the last round is always completed. ``on_result(i, k, result)`` is
    called outside the timed section, so checking costs no op time.
    """
    clock = time.perf_counter_ns
    samples = Samples([[] for _ in ops], [[] for _ in ops], [[] for _ in ops])
    unit = 0
    for k, op in enumerate(ops):
        reference()
        on_result(unit, k, op(unit))
        unit += 1
    deadline = clock() + int(seconds * 1e9)
    rounds = 0
    last = None  # the operation that waits for its reference-after
    while rounds < min_rounds or clock() < deadline:
        for k, op in enumerate(ops):
            t0 = clock()
            reference()
            t1 = clock()
            result = op(unit)
            t2 = clock()
            if last is not None:
                samples.ref_after_ns[last].append(t1 - t0)
            samples.ref_ns[k].append(t1 - t0)
            samples.op_ns[k].append(t2 - t1)
            last = k
            on_result(unit, k, result)
            unit += 1
        rounds += 1
    t0 = clock()
    reference()
    samples.ref_after_ns[last].append(clock() - t0)
    return samples


def paired_runs(fn: Callable[[], object], repeats: int, seconds: float = 0.0) -> tuple[list[int], list[float]]:
    """Run ``fn`` ``repeats`` times, and on until ``seconds`` have passed,
    with a reference-loop pass before the first run and after each.
    Returns each run's time in nanoseconds and its ratio to the mean of
    the reference passes around it."""
    clock = time.perf_counter_ns
    times, ratios = [], []
    end = clock() + int(seconds * 1e9)
    t0 = clock()
    reference_loop()
    before = clock() - t0
    while len(times) < repeats or clock() < end:
        t0 = clock()
        fn()
        t1 = clock()
        reference_loop()
        after = clock() - t1
        times.append(t1 - t0)
        ratios.append(2 * (t1 - t0) / (before + after))
        before = after
    return times, ratios


def tail_percentile(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile that has
    at least ``beyond`` samples ranked above it."""
    ordered = sorted(samples)
    rank = len(ordered) - beyond
    if rank < 1:
        raise ValueError(f"{len(ordered)} samples leave none with {beyond} beyond it")
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def best_pass(samples: Samples) -> float:
    """One pass over the distinct operations, each at its fastest, scaled
    to a core that runs the fastest reference pass in ``REF_NOMINAL_MS``."""
    return sum(min(ns) for ns in samples.op_ns) * REF_NOMINAL_MS * 1e6 / min(min(r) for r in samples.ref_ns)


def paired_pass(samples: Samples, nominal_ns: float) -> float:
    """One pass over the distinct operations, each taken as the median of
    its time over the mean of the reference passes around it, times
    ``nominal_ns``: the pass on a machine where one reference pass takes
    ``nominal_ns``."""
    return nominal_ns * sum(
        statistics.median(2 * o / (b + a) for o, b, a in zip(ops, before, after))
        for ops, before, after in zip(samples.op_ns, samples.ref_ns, samples.ref_after_ns)
    )


def all_ops_ns(samples: Samples) -> list[int]:
    return [ns for per_op in samples.op_ns for ns in per_op]


def median_ms(values_ns: Sequence[int]) -> float:
    return statistics.median(values_ns) / 1e6
