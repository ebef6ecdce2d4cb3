"""Span tracing for the benchmark's traced runs.

The tracer wraps the program's public functions from the outside: each
function object is replaced in every ``causalsim`` module namespace that
refers to it, which is where its callers look it up. Nothing inside
``src/`` changes. A span is (name, start, end, parent span, run id);
spans stay in memory in flat arrays and are written to one ``.npz``
file when the traced process ends. Per-layer metrics are then derived
from those files alone.

Three work counts are recorded at the same boundaries. They are
computed from the inputs of each call, not timed, so they repeat
exactly from run to run:

- ``cgm.enumerated_states``: the argument model's ``joint_size``,
  summed over the calls that enumerate (``query`` and
  ``interventional_marginal``; ``interventional_query`` enumerates
  through ``query``);
- ``model_io.bytes_read``: the size of every file ``read_json`` read;
- ``reporting.bytes_written``: the size of every file ``write_csv`` and
  ``write_svg`` wrote.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from typing import Any, Callable, Iterable, Mapping

import numpy as np

TRACED = {
    "cgm": ("interventional_marginal", "query", "interventional_query", "intervene", "sample"),
    "beliefs": ("update", "posterior_mean"),
    "agents": (
        "causal_choose",
        "causal_learn",
        "best_action",
        "expected_utility",
        "q_choose",
        "q_learn",
        "random_choose",
    ),
    "environment": ("step", "load_environment"),
    "experiment": ("run_experiment", "convergence_index"),
    "model_io": ("load_model", "read_json"),
    "reporting": ("write_csv", "write_svg"),
    "cli": ("cli_main",),
}
SPAN_NAMES = tuple(f"{module}.{func}" for module, funcs in TRACED.items() for func in funcs)
INFERENCE_SPANS = ("cgm.query", "cgm.interventional_query", "cgm.interventional_marginal")
COUNTS = ("cgm.enumerated_states", "model_io.bytes_read", "reporting.bytes_written")


def _count_states(counts: dict[str, int], args: tuple, kwargs: Mapping[str, Any]) -> None:
    from causalsim.cgm import joint_size

    counts["cgm.enumerated_states"] += joint_size(args[0] if args else kwargs["model"])


def _count_read(counts: dict[str, int], args: tuple, kwargs: Mapping[str, Any]) -> None:
    counts["model_io.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_written(counts: dict[str, int], args: tuple, kwargs: Mapping[str, Any]) -> None:
    counts["reporting.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Run after a call returns, outside its span, so counting costs no span time.
_COUNTERS: dict[str, Callable[[dict[str, int], tuple, Mapping[str, Any]], None]] = {
    "cgm.query": _count_states,
    "cgm.interventional_marginal": _count_states,
    "model_io.read_json": _count_read,
    "reporting.write_csv": _count_written,
    "reporting.write_svg": _count_written,
}


class Tracer:
    """Records one span per call of every function in ``TRACED``."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = [-1]

    def install(self) -> None:
        """Replace every traced function wherever a causalsim module refers to it."""
        import causalsim  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items() if n == "causalsim" or n.startswith("causalsim.")]
        for name_id, span in enumerate(SPAN_NAMES):
            module, func = span.split(".")
            original = getattr(sys.modules[f"causalsim.{module}"], func)
            wrapper = self._wrap(name_id, original, _COUNTERS.get(span))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name_id: int, fn: Callable, counter: Callable | None) -> Callable:
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs)
            return result

        return traced

    def write(self, path: str) -> None:
        """Export the spans and counts recorded so far."""
        n = len(self.starts)
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            start=np.frombuffer(self.starts, dtype=np.int64),
            end=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            run_id=np.full(n, self.run_id, dtype=np.int32),
            counts=np.array(json.dumps(self.counts)),
        )


def self_times(start: Any, end: Any, parent: Any) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Children are clipped to their parent's interval, and overlapping
    children are counted once: siblings are taken in start order, and
    each covers only what lies beyond the furthest end of the siblings
    before it.
    """
    start, end, parent = (np.asarray(a, dtype=np.int64) for a in (start, end, parent))
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[kids]
    origin = start.min() if start.size else 0
    lo = np.maximum(start[kids], start[p]) - origin
    hi = np.minimum(end[kids], end[p]) - origin
    # A running maximum of the ends, restarted for each parent: lifting
    # each sibling group above every earlier group keeps the groups apart.
    lift = np.cumsum(np.diff(p, prepend=p[:1]) != 0) * (hi.max(initial=0) + 1)
    reach = np.maximum.accumulate(hi + lift)
    before = np.concatenate(([-1], reach[:-1])) - lift
    covered = np.maximum(hi - np.maximum(lo, before), 0)
    return (end - start) - np.bincount(p, weights=covered, minlength=len(start)).astype(np.int64)


def read_trace(path: str) -> tuple[dict[str, int], dict[str, float], dict[str, int], float]:
    """(calls, self seconds, work counts) per span name, and the seconds
    covered by root spans, from one trace file."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_id = data["name_id"]
        selfs = self_times(data["start"], data["end"], data["parent"])
        calls = np.bincount(name_id, minlength=len(names))
        self_ns = np.bincount(name_id, weights=selfs, minlength=len(names))
        counts = json.loads(str(data["counts"]))
        roots = data["parent"] < 0
        root_ns = int((data["end"][roots] - data["start"][roots]).sum())
    return (
        {n: int(c) for n, c in zip(names, calls)},
        {n: float(t) / 1e9 for n, t in zip(names, self_ns)},
        counts,
        root_ns / 1e9,
    )


def layer_totals(paths: Iterable[str]) -> tuple[dict[str, int], dict[str, float], dict[str, int], float]:
    """:func:`read_trace` summed over the trace files of one traced run."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    root_s = 0.0
    for path in paths:
        c, s, k, r = read_trace(path)
        for name in SPAN_NAMES:
            calls[name] += c[name]
            self_s[name] += s[name]
        for name in COUNTS:
            counts[name] += k[name]
        root_s += r
    return calls, self_s, counts, root_s
