"""Processes the benchmark starts besides the plain ``causalsim`` CLI.

``child.py cli --trace-out FILE [--run-id N] -- ARGV...``
    Runs ``cli_main(ARGV)`` in this process with every traced function
    wrapped, writes the spans to FILE and exits with the CLI's code.
``child.py simulate --spec FILE --out FILE --seconds S --min-rounds N``
    Runs ``cli_main`` on the ``simulate`` argv in the spec in the timed
    loop of ``timing.py``, unit i with ``--seed`` ``seeds[i]``. After
    each unit (outside its time) reads the CSV it wrote and keeps its
    header, row count and per-agent means for the benchmark to check.
``child.py wide --spec FILE --out FILE --seconds S --min-rounds N``
    Loads the models named in the spec (``loads`` more times, timing
    each load between reference passes), then answers its distinct queries round-robin in the timed
    loop with in-process library calls.

``simulate`` and ``wide`` write their samples and results as JSON to
``--out``; with ``--trace-out`` they also wrap every traced function and
write the spans there when the loop ends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import causalsim  # noqa: E402
from causalsim import cli  # noqa: E402

import timing  # noqa: E402
import tracing  # noqa: E402

LATE = slice(150, 200)  # rounds 151-200, gate criterion 4's window


def _run_cli(ns: argparse.Namespace) -> int:
    tracer = tracing.Tracer(ns.run_id)
    tracer.install()
    code = cli.cli_main(ns.argv)
    sys.stdout.flush()
    tracer.write(ns.trace_out)
    return code


def _read_curves(path: Path) -> dict:
    """Header, row count and, per agent, its late-window and overall means."""
    lines = path.read_text(encoding="utf-8").splitlines()
    values: dict[str, list[float]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        values.setdefault(fields[1], []).append(float(fields[2]) if len(fields) == 4 else float("nan"))
    return {
        "header": lines[0] if lines else "",
        "rows": len(lines) - 1,
        "late": {label: statistics.fmean(v[LATE]) if v[LATE] else None for label, v in values.items()},
        "overall": {label: statistics.fmean(v) for label, v in values.items()},
    }


def _simulate_ops(spec: dict) -> tuple[list[Callable], Callable, list[dict], tuple[list[int], list[float]]]:
    csv_path = Path(spec["csv"])
    results = []

    def simulate(unit: int) -> int:
        csv_path.unlink(missing_ok=True)
        return cli.cli_main([*spec["args"], "--seed", str(spec["seeds"][unit % len(spec["seeds"])])])

    def keep(unit: int, k: int, code: int) -> None:
        results.append({"code": code, **(_read_curves(csv_path) if code == 0 and csv_path.exists() else {})})

    return [simulate], keep, results, ([], [])


def _answer(models: dict, q: dict) -> float | list[float]:
    # Looked up at call time, so a traced run calls the wrapped functions.
    model = models[q["model"]]
    if q["kind"] == "query":
        return causalsim.query(model, q["target"], q["evidence"])
    if q["kind"] == "interventional_query":
        return causalsim.interventional_query(model, q["intervention"], q["target"])
    return list(causalsim.interventional_marginal(model, q["intervention"], q["variable"]))


def _wide_ops(spec: dict) -> tuple[list[Callable], Callable, list[dict], tuple[list[int], list[float]]]:
    def load() -> dict:
        return {name: causalsim.load_model(path) for name, path in spec["models"].items()}

    models = load()
    load_times = timing.paired_runs(load, spec["loads"])
    results = []

    def op_for(q: dict):
        def ask(unit: int):
            try:
                return _answer(models, q), None
            except Exception as e:  # a failed query is recorded and the loop goes on
                return None, f"{type(e).__name__}: {e}"

        return ask

    def keep(unit: int, k: int, answered: tuple) -> None:
        results.append({"query": k, "answer": answered[0], "error": answered[1]})

    return [op_for(q) for q in spec["queries"]], keep, results, load_times


def _run_loop(ns: argparse.Namespace) -> int:
    tracer = None
    if ns.trace_out:
        tracer = tracing.Tracer(ns.run_id)
        tracer.install()
    spec = json.loads(Path(ns.spec).read_text(encoding="utf-8"))
    ops, keep, results, (load_ns, load_ratios) = (_simulate_ops if ns.mode == "simulate" else _wide_ops)(spec)
    samples = timing.timed_loop(ops, ns.seconds, ns.min_rounds, keep)
    if tracer is not None:
        tracer.write(ns.trace_out)
    out = {
        "samples": samples.to_json(), "results": results, "load_ns": load_ns, "load_ratios": load_ratios,
        "peak_rss_kb": _peak_rss_kb(),
    }  # fmt: skip
    Path(ns.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


def _peak_rss_kb() -> int:
    """This process's peak resident set since exec. Unlike ``ru_maxrss``,
    ``VmHWM`` does not count the memory of the parent this process was
    forked from."""
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("cli")
    c.add_argument("--trace-out", required=True)
    c.add_argument("--run-id", type=int, default=0)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    for mode in ("simulate", "wide"):
        w = sub.add_parser(mode)
        w.add_argument("--spec", required=True)
        w.add_argument("--out", required=True)
        w.add_argument("--seconds", type=float, required=True)
        w.add_argument("--min-rounds", type=int, required=True)
        w.add_argument("--trace-out")
        w.add_argument("--run-id", type=int, default=0)
    ns = parser.parse_args()
    if ns.mode == "cli":
        if ns.argv[:1] == ["--"]:
            ns.argv = ns.argv[1:]
        return _run_cli(ns)
    return _run_loop(ns)


if __name__ == "__main__":
    sys.exit(main())
