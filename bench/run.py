"""The causalsim benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 bench/run.py --workload medic-simulate --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one client, driven from one process;
none uses ``--workers``, because on a small shared machine process
scaling would measure the scheduler, not the program):

``medic-simulate``
    ``causalsim simulate`` on the sample medic model and experiment
    (3 agents, 200 rounds, ``--svg``, serial), run through ``cli_main``
    again and again in one child process, each time with
    ``MEDIC_UNIT_REPS`` replications and its own ``--seed`` drawn from
    the benchmark seed. Each round is dominated by Python overhead in
    experiment, agents, beliefs, environment and ``cgm.sample`` on a
    joint of 8 states.
``wide-inference``
    In-process calls to ``query`` (one evidence variable),
    ``interventional_query`` and ``interventional_marginal`` on two
    models of 16 binary variables generated from the seed: a chain
    (treewidth 1) and a dense DAG with up to 4 earlier parents per
    variable. Both have a joint of 2^16 states, so nearly all the time
    is ``cgm`` enumeration; the two graphs differ only in width.
``cli-cold``
    One ``causalsim`` process at a time, alternating between ``query
    --do T=1 --target Y=1`` and ``best-action`` on the sample files:
    import, ``cli`` and ``model_io`` make up the whole cost.

Every workload runs its distinct operations round-robin for
``--seconds`` in the timed loop of ``timing.py``, between reference
passes. The driver-checked time, ``pass_ms``, is one pass over the
distinct operations, in milliseconds on a machine of nominal speed:
``timing.best_pass`` against the reference loop for medic-simulate,
whose operations are short, ``timing.paired_pass`` against the
reference loop for wide-inference, and ``timing.paired_pass`` against a
launch of an interpreter that imports causalsim's dependencies for
cli-cold. ``timing.py`` says why. The fastest pass in plain milliseconds
(``raw_pass_ms``), and the median and tail latency and the throughput
in plain units, are printed beside it.

Set-up is writing the inputs and computing the oracle answers, repeated
at least ``SETUP_REPEATS`` times and for at least ``SETUP_SECONDS``,
plus, in wide-inference, the child's loading of the models its queries
reuse, repeated ``SETUP_REPEATS`` times; a reference-loop pass runs
before and after each. ``setup_s`` is the sum of the two medians, each
taken over the runs' ratios to the reference passes around them and
scaled by ``timing.REF_NOMINAL_MS``, like wide-inference's
``pass_ms``; ``raw_setup_s`` is the sum of the plain medians. None of it
is timed as work. The program's own warm-up (bytecode compiled and
cached, files read once) happens in the untimed first round of the
timed loop.

With ``--trace 0`` the last line of stdout is a JSON object whose
metrics are the end-to-end metrics of ``BENCHMARK.json``; the lines
before it print every metric by name and unit, including the ones only
one workload has, and a run record. With ``--trace 1`` the run does a
fixed amount of work three times, once untraced and twice with every
public function of the program wrapped in a span (see ``tracing.py``),
checks that the work counts repeat exactly, and reports per-layer
metrics derived from the exported trace. Any failed operation or wrong
answer makes ``correct`` false and the exit code 1. Inputs, outputs,
traces and a ``record.json`` go to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import timing
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
TESTS = ROOT / "tests"
SAMPLE_MODEL = ROOT / "sample" / "medic_model.json"
SAMPLE_EXPERIMENT = ROOT / "sample" / "medic_experiment.json"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
REQUIRED = (
    SPEC, SRC / "causalsim" / "__init__.py", SAMPLE_MODEL, SAMPLE_EXPERIMENT, TESTS / "oracle.py", TESTS / "test_acceptance.py",
)  # fmt: skip

SETUP_REPEATS = 5  # at least; small set-ups repeat for SETUP_SECONDS, so their median is steady
SETUP_SECONDS = 1.0
ROUNDS = 200
AGENTS = 3
MEDIC_UNIT_REPS = 4
MEDIC_SEEDS = 4096  # unit i runs with seed i mod this many
WIDE_VARS = 14
DENSE_PARENTS = 4
ORACLE_TOL = 1e-9
# Timed rounds a run makes however short --seconds is: enough operations
# that the tail percentile has ten samples beyond it.
MIN_ROUNDS = {"medic-simulate": 12, "wide-inference": 2, "cli-cold": 6}
# Rounds of each pass of a traced run: fixed, so its work counts repeat.
TRACE_ROUNDS = {"medic-simulate": 3, "wide-inference": 2, "cli-cold": 4}
# cli-cold's reference: an interpreter that imports what causalsim
# depends on, launched before each timed launch.
REF_LAUNCH = [sys.executable, "-c", "import argparse, dataclasses, json, numpy"]
REF_LAUNCH_NOMINAL_MS = 150.0  # near its time (140-165 ms) on the machine the benchmark was written on
RSS_LAUNCHER = (
    "import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
    "_, status, usage = os.wait4(pid, 0); print(usage.ru_maxrss); sys.exit(os.waitstatus_to_exitcode(status))"
)
IMPORT_PAIRS = 10
RUN_BUDGET_S = 170
CSV_HEADER = "round,agent,mean_reward,cum_mean_reward"


class _Timeout(Exception):
    pass


def _on_alarm(signum: int, frame: Any) -> None:
    raise _Timeout


@dataclass
class Launch:
    code: int
    stdout: str
    stderr: str


@dataclass
class Run:
    """One invocation: its settings, its tally of operations, its output."""

    seed: int
    work: Path
    deadline: float
    env: dict[str, str]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    shown: dict[str, tuple[float, str]] = field(default_factory=dict)
    record: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def show(self, name: str, value: float, unit: str) -> None:
        self.shown[name] = (value, unit)

    def launch(self, argv: list[str], tag: str) -> Launch:
        """Run one child to completion, within what is left of the run's budget."""
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        remaining = int(self.deadline - time.monotonic())
        if remaining < 1:
            raise _Timeout
        with open(out, "wb") as fo, open(err, "wb") as fe:
            signal.alarm(remaining)
            try:
                proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=self.env)
                try:
                    _, status, _ = os.wait4(proc.pid, 0)
                except _Timeout:
                    proc.kill()
                    proc.wait()
                    raise
            finally:
                signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(proc.returncode, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"))


@dataclass
class Measured:
    """What one pass of the timed loop measured."""

    samples: timing.Samples
    peak_rss_mb: float
    trace_files: list[str] = field(default_factory=list)
    # Each load of the inputs the timed loop reuses: its time, and its
    # ratio to the reference passes around it.
    load_ns: list[int] = field(default_factory=list)
    load_ratios: list[float] = field(default_factory=list)


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "causalsim", *args]


def _traced_cli(trace_out: Path, run_id: int, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), "cli", "--trace-out", str(trace_out), "--run-id", str(run_id), "--", *args]


def _copy_inputs(work: Path) -> tuple[Path, Path]:
    inputs = work / "inputs"
    inputs.mkdir(exist_ok=True)
    model, experiment = inputs / SAMPLE_MODEL.name, inputs / SAMPLE_EXPERIMENT.name
    shutil.copyfile(SAMPLE_MODEL, model)
    shutil.copyfile(SAMPLE_EXPERIMENT, experiment)
    return model, experiment


def _loop_child(run: Run, mode: str, spec: dict, rounds: int, seconds: float, trace_pass: int | None) -> tuple[Launch, dict]:
    """Run the timed loop in a child process; returns its launch and its output."""
    spec_path, out = run.work / f"{mode}_spec.json", run.work / f"{mode}_out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [
        sys.executable, str(BENCH / "child.py"), mode, "--spec", str(spec_path), "--out", str(out),
        "--seconds", str(seconds), "--min-rounds", str(rounds),
    ]  # fmt: skip
    if trace_pass is not None:
        argv += ["--trace-out", str(run.work / f"trace_{trace_pass}.npz"), "--run-id", str(trace_pass)]
    out.unlink(missing_ok=True)
    got = run.launch(argv, mode)
    if got.code != 0 or not out.exists():
        raise RuntimeError(f"{mode} loop exited {got.code}: {got.stderr.strip()[-500:]}")
    return got, json.loads(out.read_text(encoding="utf-8"))


def gate_windows() -> tuple[tuple[float, float], tuple[float, float]]:
    """Gate criterion 4's causal and random windows, read from the gate itself."""
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    return ast.literal_eval(found["LATE_WINDOW"]), ast.literal_eval(found["RANDOM_WINDOW"])


class MedicSimulate:
    pass_ns = staticmethod(timing.best_pass)

    def __init__(self, run: Run):
        self.run = run
        self.reference: list[dict] | None = None
        run.record["sizes"] = {"replications_per_operation": MEDIC_UNIT_REPS, "rounds": ROUNDS, "agents": AGENTS}

    def setup(self) -> dict[str, Any]:
        run = self.run
        model, experiment = _copy_inputs(run.work)
        windows = gate_windows()
        inputs = ["--model", str(model), "--experiment", str(experiment)]
        rnd = random.Random(run.seed)
        csv = run.work / "curves.csv"
        args = [
            "simulate", *inputs, "--out", str(csv), "--svg", str(run.work / "curves.svg"), "--reps", str(MEDIC_UNIT_REPS),
        ]  # fmt: skip
        spec = {"args": args, "csv": str(csv), "seeds": [rnd.randrange(2**63) for _ in range(MEDIC_SEEDS)]}
        return {"spec": spec, "windows": windows}

    def measure(self, plan: dict[str, Any], rounds: int, seconds: float, trace_pass: int | None = None) -> Measured:
        run = self.run
        got, out = _loop_child(run, "simulate", plan["spec"], rounds, seconds, trace_pass)
        results = out["results"]
        for i, r in enumerate(results):
            shape = (r["code"], r.get("header"), r.get("rows"))
            run.check(shape == (0, CSV_HEADER, ROUNDS * AGENTS), f"simulate unit {i}: exit, CSV header, rows = {shape}")
        if trace_pass is None:
            self.reference = results
            self._check_learning(results, plan["windows"])
        else:
            same = results == self.reference[: len(results)]
            run.check(same, "a traced simulate wrote other curves than the untraced run with the same seeds")
        trace = [str(run.work / f"trace_{trace_pass}.npz")] if trace_pass is not None else []
        return Measured(timing.Samples.from_json(out["samples"]), out["peak_rss_kb"] / 1024, trace)

    def _check_learning(self, results: list[dict], windows: tuple) -> None:
        """Pooled over every unit: gate criterion 4's causal late-window
        and random overall means."""
        ok = [r for r in results if r["code"] == 0 and r.get("rows") == ROUNDS * AGENTS]
        causal = statistics.fmean(r["late"]["causal"] for r in ok) if ok else float("nan")
        rand = statistics.fmean(r["overall"]["random"] for r in ok) if ok else float("nan")
        self.run.show("causal_late_reward", causal, "reward")
        (clo, chi), (rlo, rhi) = windows
        self.run.check(
            clo <= causal <= chi and rlo <= rand <= rhi,
            f"pooled means: causal late {causal:.4f} (window {clo}-{chi}), random overall {rand:.4f} (window {rlo}-{rhi})",
        )
        self.run.record["pooled_replications"] = len(ok) * MEDIC_UNIT_REPS

    def show(self, samples: timing.Samples) -> None:
        ops = timing.all_ops_ns(samples)
        self.run.show("agent_rounds_per_s", len(ops) * MEDIC_UNIT_REPS * ROUNDS * AGENTS / (sum(ops) / 1e9), "1/s")
        _show_latencies(self.run, "simulate", ops)


def _random_rows(rnd: random.Random, n_parents: int) -> list[list[float]]:
    rows = []
    for _ in range(2**n_parents):
        a, b = rnd.random() + 0.05, rnd.random() + 0.05
        rows.append([a / (a + b), b / (a + b)])
    return rows


def wide_models(rnd: random.Random) -> dict[str, dict[str, Any]]:
    """The chain and the dense DAG, as model documents, from one stream."""
    names = [f"X{i}" for i in range(WIDE_VARS)]
    parents = {
        "chain": {n: names[i - 1 : i] for i, n in enumerate(names)},
        "dense": {n: sorted(rnd.sample(names[:i], min(i, DENSE_PARENTS))) for i, n in enumerate(names)},
    }
    docs = {}
    for kind, plist in parents.items():
        cpts = {}
        for n in names:
            configs = [[]]
            for _ in plist[n]:
                configs = [c + [s] for c in configs for s in ("0", "1")]
            cpts[n] = [
                ({"given": dict(zip(plist[n], c))} if plist[n] else {}) | {"p": p}
                for c, p in zip(configs, _random_rows(rnd, len(plist[n])))
            ]
        docs[kind] = {
            "variables": [{"name": n, "states": ["0", "1"]} for n in names],
            "parents": plist,
            "cpts": cpts,
        }
    return docs


def _oracle_model(doc: dict[str, Any]):
    """The document as library model types, built without the library's parser."""
    from causalsim.cgm import CausalGraph, CausalModel, Cpt, VariableSpec

    specs = tuple(VariableSpec(v["name"], tuple(v["states"])) for v in doc["variables"])
    parents = {n: tuple(p) for n, p in doc["parents"].items()}
    cpts = {
        n: Cpt(n, {tuple(row.get("given", {}).get(p) for p in parents[n]): tuple(row["p"]) for row in rows})
        for n, rows in doc["cpts"].items()
    }
    return CausalModel(CausalGraph(specs, parents), cpts)


class WideInference:
    @staticmethod
    def pass_ns(samples: timing.Samples) -> float:
        return timing.paired_pass(samples, timing.REF_NOMINAL_MS * 1e6)

    def __init__(self, run: Run):
        self.run = run
        run.record["sizes"] = {
            "distinct_queries": 6, "variables": WIDE_VARS, "joint_states": 2**WIDE_VARS, "models": ["chain", "dense"],
        }  # fmt: skip

    def setup(self) -> dict[str, Any]:
        import oracle

        run = self.run
        rnd = random.Random(run.seed)
        docs = wide_models(rnd)
        inputs = run.work / "inputs"
        inputs.mkdir(exist_ok=True)
        queries, expected = [], []
        for kind, doc in docs.items():
            path = inputs / f"{kind}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            model = _oracle_model(doc)
            a, b, c = sorted(rnd.sample(range(WIDE_VARS), 3))
            forced = {f"X{a}": rnd.choice("01")}
            evidence = {f"X{b}": rnd.choice("01")}
            target = {f"X{c}": rnd.choice("01")}
            joint = oracle.joint_table(model)
            surgery = oracle.do_table(model, forced)
            total = sum(surgery.values())
            queries += [
                {"model": kind, "kind": "query", "target": target, "evidence": evidence},
                {"model": kind, "kind": "interventional_query", "intervention": forced, "target": target},
                {"model": kind, "kind": "interventional_marginal", "intervention": forced, "variable": f"X{c}"},
            ]
            expected += [
                oracle.mass(model, joint, {**evidence, **target}) / oracle.mass(model, joint, evidence),
                oracle.mass(model, surgery, target) / total,
                [oracle.mass(model, surgery, {f"X{c}": s}) / total for s in "01"],
            ]
        spec = {"models": {k: str(inputs / f"{k}.json") for k in docs}, "queries": queries, "loads": SETUP_REPEATS}
        return {"spec": spec, "expected": expected}

    def measure(self, plan: dict[str, Any], rounds: int, seconds: float, trace_pass: int | None = None) -> Measured:
        run = self.run
        got, out = _loop_child(run, "wide", plan["spec"], rounds, seconds, trace_pass)
        for i, r in enumerate(out["results"]):
            want = plan["expected"][r["query"]]
            ok = r["error"] is None and _close(r["answer"], want)
            run.check(ok, f"query {r['query']} (unit {i}): got {r['answer']!r} ({r['error']}), oracle {want!r}")
        trace = [str(run.work / f"trace_{trace_pass}.npz")] if trace_pass is not None else []
        samples = timing.Samples.from_json(out["samples"])
        return Measured(samples, out["peak_rss_kb"] / 1024, trace, out["load_ns"], out["load_ratios"])

    def show(self, samples: timing.Samples) -> None:
        ops = timing.all_ops_ns(samples)
        self.run.show("queries_per_s", len(ops) / (sum(ops) / 1e9), "1/s")
        _show_latencies(self.run, "query", ops)


def _close(answer: Any, want: Any) -> bool:
    if isinstance(want, list):
        return (
            isinstance(answer, list)
            and len(answer) == len(want)
            and all(abs(a - w) <= ORACLE_TOL for a, w in zip(answer, want))
        )
    return isinstance(answer, float) and abs(answer - want) <= ORACLE_TOL


class CliCold:
    @staticmethod
    def pass_ns(samples: timing.Samples) -> float:
        return timing.paired_pass(samples, REF_LAUNCH_NOMINAL_MS * 1e6)

    def __init__(self, run: Run):
        self.run = run
        run.record["sizes"] = {"distinct_commands": 2}

    def setup(self) -> dict[str, Any]:
        import oracle
        from causalsim import load_model

        run = self.run
        model_path, experiment_path = _copy_inputs(run.work)
        experiment = json.loads(experiment_path.read_text(encoding="utf-8"))
        model = load_model(str(model_path))
        desired = {experiment["target"]: experiment["desired"]}
        payoff = {a["label"]: oracle.do_probability(model, a["do"], desired) for a in experiment["actions"]}
        commands = [
            (
                ["query", "--model", str(model_path), "--do", "T=1", "--target", "Y=1"],
                f"{oracle.do_probability(model, {'T': '1'}, {'Y': '1'}):.10g}",
            ),
            (
                ["best-action", "--model", str(model_path), "--experiment", str(experiment_path)],
                max(payoff, key=payoff.get),
            ),
        ]
        return {"commands": commands}

    def measure(self, plan: dict[str, Any], rounds: int, seconds: float, trace_pass: int | None = None) -> Measured:
        run = self.run
        trace_files: list[str] = []

        def op_for(args: list[str]):
            def launch(unit: int) -> Launch:
                if trace_pass is None:
                    return run.launch(_cli(*args), "launch")
                trace_files.append(str(run.work / f"trace_{trace_pass}_{unit}.npz"))
                return run.launch(_traced_cli(Path(trace_files[-1]), unit, args), "launch")

            return launch

        def keep(unit: int, k: int, got: Launch) -> None:
            args, want = plan["commands"][k]
            out = got.stdout.strip()
            run.check(got.code == 0 and out == want, f"{args[0]}: exit {got.code}, stdout {out!r}, expected {want!r}")

        def reference() -> None:
            got = run.launch(REF_LAUNCH, "reference")
            if got.code != 0:
                raise RuntimeError(f"reference launch exited {got.code}: {got.stderr.strip()[-500:]}")

        ops = [op_for(args) for args, _ in plan["commands"]]
        samples = timing.timed_loop(ops, seconds, rounds, keep, reference)
        return Measured(samples, max(self._peak_rss_mb(args) for args, _ in plan["commands"]), trace_files)

    def _peak_rss_mb(self, args: list[str]) -> float:
        """Peak RSS of one more launch, made from a bare interpreter: a
        child's ``ru_maxrss`` counts the process it was forked from, and
        the bare one is smaller than any causalsim process."""
        got = self.run.launch([sys.executable, "-S", "-c", RSS_LAUNCHER, *_cli(*args)], "rss")
        if got.code != 0:
            raise RuntimeError(f"{args[0]} exited {got.code} under the RSS launcher: {got.stderr.strip()[-500:]}")
        return int(got.stdout.split()[-1]) / 1024

    def show(self, samples: timing.Samples) -> None:
        _show_latencies(self.run, "cold_start", timing.all_ops_ns(samples))


WORKLOADS = {"medic-simulate": MedicSimulate, "wide-inference": WideInference, "cli-cold": CliCold}


def _show_latencies(run: Run, prefix: str, latencies_ns: list[int]) -> None:
    """Median and tail latency, with the percentile and sample count behind them."""
    pct, tail = timing.tail_percentile(latencies_ns)
    run.show(f"{prefix}_p50_ms", timing.median_ms(latencies_ns), "ms")
    run.show(f"{prefix}_tail_ms", tail / 1e6, "ms")
    run.record["latency_samples"] = len(latencies_ns)
    run.record["tail_percentile"] = pct


def end_to_end(run: Run, workload: Any, measured: Measured, setups: tuple[list[int], list[float]]) -> None:
    """Show every end-to-end metric of one untraced run."""
    setup_ns, setup_ratios = setups
    ratio = statistics.median(setup_ratios) + statistics.median(measured.load_ratios or [0.0])
    run.show("setup_s", ratio * timing.REF_NOMINAL_MS / 1e3, "s")
    run.show("raw_setup_s", (statistics.median(setup_ns) + statistics.median(measured.load_ns or [0])) / 1e9, "s")
    run.record["setup"] = {"input_repeats": len(setup_ns), "program_load_s": [ns / 1e9 for ns in measured.load_ns]}
    samples = measured.samples
    ref_best_ns = min(min(r) for r in samples.ref_ns)
    run.show("pass_ms", workload.pass_ns(samples) / 1e6, "ms")
    run.show("raw_pass_ms", sum(min(ns) for ns in samples.op_ns) / 1e6, "ms")
    run.show("ref_best_ms", ref_best_ns / 1e6, "ms")
    run.show("peak_rss_mb", measured.peak_rss_mb, "MB")
    run.show("wall_s", (sum(map(sum, samples.ref_ns)) + sum(timing.all_ops_ns(samples))) / 1e9, "s")
    workload.show(samples)
    run.record["timed_operations"] = sum(map(len, samples.op_ns))


def import_seconds(run: Run) -> float:
    """Median time to import causalsim minus that of a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        t0 = time.perf_counter()
        run.launch([sys.executable, "-c", "pass"], "bare")
        t1 = time.perf_counter()
        got = run.launch([sys.executable, "-c", "import causalsim"], "import")
        full.append(time.perf_counter() - t1)
        bare.append(t1 - t0)
        run.check(got.code == 0, f"import causalsim exited {got.code}: {got.stderr.strip()[-500:]}")
    return statistics.median(full) - statistics.median(bare)


def layer_metrics(run: Run, workload: Any, plan: dict[str, Any], rounds: int) -> dict[str, float]:
    """One untraced and two traced passes of fixed work; per-layer metrics
    come from the first trace."""
    untraced = workload.measure(plan, rounds, 0.0)
    passes = [workload.measure(plan, rounds, 0.0, trace_pass=p) for p in (0, 1)]
    if run.failed:
        return {}  # a failed traced run may have left no trace file
    first, second = (tracing.layer_totals(t.trace_files) for t in passes)
    calls, self_s, counts, root_s = first
    run.check(
        (first[0], first[2]) == (second[0], second[2]),
        f"work counts differ between two traced runs: {first[2]} vs {second[2]}",
    )
    metrics: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    states = counts["cgm.enumerated_states"]
    inference_s = sum(self_s[n] for n in tracing.INFERENCE_SPANS)
    metrics["cgm.enumerated_states"] = states
    metrics["cgm.ns_per_state"] = inference_s * 1e9 / states if states else 0.0
    metrics["model_io.bytes_read"] = counts["model_io.bytes_read"]
    metrics["reporting.bytes_written"] = counts["reporting.bytes_written"]
    metrics["cli.import_s"] = import_seconds(run)
    op_s = [sum(timing.all_ops_ns(m.samples)) / 1e9 for m in (untraced, *passes)]
    metrics["trace.overhead_ratio"] = statistics.median(op_s[1:]) / op_s[0]
    run.record["timed_op_s"] = {"untraced": op_s[0], "traced": op_s[1:]}
    run.record["self_share_of_traced_root_spans"] = {
        module: sum(self_s[f"{module}.{f}"] for f in funcs) / root_s for module, funcs in tracing.TRACED.items()
    }
    run.record["computed_counts"] = {"source": "computed from the inputs of each traced call", **counts}
    return metrics


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "causalsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"bench: not a causalsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(SRC), str(TESTS)]
    signal.signal(signal.SIGALRM, _on_alarm)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = Run(args.seed, work, time.monotonic() + RUN_BUDGET_S, env)
    workload = WORKLOADS[args.workload](run)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        plans = []
        repeats, seconds = (1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_SECONDS)
        setups = timing.paired_runs(lambda: plans.append(workload.setup()), repeats, seconds)
        plan = plans[-1]
        if args.trace:
            metrics = layer_metrics(run, workload, plan, TRACE_ROUNDS[args.workload])
        else:
            measured = workload.measure(plan, MIN_ROUNDS[args.workload], args.seconds)
            end_to_end(run, workload, measured, setups)
    except (_Timeout, RuntimeError) as e:
        print(f"bench: {args.workload} stopped: {e or f'over its {RUN_BUDGET_S} s budget'}", file=sys.stderr)
        return 3
    if not args.trace:
        metrics = {name: run.shown[name][0] for name in wanted if name in run.shown}
    run.show("error_rate", run.failed / max(run.attempted, 1), "ratio")

    run.record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_commit=_git_commit(),
        source_sha256=_source_hash(),
        cpu_count=os.cpu_count(),
        cpu_affinity=sorted(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    (work / "record.json").write_text(json.dumps(run.record, indent=2), encoding="utf-8")
    for problem in run.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in run.shown.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if args.trace:
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {wanted[name]}")
    print("record " + json.dumps(run.record))
    correct = run.failed == 0 and metrics.keys() == wanted.keys()
    result = {name: {"value": value, "unit": wanted[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
