"""Command-line front end.

Three subcommands:

``simulate``
    Run the configured agents against a model and experiment file,
    write the aggregate CSV (and optionally an SVG chart), and print a
    short summary. Flags override values from the experiment file.
``query``
    Print one interventional probability for a model file.
``best-action``
    Print the label of the expected-utility-optimal action under the
    model file's ground truth.

Exit codes: 0 on success, 1 on usage errors (bad flags or arguments),
2 on invalid input (unreadable or contract-violating files, or a run
too large to allocate).

Only ``cgm`` and ``model_io`` are imported by name here: ``query`` and
the exceptions :func:`cli_main` catches need them. The other modules
are package submodules that run on first attribute access, and the
handlers reach them through module attributes. So ``query`` executes no
other module, and ``best-action`` adds only ``environment``, which
defines and solves the decision problem, and ``experiment``, which
checks the run half of the experiment file; it never executes the
learners (``agents``, ``beliefs``) or ``reporting``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from . import environment, experiment, model_io, reporting
from .cgm import InvalidModelError, _added, _check_prior, interventional_query
from .model_io import FormatError, _checked, load_model

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    """Raised by the parser instead of exiting, so cli_main owns codes."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _assignment_pair(text: str) -> tuple[str, str]:
    name, sep, state = text.partition("=")
    if not sep or not name or not state:
        raise argparse.ArgumentTypeError(f"expected VAR=STATE, got {text!r}")
    return name, state


def _int_in(kind: str, low: int, high: Callable[[], float] = lambda: float("inf")) -> Callable[[str], int]:
    """An argparse type for integers from ``low`` to ``high()``, called only
    when a value is parsed; ``kind`` names that range in the error message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not low <= value <= high():
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="causalsim", description="Causal decision simulator")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sim = sub.add_parser("simulate", help="run agents and write aggregate curves")
    sim.add_argument("--model", required=True, help="model JSON file")
    sim.add_argument("--experiment", required=True, help="experiment JSON file")
    sim.add_argument("--out", required=True, help="CSV output path")
    sim.add_argument("--svg", help="optional SVG chart path")
    positive = _int_in("positive", 1)
    seed = _int_in("64-bit unsigned", 0, lambda: experiment.MAX_SEED)  # so query never runs experiment
    sim.add_argument("--seed", type=seed, help="override the master seed")
    sim.add_argument("--rounds", type=positive, help="override rounds per replication")
    sim.add_argument("--reps", type=positive, help="override the replication count")
    sim.add_argument("--workers", type=positive, help="run replications in this many processes")

    qry = sub.add_parser("query", help="print an interventional probability")
    qry.add_argument("--model", required=True, help="model JSON file")
    qry.add_argument(
        "--do",
        required=True,
        action="append",
        type=_assignment_pair,
        metavar="VAR=STATE",
        help="forced variable; repeat for joint interventions",
    )
    qry.add_argument("--target", required=True, type=_assignment_pair, metavar="VAR=STATE")

    best = sub.add_parser("best-action", help="print the optimal action's label")
    best.add_argument("--model", required=True, help="model JSON file")
    best.add_argument("--experiment", required=True, help="experiment JSON file")
    return parser


def _load_experiment(ns: argparse.Namespace) -> tuple[environment.Environment, experiment.ExperimentConfig]:
    """The environment and the run shape of ``--model`` and ``--experiment``,
    reading each file once: the environment block is checked first, and the
    causal agent's prior against the truth last."""
    truth = load_model(ns.model)
    data = model_io.read_json(ns.experiment)
    env = environment.environment_from_dict(truth, data, doc=ns.experiment)
    cfg = experiment.config_from_dict(data, doc=ns.experiment)
    if "causal" in cfg.agents:
        _checked(f"{ns.experiment}.agents.causal", _check_prior, cfg.agents["causal"].prior_alpha, truth.graph)
    return env, cfg


def _cmd_simulate(ns: argparse.Namespace) -> int:
    env, cfg = _load_experiment(ns)
    cfg = experiment.apply_overrides(
        cfg, seed=ns.seed, rounds=ns.rounds, replications=ns.reps, out_csv=ns.out, out_svg=ns.svg
    )
    if cfg.out_svg and os.path.realpath(cfg.out_svg) == os.path.realpath(cfg.out_csv):
        raise ValueError(f"same-output: the CSV and the SVG would both be written to {cfg.out_csv}")
    written = [path for path in (cfg.out_csv, cfg.out_svg) if path]
    for out in written:
        if same := [p for p in (ns.model, ns.experiment) if os.path.realpath(p) == os.path.realpath(out)]:
            raise ValueError(f"same-output: {out} would overwrite the input file {same[0]}")
    result = experiment.run_experiment(env, cfg, workers=ns.workers)
    reporting.write_csv(result.series, cfg.out_csv)
    if cfg.out_svg:
        reporting.write_svg(result.series, cfg.out_svg)

    for s in result.series:
        overall, final = (f"{m:.4f}" if abs(m) < 1e9 else f"{m:.12g}" for m in (_added(s.values) / len(s.values), s.values[-1]))
        print(f"{s.label}: overall mean reward {overall}, final round mean {final}")
    labels = {s.label for s in result.series}
    if {"causal", "qlearning"} <= labels:
        n = experiment.convergence_index(
            result.series_for("causal"), result.series_for("qlearning"), cfg.epsilon
        )
        shown = "none" if n is None else str(n)
        print(f"convergence index (causal vs qlearning, epsilon={cfg.epsilon:g}): {shown}")
    print("wrote " + ", ".join(written))
    return 0


def _cmd_query(ns: argparse.Namespace) -> int:
    model = load_model(ns.model)
    intervention: dict[str, str] = {}
    for name, state in ns.do:
        if name in intervention:
            raise ValueError(f"duplicate --do for variable {name!r}")
        intervention[name] = state
    target_var, target_state = ns.target
    p = interventional_query(model, intervention, {target_var: target_state})
    print(f"{p:.10g}")
    return 0


def _cmd_best_action(ns: argparse.Namespace) -> int:
    env, _ = _load_experiment(ns)  # the same file simulate accepts, run half included
    index = environment.best_action(env.truth, env.actions, env.target, env.utility)
    print(env.actions[index].label)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "query": _cmd_query,
    "best-action": _cmd_best_action,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse exits itself for --help
        return int(e.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except (FormatError, InvalidModelError) as e:
        print(f"causalsim: invalid input: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as e:
        print(f"causalsim: error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
