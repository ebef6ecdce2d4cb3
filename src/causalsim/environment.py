"""The decision problem and the world the agents act in: a ground-truth
causal model, a menu of interventions, and a utility over one target
variable, solved by expected utility under ``do``.

:class:`Action`, :data:`UtilityFunction` and their checks define the
problem; :func:`expected_utility` scores one action on a model and
:func:`best_action` takes the argmax. They live here, not with the
learners in :mod:`~causalsim.agents`, so solving the problem on the
truth (``causalsim best-action``) runs neither ``agents`` nor
``beliefs``.

An action acts on the truth only by ``do``, the truncated
factorization. :func:`step`, the scalar reference, samples the
action's surgered truth (:func:`~causalsim.cgm.intervene`), built on
first use, and pays the utility of the realized target state.
:func:`draw` is the batched step: one outcome per replication, each
under its own action, from tables that the builder behind
:func:`~causalsim.cgm.sample` makes from the truth and the menu alone.
Only a variable some actions force and others do not gets rows per action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from .cgm import CausalModel, _check_forces, _sampling_tables, check_assignment, ensure_valid, intervene
from .cgm import interventional_marginal, sample
from . import model_io
from .model_io import _expect

__all__ = [
    "Action",
    "UtilityFunction",
    "expected_utility",
    "best_action",
    "Environment",
    "StepRecord",
    "step",
    "draw",
    "environment_from_dict",
    "load_environment",
    "environment_block_to_dict",
]

# Maps each target-variable state label to a finite real utility.
UtilityFunction = Mapping[str, float]


@dataclass(frozen=True)
class Action:
    """A labeled intervention the decision maker can take."""

    label: str
    intervention: Mapping[str, str]

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("an action needs a non-empty label")
        _check_forces(self.intervention)


def _check_action_set(actions: Sequence[Action], target: str) -> None:
    if not actions:
        raise ValueError("empty-action-set: at least one action is required")
    labels = [a.label for a in actions]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate action labels in the action set")
    for a in actions:
        if target in a.intervention:
            raise ValueError(f"action-intervenes-target: {a.label!r} forces {target}")


def _check_utility(utility: UtilityFunction, states: Sequence[str], target: str) -> None:
    for key in utility:
        if key not in states:
            raise ValueError(f"illegal-state: utility key {key!r} is not a state of {target}")
    for s in states:
        u = utility.get(s)
        if u is None:
            raise ValueError(f"utility does not cover state {s!r} of {target}")
        if not math.isfinite(u):
            raise ValueError(f"utility of {target}={s!r} must be finite")


def expected_utility(
    model: CausalModel, action: Action, target: str, utility: UtilityFunction
) -> float:
    """Expected utility of the target under the action's intervention.

    Sums utility(state) times P(target = state | do(intervention)) over
    the target's states on the given model.
    """
    dist = interventional_marginal(model, action.intervention, target)
    states = model.graph.variable_map[target].states
    _check_utility(utility, states, target)
    return sum(utility[s] * p for s, p in zip(states, dist))


def best_action(
    model: CausalModel,
    actions: Sequence[Action],
    target: str,
    utility: UtilityFunction,
) -> int:
    """Index of the expected-utility argmax; ties go to the lowest index."""
    if not actions:
        raise ValueError("empty-action-set: at least one action is required")
    eus = [expected_utility(model, a, target, utility) for a in actions]
    return eus.index(max(eus))


@dataclass(frozen=True)
class StepRecord:
    """One environment transition: action label, realized full
    assignment, and the utility paid for the realized target state."""

    action: str
    realized: Mapping[str, str]
    reward: float


@dataclass(frozen=True)
class Environment:
    """An immutable world: truth model, action menu, target, utility."""

    truth: CausalModel
    actions: tuple[Action, ...]
    target: str
    utility: Mapping[str, float]

    def __post_init__(self) -> None:
        ensure_valid(self.truth)
        spec = self.truth.graph.variable_map.get(self.target)
        if spec is None:
            raise ValueError(f"unknown-target: {self.target!r} is not in the model")
        _check_action_set(self.actions, self.target)
        _check_utility(self.utility, spec.states, self.target)
        for a in self.actions:
            check_assignment(self.truth.graph, a.intervention, "intervention")

    @cached_property
    def _surgered(self) -> tuple[CausalModel, ...]:
        """The truth after each action's surgery, in menu order; :func:`step` samples it."""
        return tuple(intervene(self.truth, a.intervention) for a in self.actions)

    @cached_property
    def _sampler(self) -> tuple:
        return _sampling_tables(self.truth, [a.intervention for a in self.actions])

    @cached_property
    def _payoff(self) -> np.ndarray:
        """The utility of each target state, indexed by state code."""
        return np.array([self.utility[s] for s in self.truth.graph.variable_map[self.target].states])


def step(env: Environment, action: Action, rng: np.random.Generator) -> StepRecord:
    """Take one action: force it, sample a world, pay out."""
    if action not in env.actions:
        raise ValueError(f"unknown-action: {action.label!r} is not in this environment")
    realized = sample(env._surgered[env.actions.index(action)], rng)
    return StepRecord(action.label, realized, env.utility[realized[env.target]])


def draw(env: Environment, actions: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched step: one full outcome per replication, as state codes.

    ``actions`` holds one action index per replication; ``u`` has shape
    (replications, variables) and supplies, per replication, one
    uniform per variable in the truth's topological order. Returns an
    (replications, variables) intp array of state codes, columns in the
    truth's declaration order, written into ``out`` when given. Given
    the same uniform for each variable, a replication's outcome is the
    one :func:`step` draws for the same action.

    A variable every action forces is looked up by action; its uniform
    goes unread. Any other takes the number of entries at or below its
    uniform in the row ``sum(parent code * stride)``
    (``CausalGraph._layout``) of the truth's cumulative rows, or, if
    only some actions force it, in the block of rows of its action.
    """
    actions = np.asarray(actions, np.intp)
    x = np.empty(u.shape, np.intp) if out is None else out
    for k, (pos, parents, strides, step, cum) in enumerate(env._sampler):
        if step is None:
            x[:, pos] = cum[actions]
            continue
        index = (actions * step if parents else actions) if step else None
        for p, stride in zip(parents, strides):
            term = x[:, p] * stride if stride > 1 else x[:, p]  # a view of x only if it is the one term
            index = term if index is None else np.add(index, term, out=index)
        entries = cum if index is None else cum.take(index, axis=0)
        x[:, pos] = entries <= u[:, k] if cum.ndim == 1 else (entries <= u[:, k, None]).sum(axis=1)
    return x


def environment_from_dict(truth: CausalModel, data: Any, *, doc: str = "$") -> Environment:
    """Assemble an environment from a truth model and the environment
    half of a parsed experiment document; ``doc`` prefixes error paths.

    The document contributes the target, the action menu, and the
    utility. The utility is either explicit under "utility" or, as a
    shorthand, a "desired" target state paying 1 with every other state
    paying 0. Unknown targets, actions that force the target, and
    malformed documents are all rejected, as a :class:`FormatError`
    under ``doc``. The run-shape keys are parsed by
    :func:`~causalsim.experiment.config_from_dict`.
    """
    _expect(isinstance(data, dict), doc, "expected an object")
    target = data.get("target")
    _expect(isinstance(target, str), f"{doc}: target", "expected a string")

    raw_actions = data.get("actions")
    _expect(isinstance(raw_actions, list) and raw_actions, f"{doc}: actions", "expected a non-empty list")
    actions = []
    for i, item in enumerate(raw_actions):
        where = f"{doc}: actions[{i}]"
        _expect(isinstance(item, dict) and set(item) == {"label", "do"}, where, "expected an object with keys 'label' and 'do'")
        label, do = item["label"], item["do"]
        _expect(isinstance(label, str) and label, f"{where}.label", "expected a non-empty string")
        _expect(isinstance(do, dict) and do, f"{where}.do", "expected a non-empty object")
        _expect(all(isinstance(v, str) for v in do.values()), f"{where}.do", "expected string-to-string entries")
        actions.append(Action(label, dict(do)))

    utility = None
    raw_utility = data.get("utility")
    if raw_utility is not None:
        _expect(isinstance(raw_utility, dict), f"{doc}: utility", "expected an object")
        utility = {k: model_io.number(v, f"{doc}: utility.{k}") for k, v in raw_utility.items()}

    desired = data.get("desired")
    _expect(desired is None or isinstance(desired, str), f"{doc}: desired", "expected a string")
    _expect(utility is not None or desired is not None, doc, "one of 'utility' or 'desired' is required")
    spec = truth.graph.variable_map.get(target)
    _expect(spec is not None, f"{doc}: target", f"unknown-target: {target!r} is not in the model")
    ok = desired is None or desired in spec.state_index
    _expect(ok, f"{doc}: desired", f"illegal-state: desired state {desired!r} is not a state of {target}")
    if utility is None:
        utility = {s: (1.0 if s == desired else 0.0) for s in spec.states}
    ensure_valid(truth)  # a fault of the truth is not one of the document
    try:
        return Environment(truth=truth, actions=tuple(actions), target=target, utility=utility)
    except ValueError as e:
        raise model_io.FormatError(doc, str(e)) from None


def load_environment(model_path: str, experiment_path: str) -> Environment:
    """Assemble an environment from a model file and an experiment file
    (:func:`environment_from_dict`)."""
    truth = model_io.load_model(model_path)
    return environment_from_dict(truth, model_io.read_json(experiment_path), doc=experiment_path)


def environment_block_to_dict(env: Environment) -> dict[str, Any]:
    """The experiment-file keys that describe an environment."""
    return {
        "target": env.target,
        "actions": [{"label": a.label, "do": dict(a.intervention)} for a in env.actions],
        "utility": {s: float(u) for s, u in env.utility.items()},
    }
