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
first use, and pays the utility of the realized target state. For
the batched step, the environment keeps sampling tables that the
builder behind :func:`~causalsim.cgm.sample` makes from the truth and
the menu alone; only a variable some actions force and others do not
gets rows per action. The engine binds the batched draw,
:func:`~causalsim.cgm._drawer`, to them once per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from .cgm import CausalModel, _added, _FieldError, _check_forces, _sampling_tables, check_assignment
from .cgm import intervene, interventional_marginal, sample
from . import experiment, model_io
from .model_io import _checked, _expect

__all__ = [
    "Action",
    "UtilityFunction",
    "expected_utility",
    "best_action",
    "Environment",
    "StepRecord",
    "step",
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
            raise _FieldError("label", "an action needs a non-empty label")
        _check_forces(self.intervention)


def _check_utility(utility: UtilityFunction, states: Sequence[str], target: str) -> None:
    for key in utility:
        if key not in states:
            raise _FieldError(f"utility.{key}", f"illegal-state: utility key {key!r} is not a state of {target}")
    for s in states:
        u = utility.get(s)
        if u is None:
            raise _FieldError("utility", f"utility does not cover state {s!r} of {target}")
        if not math.isfinite(u):
            raise _FieldError(f"utility.{s}", f"utility of {target}={s!r} must be finite")


def expected_utility(
    model: CausalModel, action: Action, target: str, utility: UtilityFunction
) -> float:
    """Expected utility of the target under the action's intervention.

    Sums utility(state) times P(target = state | do(intervention)) over
    the target's states on the given model, in state order.
    """
    dist = interventional_marginal(model, action.intervention, target)
    states = model.graph.variable_map[target].states
    _check_utility(utility, states, target)
    return _added(utility[s] * p for s, p in zip(states, dist))


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
    """An immutable world: truth model, action menu, target, utility, checked against the truth."""

    truth: CausalModel
    actions: tuple[Action, ...]
    target: str
    utility: Mapping[str, float]

    def __post_init__(self) -> None:
        spec = self.truth.graph.variable_map.get(self.target)
        if spec is None:
            raise _FieldError("target", f"unknown-target: {self.target!r} is not in the model")
        if not self.actions:
            raise _FieldError("actions", "empty-action-set: at least one action is required")
        labels = [a.label for a in self.actions]
        for i, a in enumerate(self.actions):
            if labels.index(a.label) < i:
                raise _FieldError(f"actions[{i}].label", "duplicate action labels in the action set")
            if self.target in a.intervention:
                raise _FieldError(f"actions[{i}].do", f"action-intervenes-target: {a.label!r} forces {self.target}")
            try:
                check_assignment(self.truth.graph, a.intervention, "intervention")
            except ValueError as e:
                raise _FieldError(f"actions[{i}].do", str(e)) from None
        _check_utility(self.utility, spec.states, self.target)

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


def environment_from_dict(truth: CausalModel, data: Any, *, doc: str = "$") -> Environment:
    """Assemble an environment from a truth model and the environment
    half of a parsed experiment document; ``doc`` starts error paths.

    The document contributes the target, the action menu, and the
    utility. The utility is either explicit under "utility" or, as a
    shorthand, a "desired" target state paying 1 with every other state
    paying 0. Malformed documents, keys that neither half knows and the
    faults :class:`Action` and :class:`Environment` find are rejected as a
    :class:`FormatError` at the entry, such as ``exp.json.actions[1].label``.
    The run-shape keys are parsed by :func:`~causalsim.experiment.config_from_dict`.
    """
    _expect(isinstance(data, dict), doc, "expected an object")
    experiment._check_keys(data, doc)
    target = data.get("target")
    _expect(isinstance(target, str), f"{doc}.target", "expected a string")

    raw_actions = data.get("actions")
    _expect(isinstance(raw_actions, list), f"{doc}.actions", "expected a list")
    actions = []
    for i, item in enumerate(raw_actions):
        where = f"{doc}.actions[{i}]"
        _expect(isinstance(item, dict) and set(item) == {"label", "do"}, where, "expected an object with keys 'label' and 'do'")
        label, do = item["label"], item["do"]
        _expect(isinstance(label, str), f"{where}.label", "expected a string")
        _expect(isinstance(do, dict) and all(isinstance(v, str) for v in do.values()), f"{where}.do", "expected an object of strings")
        actions.append(_checked(where, Action, label, dict(do)))

    utility = data.get("utility")
    if utility is not None:
        _expect(isinstance(utility, dict), f"{doc}.utility", "expected an object")
        utility = {k: model_io.number(v, f"{doc}.utility.{k}") for k, v in utility.items()}

    desired = data.get("desired")
    _expect(desired is None or isinstance(desired, str), f"{doc}.desired", "expected a string")
    _expect(utility is not None or desired is not None, doc, "one of 'utility' or 'desired' is required")
    spec = truth.graph.variable_map.get(target)  # the Environment refuses an unknown target
    ok = desired is None or spec is None or desired in spec.state_index
    _expect(ok, f"{doc}.desired", f"illegal-state: desired state {desired!r} is not a state of {target}")
    if utility is None:
        utility = {s: (1.0 if s == desired else 0.0) for s in (spec.states if spec else ())}
    return _checked(doc, Environment, truth, tuple(actions), target, utility)


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
