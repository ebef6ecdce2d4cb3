"""Decision policies over causal models: expected-utility maximization,
stateless Q-learning, and a uniform-random baseline.

The causal policy scores each candidate intervention by the expected
utility of the target variable under that intervention, computed on the
posterior-mean model of its current beliefs, and picks the argmax. The
decision problem itself (:class:`~causalsim.environment.Action`,
:func:`~causalsim.environment.expected_utility` and
:func:`~causalsim.environment.best_action`) is defined in
:mod:`~causalsim.environment`; this module imports it, so those names
are also importable from here, as the same objects. The
Q-learning policy ignores the model entirely and keeps one running
value estimate per action. The random policy is the control.

All argmax operations break ties toward the lowest action index, which
keeps every policy deterministic given its inputs and its random
stream.

The scalar functions are references for one replication: they read the
:class:`~causalsim.environment.Environment` and the agent config the
engine reads, and take and return the beliefs or the values. The
experiment engine runs each policy for a whole block of replications
at once through :class:`BatchPolicy`, whose three implementations keep
their state in arrays with a leading replication axis and are tested
against the scalar functions. A batched policy only proposes its
greedy actions and learns; exploration is the engine's: each round it
replaces a replication's greedy action by a uniformly drawn one at the
policy's ``epsilon`` rate, for every agent of the block in one step
(the random policy is the one whose rate is 1).
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Any, Protocol, Sequence

import numpy as np

from .beliefs import BeliefState, CountBeliefs, posterior_mean, update
from .cgm import Assignment, ReplicatedQuery
from .environment import Action, UtilityFunction, best_action, expected_utility

if TYPE_CHECKING:
    from .environment import Environment
    from .experiment import CausalAgentConfig, QLearningConfig

__all__ = [
    "causal_choose",
    "causal_learn",
    "q_choose",
    "q_learn",
    "random_choose",
    "BatchPolicy",
    "CausalBatch",
    "QBatch",
    "RandomBatch",
]


def causal_choose(env: Environment, beliefs: BeliefState) -> int:
    """Greedy choice on the posterior-mean model of the beliefs.

    Pure: no randomness, no state change, same answer on repeat calls.
    """
    return best_action(posterior_mean(beliefs), env.actions, env.target, env.utility)


def causal_learn(env: Environment, beliefs: BeliefState, action: Action, observed: Assignment) -> BeliefState:
    """Fold the observed outcome of one taken action into the beliefs."""
    if action not in env.actions:
        raise ValueError(f"unknown-action: {action.label!r} is not in the agent's action set")
    return update(beliefs, action.intervention, observed)


def q_choose(cfg: QLearningConfig, q: Sequence[float], rng: np.random.Generator) -> int:
    """Epsilon-greedy over ``q``, one value per action in menu order:
    explore uniformly with probability epsilon, else take the value
    argmax with lowest-index tie-breaking."""
    if cfg.epsilon > 0.0 and rng.random() < cfg.epsilon:
        return int(rng.integers(len(q)))
    values = list(q)
    return values.index(max(values))


def q_learn(cfg: QLearningConfig, q: Sequence[float], index: int, reward: float) -> tuple[float, ...]:
    """Move the chosen action's estimate toward the received reward.

    Only the chosen entry changes: q + alpha * (reward - q).
    """
    if not 0 <= index < len(q):
        raise IndexError(f"bad-index: {index} is not an action index (0..{len(q) - 1})")
    values = list(q)
    values[index] += cfg.alpha * (reward - values[index])
    return tuple(values)


def random_choose(actions: Sequence[Action], rng: np.random.Generator) -> int:
    """Uniform choice over action indices from the supplied stream."""
    if not actions:
        raise ValueError("empty-action-set: at least one action is required")
    return int(rng.integers(len(actions)))


class BatchPolicy(Protocol):
    """One policy run for n replications at once.

    The constructor takes ``(env, cfg, n)``. Each round, ``greedy(out)``
    writes one action index per replication into ``out``, an (n,) intp
    array, from the current state alone; ``learn`` then folds in the
    actions taken and the realized outcomes, an (n, variables) array of
    state codes in the truth's declaration order, in place. ``epsilon``
    is the rate at which the engine replaces the greedy action by a
    uniformly drawn one; policies never explore themselves.
    """

    epsilon: float

    def greedy(self, out: np.ndarray) -> None: ...

    def learn(self, actions: np.ndarray, x: np.ndarray) -> None: ...


def _expected_utilities(columns: Sequence[np.ndarray], payoff: Sequence[float]) -> np.ndarray:
    """Expected utilities from target masses given as one array per state,
    normalized and weighed state by state, with no term for a utility of 0
    and no product for one of 1: for fewer than 8 states and a positive total,
    the bits of ``(mass / mass.sum(-1, keepdims=True) * payoff).sum(-1)`` up to the sign of a zero."""
    total = reduce(np.add, columns)
    terms = [column / total if w == 1.0 else column / total * w for column, w in zip(columns, payoff) if w]
    return reduce(np.add, terms) if terms else np.zeros_like(total)


class CausalBatch:
    """The greedy causal policy.

    Per replication: Dirichlet counts over the truth's graph, updated
    like :func:`causal_learn` and scored each round like
    :func:`causal_choose`: each action's query, bound once to the
    posterior means, writes its column of one (n, actions, target
    cardinality) array. It refuses a truth whose scoring would build a
    factor of more than ``MAX_FACTOR_STATES`` states.
    """

    def __init__(self, env: Environment, cfg: CausalAgentConfig, n: int):
        graph = env.truth.graph
        # Raises factor too large before any counts are allocated.
        self.queries = [ReplicatedQuery(graph, a.intervention, env.target) for a in env.actions]
        self.beliefs = CountBeliefs(graph, cfg.prior_alpha, n, sorted({p for q in self.queries for p, _ in q.plan.factors}))
        self.epsilon = cfg.epsilon
        self.payoff = env._payoff.tolist()
        # free[a, i]: 1.0 unless action a forces the variable at position i.
        self.free = np.array([[float(v.name not in a.intervention) for v in graph.variables] for a in env.actions])
        self.mass = np.empty((n, len(self.queries), len(self.payoff)))
        for k, query in enumerate(self.queries):
            query.bind(self.beliefs.means, self.mass[:, k])
        self._columns = list(np.moveaxis(self.mass, 2, 0))

    def greedy(self, out: np.ndarray) -> None:
        self.beliefs.posterior()
        for query in self.queries:
            query()
        _expected_utilities(self._columns, self.payoff).argmax(axis=1, out=out)

    def learn(self, actions: np.ndarray, x: np.ndarray) -> None:
        self.beliefs.update(x, self.free.take(actions, axis=0))


class QBatch:
    """Stateless Q-learning: an (n, actions) value array, chosen from
    like :func:`q_choose` and updated like :func:`q_learn`."""

    def __init__(self, env: Environment, cfg: QLearningConfig, n: int):
        self.q = np.full((n, len(env.actions)), float(cfg.q0))
        self.alpha = cfg.alpha
        self.epsilon = cfg.epsilon
        self.payoff = env._payoff
        self.target = env.truth.graph._positions[env.target]
        self._flat, self._base = self.q.reshape(-1), np.arange(n) * len(env.actions)

    def greedy(self, out: np.ndarray) -> None:
        self.q.argmax(axis=1, out=out)

    def learn(self, actions: np.ndarray, x: np.ndarray) -> None:
        reward = self.payoff[x[:, self.target]]
        index = self._base + actions
        q = self._flat[index]
        self._flat[index] = q + self.alpha * (reward - q)


class RandomBatch:
    """Uniform choice over the action menu: always explores, learns nothing."""

    epsilon = 1.0

    def __init__(self, env: Environment, cfg: Any, n: int):
        pass

    def greedy(self, out: np.ndarray) -> None:
        pass  # at rate 1 the engine overwrites every row of ``out``

    def learn(self, actions: np.ndarray, x: np.ndarray) -> None:
        pass
