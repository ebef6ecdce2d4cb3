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
their state in arrays with a leading replication axis, bind once to
their rows of the engine's action, outcome and reward buffers, and are
tested against the scalar functions. The engine pays every reward; the
Q-learning policy reads neither the truth nor the utility. A batched
policy only proposes its greedy actions and learns; exploration is the
engine's: each round it replaces a replication's greedy action by a
uniformly drawn one at the policy's ``epsilon`` rate, for every agent
of the block in one step (the random policy's rate is 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence

import numpy as np

from .beliefs import BeliefState, CountBeliefs, _summed, posterior_mean, update
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

    The constructor takes ``(env, cfg, n)``, and ``bind(actions, x,
    rewards)`` the rows, once: (n,) intp actions, (n, variables) state
    codes in the truth's declaration order and (n,) float rewards. Each
    round, ``greedy()`` writes each replication's action from the current
    state alone; ``learn()`` then folds in, in place, the actions taken
    and the outcomes or the rewards in the rows, as the policy needs.
    ``epsilon`` is the rate at which the engine replaces the greedy action
    by a uniformly drawn one; policies never explore themselves.
    """

    epsilon: float

    def bind(self, actions: np.ndarray, x: np.ndarray, rewards: np.ndarray) -> None: ...

    def greedy(self) -> None: ...

    def learn(self) -> None: ...


def _expected_utilities(columns: Sequence[np.ndarray], payoff: Sequence[float], out: np.ndarray) -> list[tuple[Callable, tuple]]:
    """The (function, arguments) calls that write into ``out`` the expected
    utilities from target masses given as one array per state,
    normalized and weighed state by state, with no term for a utility of 0
    and no product for one of 1: for fewer than 8 states and a positive total,
    the bits of ``(mass / mass.sum(-1, keepdims=True) * payoff).sum(-1)`` up to the sign of a zero."""
    total, term = np.empty_like(out), np.empty_like(out)
    calls, out[...] = _summed(columns, total), 0.0
    for i, (column, w) in enumerate((column, w) for column, w in zip(columns, payoff) if w):
        t = term if i else out
        calls += [(np.divide, (column, total, t))] + [(np.multiply, (t, np.array(w), t))] * (w != 1.0)
        calls += [(np.add, (out, t, out))] * (i > 0)
    return calls


class CausalBatch:
    """The greedy causal policy.

    Per replication: Dirichlet counts over the truth's graph, updated
    like :func:`causal_learn` and scored each round like
    :func:`causal_choose`: each action's query, bound once to the
    posterior means, writes its column of one (n, actions, target
    cardinality) array, then scored in buffers bound once. It refuses a
    truth whose scoring would build a factor of over ``MAX_FACTOR_STATES``.
    """

    def __init__(self, env: Environment, cfg: CausalAgentConfig, n: int):
        graph = env.truth.graph
        # Raises factor too large before any counts are allocated.
        queries = [ReplicatedQuery(graph, a.intervention, env.target) for a in env.actions]
        scored = sorted({p for q in queries for p, _ in q.plan.factors})
        self.beliefs = CountBeliefs(graph, cfg.prior_alpha, n, scored, [a.intervention for a in env.actions])
        self.epsilon = cfg.epsilon
        columns, buffers = np.empty((len(env._payoff), len(queries), n)), {}
        self.mass, self.eu = columns.T, np.empty(columns.shape[1:])
        self._scoring = [call for k, q in enumerate(queries) for call in q.bind(self.beliefs.means, self.mass[:, k], buffers)]
        self._scoring += _expected_utilities(list(columns), env._payoff.tolist(), self.eu)

    def bind(self, actions: np.ndarray, x: np.ndarray, rewards: np.ndarray) -> None:
        self._round = [*self._scoring, (self.eu.argmax, (0, actions))]
        self._actions, self._x = actions, x

    def greedy(self) -> None:
        self.beliefs.posterior()
        for f, args in self._round:
            f(*args)

    def learn(self) -> None:
        self.beliefs.update(self._x, self._actions)


class QBatch:
    """Stateless Q-learning: an (n, actions) value array, chosen from
    like :func:`q_choose` and updated like :func:`q_learn` from the bound
    rewards alone. Of ``env`` it reads only the action menu."""

    def __init__(self, env: Environment, cfg: QLearningConfig, n: int):
        self.q = np.full((n, len(env.actions)), float(cfg.q0))
        self.alpha = np.array(cfg.alpha)  # 0-d: its product with an array skips a scalar conversion
        self.epsilon = cfg.epsilon
        self._flat, self._base = self.q.reshape(-1), np.arange(n) * len(env.actions)

    def bind(self, actions: np.ndarray, x: np.ndarray, rewards: np.ndarray) -> None:
        self._actions, self._rewards = actions, rewards

    def greedy(self) -> None:
        self.q.argmax(1, self._actions)

    def learn(self) -> None:
        index = self._base + self._actions
        q = self._flat[index]
        self._flat[index] = q + self.alpha * (self._rewards - q)


class RandomBatch:
    """Uniform choice over the action menu: always explores, learns nothing."""

    epsilon = 1.0

    def __init__(self, env: Environment, cfg: Any, n: int):
        pass

    def bind(self, *rows: np.ndarray) -> None:
        pass  # at rate 1 the engine overwrites every row of ``actions``, and nothing is learned

    greedy = learn = bind
