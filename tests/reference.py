"""The library's earlier round kernels, kept as references for the flat
row layout and the column-wise normalizations that replaced them, plus
a generator of models with zero-mass entries for comparing the two.

Each function keeps the arithmetic of the code it stands for: ``draw``
gathers every variable's cumulative rows with one multi-array index
per variable, ``update_counts`` increments one per-variable count array
at a time, ``min_fill`` recomputes every fill-in count at each
elimination step, and ``posterior`` and ``expected_utilities`` reduce
over the state axis with ``sum``. The tests require the library to give
exactly the same codes, counts, elimination plans, means and expected
utilities.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, Mapping

import numpy as np

from causalsim import Action, Environment
from causalsim.cgm import CausalGraph, CausalModel, Cpt, VariableSpec, cumulative


def _sampling_order(graph: CausalGraph) -> list[tuple[int, tuple[int, ...]]]:
    positions = graph._positions
    return [(positions[name], tuple(positions[p] for p in graph.parents_of(name))) for name in graph.topological_order]


def draw(env, actions: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per variable in topological order: one gather of the action's
    cumulative rows by (action, parent codes...), then the first entry
    above the uniform."""
    sampler = []
    for pos, parents in _sampling_order(env.truth.graph):
        stacked = np.empty((len(env._surgered), *env.truth.table(pos).shape))
        for k, m in enumerate(env._surgered):
            stacked[k] = m.table(pos)
        sampler.append((pos, parents, cumulative(stacked)))
    x = np.empty(u.shape, np.intp)
    for k, (pos, parents, cum) in enumerate(sampler):
        rows = cum[(actions, *[x[:, p] for p in parents])]
        x[:, pos] = (rows > u[:, k, None]).argmax(axis=1)
    return x


def count_arrays(graph: CausalGraph, alpha0: float, n: int) -> list[np.ndarray]:
    """One (n, parent cardinalities..., cardinality) array per variable."""
    return [np.full((n, *shape), float(alpha0)) for _, _, shape, _ in graph._table_layout]


def update_counts(counts: list[np.ndarray], graph: CausalGraph, x: np.ndarray, free: np.ndarray) -> None:
    """Add ``free[:, pos]`` at each replication's observed entry, one
    variable at a time."""
    positions = graph._positions
    rows = np.arange(len(x))
    axes = [tuple(positions[p] for p in graph.parents_of(v.name)) + (i,) for i, v in enumerate(graph.variables)]
    for pos in range(len(graph.variables)):
        counts[pos][(rows, *[x[:, a] for a in axes[pos]])] += free[:, pos]


def posterior(counts: np.ndarray) -> np.ndarray:
    """Posterior means: each row of pseudo-counts over its sum."""
    return counts / counts.sum(axis=-1, keepdims=True)


def expected_utilities(mass: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """Per replication and action: the target masses, (..., states),
    normalized and weighed by the payoff of each state."""
    return (mass / mass.sum(axis=-1, keepdims=True) * payoff).sum(axis=-1)


def min_fill(
    hidden: set[str], scopes: list[tuple[str, ...]], cards: Mapping[str, int], position: Mapping[str, int]
) -> str:
    """The variable to eliminate next: fewest fill-in edges, then the
    smallest factor it creates, then declaration order."""
    adjacent: dict[str, set[str]] = {}
    for scope in scopes:
        for a in scope:
            adjacent.setdefault(a, set()).update(scope)

    def cost(var: str) -> tuple[int, int, int]:
        neighbours = adjacent[var] - {var}
        fill = sum(b not in adjacent[a] for a, b in itertools.combinations(neighbours, 2))
        return fill, math.prod(cards[a] for a in adjacent[var]), position[var]

    return min(hidden, key=cost)


def min_fill_order(
    scopes: list[tuple[str, ...]], hidden: set[str], cards: Mapping[str, int], position: Mapping[str, int]
) -> Iterator[str]:
    """The order in which the plan builder eliminated ``hidden``: one
    :func:`min_fill` search over the live scopes per step, after which
    every scope holding the variable merges into one without it."""
    scopes, hidden = list(scopes), set(hidden)
    while hidden:
        var = min_fill(hidden, scopes, cards, position)
        merged = tuple(dict.fromkeys(a for s in scopes if var in s for a in s if a != var))
        scopes = [s for s in scopes if var not in s] + [merged]
        hidden.discard(var)
        yield var


def sparse_environment(rnd: random.Random) -> tuple[Environment, np.ndarray]:
    """An environment on :func:`sparse_model` with two or three actions,
    each forcing one or two non-target variables, and its (actions,
    variables) matrix of 1.0 where an action leaves a variable free."""
    model = sparse_model(rnd)
    vmap = model.graph.variable_map
    target = rnd.choice(model.graph.names)
    others = [v for v in model.graph.names if v != target]
    actions = tuple(
        Action(f"a{k}", {v: rnd.choice(vmap[v].states) for v in rnd.sample(others, min(len(others), rnd.randint(1, 2)))})
        for k in range(rnd.randint(2, 3))
    )
    env = Environment(model, actions, target, {s: float(i) for i, s in enumerate(vmap[target].states)})
    free = np.array([[float(v.name not in a.intervention) for v in model.graph.variables] for a in actions])
    return env, free


def sparse_model(rnd: random.Random, max_vars: int = 6) -> CausalModel:
    """A random valid model with 2-4 states per variable whose rows may
    hold zeros or be deterministic, declared in a shuffled order."""
    n = rnd.randint(2, max_vars)
    names = [f"X{i}" for i in range(n)]
    cards = {v: rnd.randint(2, 4) for v in names}
    parents = {v: tuple(rnd.sample(names[:i], min(i, rnd.randint(0, 3)))) for i, v in enumerate(names)}
    states = {v: tuple(f"s{j}" for j in range(cards[v])) for v in names}
    cpts = {}
    for v in names:
        rows = {}
        for config in itertools.product(*(states[p] for p in parents[v])):
            weights = [rnd.choice((0, 0, 1, 2, 3)) for _ in range(cards[v])]
            if sum(weights) == 0:
                weights[rnd.randrange(cards[v])] = 1
            rows[config] = tuple(w / sum(weights) for w in weights)
        cpts[v] = Cpt(v, rows)
    declared = rnd.sample(names, n)
    return CausalModel(CausalGraph(tuple(VariableSpec(v, states[v]) for v in declared), parents), cpts)
