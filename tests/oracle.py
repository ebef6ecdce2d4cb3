"""Slow, independent reference implementations used to cross-check the
library, plus generators for random model corpora and for a grid
whose elimination needs wide factors.

Everything here recomputes probabilities from first principles on
explicit whole-joint tables: build the table, then sum cells. None of
it calls the library's query, surgery, or sampling code, so agreement
between the two is meaningful evidence rather than an identity.
"""

from __future__ import annotations

import itertools
import random

from causalsim.cgm import CausalGraph, CausalModel, Cpt, VariableSpec


def _positions(model: CausalModel) -> tuple[list[str], dict[str, int], list[tuple[str, ...]]]:
    names = [v.name for v in model.graph.variables]
    pos = {n: i for i, n in enumerate(names)}
    state_sets = [v.states for v in model.graph.variables]
    return names, pos, state_sets


def _rows(model: CausalModel) -> dict[str, dict[tuple[str, ...], tuple[float, ...]]]:
    """Each variable's CPT rows, read once from the model into plain dicts."""
    return {v.name: dict(model.cpts[v.name].rows) for v in model.graph.variables}


def joint_table(model: CausalModel) -> dict[tuple[str, ...], float]:
    """Every full assignment (states in declared variable order) mapped
    to its probability by direct factor multiplication."""
    _, pos, state_sets = _positions(model)
    rows = _rows(model)
    table = {}
    for combo in itertools.product(*state_sets):
        p = 1.0
        for v in model.graph.variables:
            parents = model.graph.parents.get(v.name, ())
            row = rows[v.name][tuple(combo[pos[q]] for q in parents)]
            p *= row[v.states.index(combo[pos[v.name]])]
        table[combo] = p
    return table


def do_table(model: CausalModel, intervention: dict[str, str]) -> dict[tuple[str, ...], float]:
    """Joint table under an intervention via truncated factorization:
    intervened factors are dropped, off-intervention cells get zero."""
    _, pos, state_sets = _positions(model)
    rows = _rows(model)
    table = {}
    for combo in itertools.product(*state_sets):
        if any(combo[pos[n]] != s for n, s in intervention.items()):
            table[combo] = 0.0
            continue
        p = 1.0
        for v in model.graph.variables:
            if v.name in intervention:
                continue
            parents = model.graph.parents.get(v.name, ())
            row = rows[v.name][tuple(combo[pos[q]] for q in parents)]
            p *= row[v.states.index(combo[pos[v.name]])]
        table[combo] = p
    return table


def mass(model: CausalModel, table: dict[tuple[str, ...], float], assignment: dict[str, str]) -> float:
    """Total probability of the cells matching a partial assignment."""
    _, pos, _ = _positions(model)
    return sum(
        p for combo, p in table.items() if all(combo[pos[n]] == s for n, s in assignment.items())
    )


def conditional(model: CausalModel, target: dict[str, str], evidence: dict[str, str]) -> float:
    table = joint_table(model)
    return mass(model, table, {**evidence, **target}) / mass(model, table, evidence)


def do_probability(model: CausalModel, intervention: dict[str, str], target: dict[str, str]) -> float:
    table = do_table(model, intervention)
    return mass(model, table, target) / sum(table.values())


def ancestors(model: CausalModel, name: str) -> set[str]:
    """Transitive parents, computed by fixpoint over the parent lists."""
    out: set[str] = set()
    frontier = set(model.graph.parents.get(name, ()))
    while frontier:
        out |= frontier
        frontier = {
            q for p in frontier for q in model.graph.parents.get(p, ())
        } - out
    return out


def random_model(
    rnd: random.Random,
    max_vars: int = 5,
    max_card: int = 3,
    binary_sink: bool = False,
) -> CausalModel:
    """A random valid model: random DAG, strictly positive random rows.

    Variables are generated in a topological order and then declared in
    a shuffled order, so consumers must do their own sorting. With
    ``binary_sink`` the last generated variable is binary, which the
    decision-problem corpus uses as its target.
    """
    n = rnd.randint(2, max_vars)
    gen_names = [f"X{i}" for i in range(n)]
    parents: dict[str, tuple[str, ...]] = {}
    n_states: dict[str, int] = {}
    for i, name in enumerate(gen_names):
        pool = gen_names[:i]
        rnd.shuffle(pool)
        k = min(len(pool), 3)
        chosen = [p for p in pool[:k] if rnd.random() < 0.6]
        parents[name] = tuple(chosen)
        n_states[name] = 2 if (binary_sink and i == n - 1) else rnd.randint(2, max_card)

    declared = list(gen_names)
    rnd.shuffle(declared)
    specs = tuple(
        VariableSpec(name, tuple(f"s{j}" for j in range(n_states[name]))) for name in declared
    )
    graph = CausalGraph(specs, parents)

    cpts = {}
    for name in declared:
        rows = {}
        parent_states = [tuple(f"s{j}" for j in range(n_states[p])) for p in parents[name]]
        for config in itertools.product(*parent_states):
            raw = [rnd.random() + 0.05 for _ in range(n_states[name])]
            total = sum(raw)
            rows[config] = tuple(x / total for x in raw)
        cpts[name] = Cpt(name, rows)
    return CausalModel(graph, cpts)


def random_decision_problem(rnd: random.Random):
    """(model, target, interventions) for checking argmax optimality.

    The target is the binary sink; each candidate intervention forces
    one or two non-target variables to concrete states.
    """
    model = random_model(rnd, binary_sink=True)
    names = [v.name for v in model.graph.variables]
    target = f"X{len(names) - 1}"
    others = [n for n in names if n != target]
    interventions: list[dict[str, str]] = []
    for name in others:
        for s in model.graph.variable_map[name].states:
            interventions.append({name: s})
    if len(others) >= 2 and rnd.random() < 0.5:
        a, b = rnd.sample(others, 2)
        interventions.append(
            {
                a: rnd.choice(model.graph.variable_map[a].states),
                b: rnd.choice(model.graph.variable_map[b].states),
            }
        )
    return model, target, interventions


def grid_model(side: int) -> CausalModel:
    """A side x side grid of binary variables ``G{row}_{col}`` whose
    parents are the cells above and to the left, declared row by row.

    Every CPT has at most four rows, each (0.3, 0.7), so every marginal
    is (0.3, 0.7) exactly; yet every cell is an ancestor of the corner
    ``G{side-1}_{side-1}``, and eliminating the rest builds factors that
    grow exponentially with ``side``.
    """
    cells = [(r, c) for r in range(side) for c in range(side)]
    specs = tuple(VariableSpec(f"G{r}_{c}", ("0", "1")) for r, c in cells)
    parents = {f"G{r}_{c}": tuple(f"G{a}_{b}" for a, b in ((r - 1, c), (r, c - 1)) if min(a, b) >= 0) for r, c in cells}
    cpts = {
        name: Cpt(name, {config: (0.3, 0.7) for config in itertools.product(("0", "1"), repeat=len(plist))})
        for name, plist in parents.items()
    }
    return CausalModel(CausalGraph(specs, parents), cpts)
