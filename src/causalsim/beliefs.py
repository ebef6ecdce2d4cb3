"""Dirichlet-categorical beliefs over the CPTs of a known causal graph.

The graph structure is taken as given; uncertainty lives only in the
rows of the tables. Each CPT row gets an independent Dirichlet with one
positive pseudo-count per state. Observing a causally produced full
assignment is a conjugate update: for every variable that was not
forced, the pseudo-count of the observed state in the row picked out by
the observed parent configuration grows by one. Forced variables are
deliberately left alone, because surgery overrode their mechanisms and
the observation therefore says nothing about them.

The posterior mean of the rows assembles into an ordinary causal model,
which downstream decision code treats as if it were the truth.

:class:`CountBeliefs` holds the same pseudo-counts for a batch of
replications as arrays, one per CPT, laid out like the compiled tables
of :meth:`~causalsim.cgm.CausalModel.table` behind a leading
replication axis. Its posterior mean is one division per table and its
update one indexed increment per variable. The dict-based
:class:`BeliefState` stays the document form and the reference the
arrays are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, Mapping, Sequence

import numpy as np

from .cgm import (
    Assignment,
    CausalGraph,
    CausalModel,
    Cpt,
    InvalidModelError,
    Intervention,
    _check_intervention,
    _check_prior,
    check_assignment,
    parent_configurations,
    validate_graph,
)
from . import model_io

__all__ = [
    "DirichletRow",
    "BeliefState",
    "init_uniform",
    "posterior_mean",
    "update",
    "CountBeliefs",
    "beliefs_to_dict",
    "beliefs_from_dict",
]

# Pseudo-counts for one CPT row, aligned with the variable's state order.
DirichletRow = tuple[float, ...]


@dataclass(frozen=True)
class BeliefState:
    """Per-row Dirichlet pseudo-counts over a fixed graph.

    ``counts`` has one inner mapping per variable, keyed exactly like
    the corresponding CPT rows: parent configuration tuple to row.
    """

    graph: CausalGraph
    counts: Mapping[str, Mapping[tuple[str, ...], DirichletRow]]


def init_uniform(graph: CausalGraph, alpha0: float = 1.0) -> BeliefState:
    """Symmetric prior: every pseudo-count in every row is ``alpha0``.

    The graph must be well formed (acyclic, known parents); the prior
    weight must be positive, and finite even times a row's state count.
    """
    _check_prior(alpha0, graph)
    issues = validate_graph(graph)
    if issues:
        raise InvalidModelError(issues)
    alpha0 = float(alpha0)
    counts: dict[str, dict[tuple[str, ...], DirichletRow]] = {}
    for v in graph.variables:
        row = (alpha0,) * len(v.states)
        counts[v.name] = {config: row for config in parent_configurations(graph, v.name)}
    return BeliefState(graph, counts)


def posterior_mean(beliefs: BeliefState) -> CausalModel:
    """The model whose CPT rows are the normalized pseudo-counts."""
    cpts = {}
    for name, rows in beliefs.counts.items():
        table = {}
        for config, row in rows.items():
            total = sum(row)
            table[config] = tuple(c / total for c in row)
        cpts[name] = Cpt(name, table)
    return CausalModel(beliefs.graph, cpts)


def update(beliefs: BeliefState, intervention: Intervention, observed: Assignment) -> BeliefState:
    """Fold one intervention outcome into the beliefs.

    ``observed`` must be a full assignment consistent with the
    intervention. Returns a new state; the input is never touched, so a
    failed precondition leaves the caller's beliefs intact.
    """
    graph = beliefs.graph
    _check_intervention(graph, intervention)
    check_assignment(graph, observed, "observation")
    missing = [n for n in graph.names if n not in observed]
    if missing:
        raise ValueError(f"partial-observation: missing {', '.join(missing)}")
    clash = sorted(n for n, s in intervention.items() if observed[n] != s)
    if clash:
        raise ValueError(
            f"inconsistent-with-intervention: {', '.join(clash)} observed away from the forced state"
        )

    new_counts: dict[str, Mapping[tuple[str, ...], DirichletRow]] = dict(beliefs.counts)
    for v in graph.variables:
        if v.name in intervention:
            continue
        config = tuple(observed[p] for p in graph.parents_of(v.name))
        rows = dict(new_counts[v.name])
        row = rows[config]
        i = v.state_index[observed[v.name]]
        rows[config] = row[:i] + (row[i] + 1.0,) + row[i + 1 :]
        new_counts[v.name] = rows
    return BeliefState(graph, new_counts)


class CountBeliefs:
    """Dirichlet pseudo-counts of n replications, updated in place.

    The variables of one cardinality c share one contiguous (n, rows, c)
    buffer, the rows of those at ``scored`` first. ``counts[i]`` views
    the variable at position i as (n, parent cardinalities...,
    cardinality), so ``counts[i][r]`` is replication r's table of rows;
    ``means[i]``, for a scored variable, views its posterior mean.
    """

    def __init__(self, graph: CausalGraph, alpha0: float, n: int, scored: Sequence[int] = ()):
        _check_prior(alpha0, graph)
        order = [*scored, *(i for i in range(len(graph.variables)) if i not in scored)]
        self.counts, self.means, self._buffers = [None] * len(order), [None] * len(order), []
        for card in dict.fromkeys(graph._layout[i][2][-1] for i in order):
            group = [i for i in order if graph._layout[i][2][-1] == card]
            starts = np.cumsum([0] + [np.prod(graph._layout[i][2][:-1], dtype=int) for i in group])
            counts = np.full((n, starts[-1], card), float(alpha0))
            means = np.empty((n, starts[len(set(group) & set(scored))], card))
            # Observed entries of replication r: x[r] @ matrix + base[r].
            matrix = np.zeros((len(order), len(group)))
            for k, (i, a, b) in enumerate(zip(group, starts, starts[1:])):
                parents, strides, shape, _ = graph._layout[i]
                self.counts[i] = counts[:, a:b].reshape(n, *shape)
                self.means[i] = means[:, a:b].reshape(n, *shape) if b <= means.shape[1] else None
                matrix[[*parents, i], k] = [*np.multiply(strides, card), 1]
            base = np.arange(n)[:, None] * counts[0].size + starts[:-1] * card
            scored_counts = counts[:, : means.shape[1]]
            columns = [scored_counts[..., j : j + 1] for j in range(card)]
            self._buffers.append((counts.reshape(-1), matrix, base, np.array(group), scored_counts, columns, means))

    def posterior(self) -> list[np.ndarray | None]:
        """Refresh :attr:`means`: per buffer, one division by the sum of its
        state columns in order (for fewer than 8 states, ``sum``'s bits)."""
        for *_, counts, columns, means in self._buffers:
            np.divide(counts, reduce(np.add, columns), out=means)
        return self.means

    def update(self, x: np.ndarray, free: np.ndarray) -> None:
        """Fold one full outcome per replication into the counts: ``x``
        holds state codes, (n, variables), and ``free`` holds 1.0 where a
        replication's action left the variable free and 0.0 where it
        forced it, so forced counts keep their values. One indexed
        increment per buffer, at indices from one exact float product."""
        for flat, matrix, base, group, *_ in self._buffers:
            flat[(x @ matrix + base).astype(np.intp)] += free.take(group, axis=1)


def beliefs_to_dict(beliefs: BeliefState) -> dict[str, Any]:
    """Document form: the model JSON layout with "counts" rows."""
    return model_io.tables_to_dict(beliefs.graph, beliefs.counts, "counts")


def beliefs_from_dict(data: Any) -> BeliefState:
    """Inverse of :func:`beliefs_to_dict`; counts must be positive and
    finite, and so must each row's sum."""
    graph, counts = model_io.tables_from_dict(data, value_key="counts", normalize=False)
    issues = validate_graph(graph)
    if issues:
        raise InvalidModelError(issues)
    for name, rows in counts.items():
        for row in rows.values():
            if any(not 0.0 < c < np.inf for c in row):
                raise model_io.FormatError(
                    f"cpts.{name}", "pseudo-counts must be positive and finite in every entry"
                )
            # posterior_mean divides by the row total, which must be finite too.
            if not sum(row) < np.inf:
                raise model_io.FormatError(f"cpts.{name}", "pseudo-counts must have a finite sum in every row")
    return BeliefState(graph, counts)
