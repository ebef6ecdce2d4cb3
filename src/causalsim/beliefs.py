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

:class:`BeliefState` holds one array of pseudo-counts per CPT, in the
layout of the model's tables, :attr:`~causalsim.cgm.CausalModel.tables`:
an update is one increment per unforced variable, and the posterior mean
one division per table by its row sums, the states added in order.
:class:`CountBeliefs` holds the counts of a batch of replications in the
same layout behind a replication axis, so its ``counts[i][r]`` is
replication r's table. Its posterior mean is a sum and a division per
buffer, bound once as the calls ``refresh`` lists, and its update one
indexed increment per buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .cgm import Assignment, CausalGraph, CausalModel, InvalidModelError, Intervention, _Tables, check_assignment
from .cgm import _check_intervention, _check_prior, _row_sums
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


@dataclass(frozen=True, eq=False)
class BeliefState(_Tables):
    """Per-row Dirichlet pseudo-counts over a fixed graph.

    ``tables`` holds one array of counts per variable, in declaration order
    and in the layout of the model's tables; ``counts`` views them read-only
    by variable name, each keyed like the CPT rows: parent configuration
    tuple to row.
    """

    graph: CausalGraph
    tables: Sequence[np.ndarray]

    @cached_property
    def counts(self) -> Mapping[str, Mapping[tuple[str, ...], DirichletRow]]:
        return MappingProxyType(self._rows())


def init_uniform(graph: CausalGraph, alpha0: float = 1.0) -> BeliefState:
    """Symmetric prior: every pseudo-count in every row is ``alpha0``.

    The graph must be well formed (acyclic, known parents); the prior
    weight must be positive, and finite even times a row's state count.
    """
    _check_prior(alpha0, graph)
    if issues := graph._issues:
        raise InvalidModelError(issues)
    return BeliefState(graph, tuple(np.full(shape, float(alpha0)) for _, _, shape, _ in graph._layout))


def posterior_mean(beliefs: BeliefState) -> CausalModel:
    """The model whose CPT rows are the normalized pseudo-counts."""
    return CausalModel._of(beliefs.graph, [t / _row_sums(t)[..., None] for t in beliefs.tables])


def update(beliefs: BeliefState, intervention: Intervention, observed: Assignment) -> BeliefState:
    """Fold one intervention outcome into the beliefs.

    ``observed`` must be a full assignment consistent with the
    intervention. Returns a new state; the input is never touched, so a
    failed precondition leaves the caller's beliefs intact.
    """
    graph = beliefs.graph
    _check_intervention(graph, intervention)
    check_assignment(graph, observed, "observation")
    if missing := [n for n in graph.names if n not in observed]:
        raise ValueError(f"partial-observation: missing {', '.join(missing)}")
    if clash := sorted(n for n, s in intervention.items() if observed[n] != s):
        raise ValueError(f"inconsistent-with-intervention: {', '.join(clash)} observed away from the forced state")
    codes = [v.state_index[observed[v.name]] for v in graph.variables]
    tables = list(beliefs.tables)
    for pos, (parents, *_) in enumerate(graph._layout):
        if graph.names[pos] not in intervention:
            tables[pos] = tables[pos].copy()
            tables[pos][(*map(codes.__getitem__, parents), codes[pos])] += 1.0
    return BeliefState(graph, tuple(tables))


def _summed(columns: Sequence[np.ndarray], out: np.ndarray) -> list[tuple[Callable, tuple]]:
    """The (function, arguments) calls that add two or more ``columns`` into ``out`` in order."""
    return [(np.add, (columns[0], columns[1], out)), *[(np.add, (out, column, out)) for column in columns[2:]]]


class CountBeliefs:
    """Dirichlet pseudo-counts of n replications, updated in place.

    The variables of one cardinality c share one (c, rows, n) buffer, the
    rows of those at ``scored`` first, so each state's scored counts are
    one run. ``counts[i]`` views the variable at position i as (n, parent
    cardinalities..., cardinality), so ``counts[i][r]`` is replication r's
    table of rows; ``means[i]``, for a scored variable, views its posterior
    mean, which the (function, arguments) calls in ``refresh`` write: per
    buffer, one division by the sum of its state columns in order (for fewer
    than 8 states, ``sum``'s bits). An update leaves alone the counts its
    intervention in ``menu`` forces.
    """

    def __init__(self, graph: CausalGraph, alpha0: float, n: int, scored: Sequence[int] = (), menu: Sequence[Intervention] = ({},)):
        _check_prior(alpha0, graph)
        order = [*scored, *(i for i in range(len(graph.variables)) if i not in scored)]
        # free[a, i]: 1.0 unless intervention a of the menu forces the variable at position i.
        free = np.array([[float(v.name not in i) for v in graph.variables] for i in menu])
        self.counts, self.means, self._buffers, self.refresh = [None] * len(order), [None] * len(order), [], []
        for card in dict.fromkeys(graph._layout[i][2][-1] for i in order):
            group = [i for i in order if graph._layout[i][2][-1] == card]
            starts = np.cumsum([0] + [np.prod(graph._layout[i][2][:-1], dtype=int) for i in group])
            counts = np.full((card, starts[-1], n), float(alpha0))
            means = np.zeros((card, starts[len(set(group) & set(scored))], n))
            # Observed entries of replication r: x[r] @ matrix + base[r].
            matrix = np.zeros((len(order), len(group)))
            for k, (i, a, b) in enumerate(zip(group, starts, starts[1:])):
                parents, strides, shape, _ = graph._layout[i]
                self.counts[i] = counts[:, a:b].T.reshape(n, *shape)
                self.means[i] = means[:, a:b].T.reshape(n, *shape) if b <= means.shape[1] else None
                matrix[[*parents, i], k] = [*np.multiply(strides, n), counts[0].size]
            base = np.arange(n)[:, None] + starts[:-1] * float(n)  # float, as the product is
            columns, total = counts[:, : means.shape[1]].reshape(card, -1), np.empty(means[0].size)
            self.refresh += [*_summed(columns, total), (np.divide, (columns, total, means.reshape(card, -1)))]
            self._buffers.append((counts.reshape(-1), matrix, base, np.array(group), free[:, group]))

    def update(self, x: np.ndarray, actions: np.ndarray) -> None:
        """Fold in one outcome per replication: state codes ``x``, (n,
        variables), under ``actions``, indices into the menu, whose forced
        counts keep their values. One indexed increment per buffer, at
        indices from one exact float product."""
        for flat, matrix, base, _, free in self._buffers:
            flat[(x @ matrix + base).astype(np.intp)] += free.take(actions, axis=0)


def beliefs_to_dict(beliefs: BeliefState) -> dict[str, Any]:
    """Document form: the model JSON layout with "counts" rows."""
    return model_io.tables_to_dict(beliefs.graph, beliefs.tables, "counts")


def beliefs_from_dict(data: Any) -> BeliefState:
    """Inverse of :func:`beliefs_to_dict`; counts must be positive and
    finite, and so must each row's sum, which a posterior mean divides by."""
    graph, tables = model_io.tables_from_dict(data, value_key="counts", normalize=False)
    for name, table in zip(graph.names, tables):
        if not np.all((0.0 < table) & (table < np.inf)):
            raise model_io.FormatError(f"$.cpts.{name}", "pseudo-counts must be positive and finite in every entry")
        if not np.all(_row_sums(table) < np.inf):
            raise model_io.FormatError(f"$.cpts.{name}", "pseudo-counts must have a finite sum in every row")
    return BeliefState(graph, tables)
