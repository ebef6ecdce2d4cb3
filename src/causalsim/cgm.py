"""Discrete causal graphical models with exact interventional inference.

A model couples a directed acyclic graph over finitely many discrete
variables with one conditional probability table (CPT) per variable. The
joint distribution factorizes as the product of the tables. An
intervention is a graph surgery: each forced variable loses its incoming
edges and its table is replaced by a point mass on the forced state.
Interventional queries are then ordinary conditional queries against the
mutilated model, which makes forcing a variable observably different
from conditioning on it whenever confounding is present.

A model is one float array per variable, its CPT, with one axis per
parent and a last axis for the variable itself, indexed by the state
codes of :attr:`VariableSpec.state_index`. Inference is exact variable
elimination on those arrays. Every query goes through one
sum-product kernel. Forced variables drop their own factors and, like
evidence, have their axes pinned (the truncated factorization); factors
of variables that are not ancestors of the targets or the evidence are
dropped, since they sum to one; the rest are contracted with
``np.einsum``, one variable at a time in min-fill order. The
elimination plan depends only on the graph and on which variables are
forced, evidenced and targeted, so it is cached on the graph object and
shared by every model built on it. One plan runner executes it for the
scalar queries; for a batch of belief states, which scores its actions
at once, :meth:`_Plan.bind` binds the same steps once to tables with a
leading replication axis, into buffers of the shapes the plan records.
The one cap is on the work: building a plan refuses a query whose
elimination would create a factor of more than ``MAX_FACTOR_STATES``
states, before the plan is cached or any table is contracted. What a
query may cost thus follows the induced width of its elimination order,
not the size of the joint: a 64-variable chain has a 2^64-state joint
and no factor of more than four entries. :func:`joint_probability` is no
special case, since a fully pinned plan builds only scalars.

Sampling is ancestral and has no cap. A variable's state is drawn by
inverse CDF from its cumulative table (:func:`cumulative`): the state
is the number of cumulative entries at or below a uniform draw.
:func:`sample` (on one model) and the batched draw, :func:`_drawer`
(on a truth under a menu of interventions, one row per replication),
read the tables of one builder, :func:`_sampling_tables`, which builds
no surgered model: forcing a variable only makes its table a point
mass, whose inverse CDF is the forced state. So the batched draw looks
up a variable every action forces, and draws the rest from the truth's
rows or, for one only some actions force, from a block of rows per
action: the truth's, or the forced state's point mass.

A graph or model that exists is valid: building a :class:`CausalGraph`,
or a model from :class:`Cpt` rows, raises :class:`InvalidModelError`
listing every problem at once. The parser, :func:`intervene` and a
posterior mean build theirs from checked inputs, and nothing checks again.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "MAX_FACTOR_STATES",
    "ROW_SUM_TOL",
    "Assignment",
    "Intervention",
    "VariableSpec",
    "CausalGraph",
    "Cpt",
    "CausalModel",
    "ValidationIssue",
    "InvalidModelError",
    "check_assignment",
    "parent_configurations",
    "joint_size",
    "joint_probability",
    "query",
    "intervene",
    "interventional_query",
    "interventional_marginal",
    "sample",
    "cumulative",
]

# A CPT row must sum to 1 within this tolerance to count as normalized.
ROW_SUM_TOL = 1e-9

# Queries refuse a plan that would build a factor of more states.
MAX_FACTOR_STATES = 2**20

# Axis labels for one einsum call. Every variable has at least two
# states, so under the factor cap a step spans at most 21 variables.
_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# np.einsum takes at most 31 operands on numpy 1.x (63 on 2.x). Plans
# call its kernel directly, past the ``__array_function__`` dispatch.
_MAX_OPERANDS = 31
_einsum = getattr(np.einsum, "_implementation", np.einsum)

# A (possibly partial) mapping from variable name to state label.
Assignment = Mapping[str, str]

# A non-empty assignment whose variables are forced by surgery.
Intervention = Mapping[str, str]


@dataclass(frozen=True)
class VariableSpec:
    """A named discrete variable with an ordered tuple of state labels."""

    name: str
    states: tuple[str, ...]

    @cached_property
    def state_index(self) -> dict[str, int]:
        """Map each state label to its position in the declared order."""
        return {s: i for i, s in enumerate(self.states)}


@dataclass(frozen=True)
class CausalGraph:
    """A directed graph over declared variables, given by parent lists.

    ``parents`` maps a variable name to the ordered tuple of its parent
    names; variables absent from the mapping have no parents. The
    declared variable order is significant: it fixes the order of the
    model tables, tie-breaking in the topological and elimination
    orders, and serialization order.

    Building one checks it once, by :func:`_checked_order`, whose pass
    also gives ``topological_order``, the names as :func:`_kahn_order` sorts them.
    """

    variables: tuple[VariableSpec, ...]
    parents: Mapping[str, tuple[str, ...]]
    topological_order: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "topological_order", _checked_order(self))

    def parents_of(self, name: str) -> tuple[str, ...]:
        return self.parents.get(name, ())

    @cached_property
    def variable_map(self) -> dict[str, VariableSpec]:
        return {v.name: v for v in self.variables}

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Each variable's position in declaration order."""
        return {n: i for i, n in enumerate(self.names)}

    @cached_property
    def _layout(self) -> tuple[tuple, ...]:
        """Per table, in declaration order: (parent positions, C-order parent
        strides, shape, parent configurations in row order); parent codes c
        pick row sum(c[p] * stride)."""
        layout = []
        for v in self.variables:
            parents = self.parents_of(v.name)
            shape = tuple(len(self.variable_map[p].states) for p in parents) + (len(v.states),)
            strides = tuple(math.prod(shape[k + 1 : -1]) for k in range(len(parents)))
            configs = tuple(parent_configurations(self, v.name))
            layout.append((tuple(map(self._positions.get, parents)), strides, shape, configs))
        return tuple(layout)

    @cached_property
    def _plans(self) -> dict[tuple[frozenset[str], frozenset[str], tuple[str, ...]], _Plan | str]:
        # Plans by (forced, evidenced, targeted) variables, or a refusal message.
        return {}

    def _plan_for(self, forced: Assignment, evidence: Assignment, targets: tuple[str, ...]) -> _Plan:
        # Shared by every model on this graph; a refused shape raises again, unsearched.
        key = (frozenset(forced), frozenset(evidence), targets)
        if key not in self._plans:
            try:
                self._plans[key] = _plan(self, *key)
            except ValueError as refused:
                self._plans[key] = str(refused)
        if isinstance(plan := self._plans[key], str):
            raise ValueError(plan)
        return plan


@dataclass(frozen=True)
class Cpt:
    """The conditional probability table of one variable.

    ``rows`` maps a parent configuration, written as a tuple of parent
    state labels in parent-list order, to the probability vector over
    the variable's states in declared state order. A parentless variable
    has a single row keyed by the empty tuple.
    """

    variable: str
    rows: Mapping[tuple[str, ...], tuple[float, ...]]


class _Tables:
    """One array per variable of ``graph``, in declaration order, shaped as
    :attr:`CausalModel.tables` describes; equal to another of its type on an
    equal graph with equal arrays."""

    graph: CausalGraph
    tables: Sequence[np.ndarray]

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self) and self.graph == other.graph
        return same and all(map(np.array_equal, self.tables, other.tables))

    def __getstate__(self) -> dict:
        # A mapping proxy does not pickle: a copy drops the cached rows and reads them again from its arrays.
        return {k: v for k, v in self.__dict__.items() if not isinstance(v, MappingProxyType)}

    def _rows(self) -> dict[str, Mapping[tuple[str, ...], tuple[float, ...]]]:
        # Per variable, read-only: each configuration of ``_layout`` to its row as a tuple of floats.
        rows = {}
        for name, table, (*_, configs) in zip(self.graph.names, self.tables, self.graph._layout):
            rows[name] = MappingProxyType(dict(zip(configs, map(tuple, table.reshape(len(configs), -1).tolist()))))
        return rows


class CausalModel(_Tables):
    """A causal graph plus one CPT per variable: ``tables[i]`` is the CPT of
    the variable at position i in declaration order, shaped (parent
    cardinalities..., own cardinality), axes in parent-list order, states
    in declared order. ``cpts`` gives them read-only as :class:`Cpt` rows
    by variable name, read once from the read-only arrays when first used.

    ``CausalModel(graph, cpts)`` writes each :class:`Cpt`'s rows into its
    array, or raises :class:`InvalidModelError` with every issue (:func:`_placed`).
    """

    def __init__(self, graph: CausalGraph, cpts: Mapping[str, Cpt]):
        self.graph, self.tables = graph, _placed(graph, cpts)

    @classmethod
    def _of(cls, graph: CausalGraph, tables: Sequence[np.ndarray]) -> CausalModel:
        # A model on a valid graph whose ``tables`` hold valid rows, made read-only, checked by no one.
        model = cls.__new__(cls)
        model.graph, model.tables = graph, tuple(tables)
        for table in model.tables:
            table.flags.writeable = False
        return model

    @cached_property
    def cpts(self) -> Mapping[str, Cpt]:
        return MappingProxyType({name: Cpt(name, rows) for name, rows in self._rows().items()})

    @cached_property
    def _sampler(self) -> tuple:
        # The model's own sampling tables: every variable takes its rows.
        return _sampling_tables(self, ({},))


@dataclass(frozen=True)
class ValidationIssue:
    """One violation of the model contract, found where a graph or model is built."""

    code: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code} at {self.where}: {self.detail}"


class InvalidModelError(ValueError):
    """Raised when a model or graph fails validation.

    Carries the full list of issues so callers can report every problem
    at once rather than one by one, and the document read, if any, as ``doc``.
    """

    def __init__(self, issues: list[ValidationIssue] | tuple[ValidationIssue, ...], doc: str | None = None):
        self.issues, self.doc = tuple(issues), doc
        super().__init__(("" if doc is None else f"{doc}: ") + "; ".join(str(i) for i in self.issues))


class _FieldError(ValueError):
    """A constructor's fault; ``field`` names the entry at fault, such as ``actions[1].label``."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _kahn_order(graph: CausalGraph) -> tuple[list[str], list[ValidationIssue]]:
    """Kahn topological sort, level by level: the names sorted by the length
    of the longest path that reaches them, then by declaration order.
    Returns (ordered names, the one ``cycle-detected`` issue naming the
    variables left over, in declaration order, or nothing).

    Parent references to undeclared variables are ignored here; they are
    reported separately by :func:`_checked_order`.
    """
    # A self-loop is kept, so its vertex never becomes ready.
    parents = {name: set(graph.parents_of(name)) & graph.variable_map.keys() for name in graph.names}
    children: dict[str, list[str]] = {name: [] for name in parents}
    for name, ps in parents.items():
        for p in ps:
            children[p].append(name)
    waiting, depth = {name: len(ps) for name, ps in parents.items()}, dict.fromkeys(parents, 0)
    ready = [name for name, k in waiting.items() if not k]
    for name in ready:  # a queue: the loop visits what it appends
        for child in children[name]:
            depth[child] = max(depth[child], depth[name] + 1)
            waiting[child] -= 1
            if not waiting[child]:
                ready.append(child)
    order = sorted((name for name in graph.names if not waiting[name]), key=depth.__getitem__)
    leftover = ", ".join(name for name in graph.names if waiting[name])
    detail = "these variables lie on or depend on a directed cycle"
    return order, [ValidationIssue("cycle-detected", leftover, detail)] if leftover else []


def parent_configurations(graph: CausalGraph, name: str) -> Iterator[tuple[str, ...]]:
    """Yield every parent configuration of ``name`` in row order.

    Row order is the cross product of the parents' state tuples with the
    rightmost parent varying fastest, matching ``itertools.product``.
    """
    state_sets = [graph.variable_map[p].states for p in graph.parents_of(name)]
    return itertools.product(*state_sets)


def _row_key(where_var: str, config: tuple[str, ...], parents: tuple[str, ...]) -> str:
    inside = ", ".join(f"{p}={s}" for p, s in zip(parents, config))
    return f"{where_var}[{inside}]"


def _checked_order(graph: CausalGraph) -> tuple[str, ...]:
    """The graph's topological order by :func:`_kahn_order`, or
    :class:`InvalidModelError` listing duplicate or underspecified
    variables, unknown or duplicate parents, and cycles (a self-loop
    counts as a cycle), in that order."""
    issues: list[ValidationIssue] = []
    seen: set[str] = set()
    for v in graph.variables:
        if v.name in seen:
            issues.append(ValidationIssue("duplicate-variable", v.name, "declared more than once"))
        seen.add(v.name)
        if len(v.states) < 2:
            issues.append(ValidationIssue("too-few-states", v.name, "a variable needs at least two states"))
        if len(set(v.states)) != len(v.states):
            issues.append(ValidationIssue("duplicate-state", v.name, "state labels must be unique"))
    declared = set(graph.names)
    for name, plist in graph.parents.items():
        if name not in declared:
            issues.append(ValidationIssue("unknown-variable", name, "parent list for an undeclared variable"))
            continue
        for p in plist:
            if p not in declared:
                issues.append(ValidationIssue("unknown-parent", name, f"parent {p!r} is not a declared variable"))
        if len(set(plist)) != len(plist):
            issues.append(ValidationIssue("duplicate-parent", name, "parent list repeats a variable"))
    order, cycles = _kahn_order(graph)
    if issues := issues + cycles:
        raise InvalidModelError(issues)
    return tuple(order)


def _added(values: Iterable[float]) -> float:
    """``values`` added in order from 0.0, on every Python (``sum`` compensates since 3.12)."""
    return reduce(operator.add, values, 0.0)


def _row_sums(table: np.ndarray) -> np.ndarray:
    """Each row's sum, its states added in order: inf beyond float range, nan for inf and -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return reduce(np.add, np.moveaxis(table, -1, 0))


def _placed(graph: CausalGraph, cpts: Mapping[str, Cpt]) -> tuple[np.ndarray, ...]:
    """The rows of ``cpts`` in one read-only array per variable of the valid ``graph``, or
    :class:`InvalidModelError` with each table or row without a place, then each row with an
    entry outside [0, 1] or a sum away from one."""
    issues = [ValidationIssue("unexpected-cpt-table", n, "table for an undeclared variable") for n in cpts if n not in graph._positions]
    tables, values = [], []
    for name, (_, _, shape, configs) in zip(graph.names, graph._layout):
        if name not in cpts:
            issues.append(ValidationIssue("missing-cpt-table", name, "no table for this variable"))
            continue
        given, card = cpts[name].rows, shape[-1]
        key = partial(_row_key, name, parents=graph.parents_of(name))
        rows = dict.fromkeys(configs, (1.0 / card,) * card)
        for config in sorted(rows.keys() - given.keys()):
            issues.append(ValidationIssue("missing-cpt-row", key(config), "no row for this parent configuration"))
        for config, row in given.items():
            if config not in rows:
                issues.append(ValidationIssue("unexpected-cpt-row", key(config), "no such parent configuration"))
            elif len(row) != card:
                issues.append(ValidationIssue("bad-row-length", key(config), f"{len(row)} entries for {card} states"))
            else:
                rows[config] = row
        table = np.array(list(rows.values()), float).reshape(-1, card)  # 2-D with no rows too
        sums, out = _row_sums(table), ~((0.0 <= table) & (table <= 1.0)).all(axis=1)
        for r in np.flatnonzero(out | (np.abs(sums - 1.0) > ROW_SUM_TOL)):
            if out[r]:
                values.append(ValidationIssue("entry-out-of-range", key(configs[r]), "entries must lie in [0, 1]"))
            else:
                values.append(ValidationIssue("row-not-normalized", key(configs[r]), f"row sums to {sums[r]:.12g}"))
        tables.append(table.reshape(shape))
        tables[-1].flags.writeable = False
    if issues := issues + values:
        raise InvalidModelError(issues)
    return tuple(tables)


def joint_size(model: CausalModel) -> int:
    """Number of full assignments in the model's joint distribution."""
    return math.prod(len(v.states) for v in model.graph.variables)


def check_assignment(graph: CausalGraph, assignment: Assignment, role: str) -> None:
    """Raise ``unknown-variable`` or ``illegal-state`` unless every entry
    of ``assignment`` names a declared variable and one of its states.
    ``role`` names the assignment in the message."""
    vmap = graph.variable_map
    for name, state in assignment.items():
        spec = vmap.get(name)
        if spec is None:
            raise ValueError(f"unknown-variable: {role} names {name!r}, which is not in the model")
        if state not in spec.state_index:
            raise ValueError(f"illegal-state: {role} assigns {name}={state!r}, not one of its states")


def _check_forces(intervention: Intervention) -> None:
    """Raise ``empty-intervention`` unless ``intervention`` forces some variable."""
    if not intervention:
        raise _FieldError("do", "empty-intervention: at least one variable must be forced")


def _check_intervention(graph: CausalGraph, intervention: Intervention) -> None:
    """:func:`_check_forces`, then :func:`check_assignment`."""
    _check_forces(intervention)
    check_assignment(graph, intervention, "intervention")


def _check_prior(alpha0: float, graph: CausalGraph | None = None) -> None:
    """A Dirichlet weight must be positive and finite; over a graph's rows, so
    must a row's sum, ``alpha0`` times its state count, which a posterior mean
    divides by. Here, not in ``beliefs``, so an agent config checks the weight
    and the command line checks it against the truth without running ``beliefs``."""
    if not (np.isfinite(alpha0) and alpha0 > 0.0):
        raise _FieldError("prior_alpha", f"nonpositive-alpha: prior weight must be positive and finite, got {alpha0!r}")
    card = max((len(v.states) for v in graph.variables), default=1) if graph is not None else 1
    if not np.isfinite(float(alpha0) * card):
        raise _FieldError("prior_alpha", f"infinite-row-sum: {card} pseudo-counts of {alpha0!r} sum beyond float range")


@dataclass(frozen=True)
class _Plan:
    """How to answer one shape of query on one graph, values aside.

    ``factors`` lists the CPTs taking part, as (variable position, one
    entry per table axis: the name of the variable pinned on that axis,
    or None for a free axis; or None in place of the tuple when no axis
    is pinned). ``steps`` are einsum contractions; each consumes the
    slots it names and appends its result as a new slot. The last step
    builds the answer, target axes in target order; ``shapes`` are the
    shapes of the factors the steps build, one per step.
    """

    factors: tuple[tuple[int, tuple[str | None, ...] | None], ...]
    steps: tuple[tuple[tuple[int, ...], str], ...]
    shapes: tuple[tuple[int, ...], ...]

    def operands(self, graph: CausalGraph, pins: tuple[Assignment, ...], table: Callable[[int], np.ndarray]) -> list[np.ndarray]:
        """The factors' tables in plan order, read with ``table`` and
        pinned to the states in ``pins``. Each index leads with ``...``,
        so it pins a table with or without a replication axis."""
        vmap = graph.variable_map
        codes: dict[str | None, int | slice] = {None: slice(None)}
        for assignment in pins:
            codes.update((name, vmap[name].state_index[state]) for name, state in assignment.items())
        return [table(pos) if axes is None else table(pos)[(..., *[codes[a] for a in axes])] for pos, axes in self.factors]

    def run(self, operands: list[np.ndarray]) -> np.ndarray:
        """Contract ``operands``, as :meth:`operands` gives them."""
        slots = list(operands)
        for used, subscripts in self.steps:
            slots.append(_einsum(subscripts, *[slots[i] for i in used]))
        return slots[-1]

    def bind(
        self, graph: CausalGraph, pins: tuple[Assignment, ...], tables: list[np.ndarray], out: np.ndarray, buffers: dict
    ) -> list[tuple[Callable, tuple]]:
        """:meth:`run` on a batch's ``tables``, (n, parent cardinalities...,
        cardinality) per position, pinned to ``pins``, as (function, arguments)
        calls on views fixed here, in row slices that keep every factor under
        ``MAX_FACTOR_STATES`` with the replication axis: the last step into
        ``out``, each other into a buffer of ``buffers``, which plans run one
        by one may share, made from the step's recorded shape with the
        replication axis fastest in memory, as in the tables. Contracts nothing."""
        step, last, calls = max(1, MAX_FACTOR_STATES // max(map(math.prod, self.shapes))), len(self.steps) - 1, []
        for r in range(0, len(out), step):
            slots, rows = self.operands(graph, pins, lambda pos: tables[pos][r : r + step]), len(out[r : r + step])
            for i, ((used, subscripts), shape) in enumerate(zip(self.steps, self.shapes)):
                if i < last and (i, rows, shape) not in buffers:
                    buffers[i, rows, shape] = np.moveaxis(np.empty((*shape, rows)), -1, 0)
                slots.append(buffers[i, rows, shape] if i < last else out[r : r + step])
                calls.append((partial(_einsum, out=slots[-1]), (subscripts, *[slots[j] for j in used])))
        return calls


def _plan(graph: CausalGraph, forced: frozenset[str], evidence: frozenset[str], targets: tuple[str, ...]) -> _Plan:
    pinned = forced | evidence
    # Ancestors of targets and evidence in the mutilated graph, where a
    # forced variable has no parents. Every other factor sums to one.
    relevant: set[str] = set()
    stack = [*targets, *evidence]
    while stack:
        name = stack.pop()
        if name not in relevant:
            relevant.add(name)
            if name not in forced:
                stack.extend(graph.parents_of(name))
    factors = []
    scopes: list[tuple[str, ...]] = []
    for pos, v in enumerate(graph.variables):
        if v.name in relevant and v.name not in forced:
            axes = graph.parents_of(v.name) + (v.name,)
            factors.append((pos, tuple(a if a in pinned else None for a in axes) if pinned & set(axes) else None))
            scopes.append(tuple(a for a in axes if a not in pinned))

    cards = {v.name: len(v.states) for v in graph.variables}
    steps, shapes = [], []

    def contract(used: list[int], out: tuple[str, ...], what: str) -> None:
        # Append steps that contract the slots ``used`` into one new last
        # slot over ``out``, first multiplying batches of _MAX_OPERANDS
        # inputs over all their axes. Each new factor must fit the cap.
        while True:
            batch, used = used[:_MAX_OPERANDS], used[_MAX_OPERANDS:]
            scope = tuple(dict.fromkeys(a for i in batch for a in scopes[i])) if used else out
            shapes.append(tuple(cards[a] for a in scope))
            if (size := math.prod(shapes[-1])) > MAX_FACTOR_STATES:
                raise ValueError(f"factor too large: {what} builds {size} states, over the cap of {MAX_FACTOR_STATES}")
            steps.append((tuple(batch), _subscripts([scopes[i] for i in batch], scope)))
            scopes.append(scope)
            if not used:
                return
            used.append(len(scopes) - 1)

    live = list(range(len(scopes)))
    hidden = {a for s in scopes for a in s} - set(targets)
    for var in _min_fill([scopes[i] for i in live], hidden, cards, graph._positions):
        used = [i for i in live if var in scopes[i]]
        contract(used, tuple(dict.fromkeys(a for i in used for a in scopes[i] if a != var)), f"eliminating {var}")
        live = [i for i in live if i not in used] + [len(scopes) - 1]
    if len(live) > 1 or scopes[live[0]] != targets or not steps:
        contract(live, targets, f"the answer over {', '.join(targets)}")
    return _Plan(tuple(factors), tuple(steps), tuple(shapes))


def _min_fill(
    scopes: list[tuple[str, ...]], hidden: set[str], cards: Mapping[str, int], position: Mapping[str, int]
) -> Iterator[str]:
    """The elimination order of ``hidden``: fewest fill-in edges, then the
    smallest factor created, then declaration order, each cost kept and
    recomputed only where an elimination joins neighbours."""
    adjacent: dict[str, set[str]] = {}
    for scope in scopes:
        for a in scope:
            adjacent.setdefault(a, set()).update(scope)

    def cost(var: str) -> tuple[int, int, int]:
        # Each missing edge among the neighbours is counted from both ends.
        fill = sum(len(adjacent[var] - adjacent[a]) for a in adjacent[var]) // 2
        return fill, math.prod(cards[a] for a in adjacent[var]), position[var]

    costs = {var: cost(var) for var in hidden}
    while costs:
        yield (var := min(costs, key=costs.__getitem__))
        del costs[var]
        neighbours = adjacent.pop(var) - {var}
        for a in neighbours:
            adjacent[a] = (adjacent[a] | neighbours) - {var}
        for a in neighbours.union(*(adjacent[b] for b in neighbours)) & costs.keys():
            costs[a] = cost(a)


def _subscripts(inputs: list[tuple[str, ...]], output: tuple[str, ...]) -> str:
    # Every term starts with "...", so the same step contracts tables
    # with or without leading replication axes.
    letters = dict(zip(dict.fromkeys(a for axes in inputs for a in axes), _EINSUM_LETTERS))
    lhs = ",".join("..." + "".join(letters[a] for a in axes) for axes in inputs)
    return lhs + "->..." + "".join(letters[a] for a in output)


def _contract(model: CausalModel, forced: Assignment, evidence: Assignment, targets: tuple[str, ...]) -> np.ndarray:
    """Unnormalized mass over the target axes, in target order, of the
    truncated factorization under ``forced`` restricted to ``evidence``."""
    plan = model.graph._plan_for(forced, evidence, targets)
    return plan.run(plan.operands(model.graph, (forced, evidence), model.tables.__getitem__))


def _total(mass: list[float]) -> float:
    total = _added(mass)
    if total <= 0.0:
        raise ValueError("zero-probability-evidence: the evidence has probability zero")
    return total


def joint_probability(model: CausalModel, assignment: Assignment) -> float:
    """Probability of one full assignment under the factorized joint.

    The assignment must cover every model variable exactly; a partial
    assignment is rejected because its probability is a marginal, not a
    joint entry.
    """
    check_assignment(model.graph, assignment, "assignment")
    missing = [n for n in model.graph.names if n not in assignment]
    if missing:
        raise ValueError(f"partial-assignment: missing {', '.join(missing)}")
    return float(_contract(model, {}, assignment, ()))


def _conditional(model: CausalModel, target: Assignment, forced: Assignment, evidence: Assignment) -> float:
    if not target:
        raise ValueError("empty-target: at least one target variable is required")
    check_assignment(model.graph, target, "target")
    check_assignment(model.graph, evidence, "evidence")
    overlap = sorted(set(target) & set(evidence))
    if overlap:
        raise ValueError(f"overlapping-target-evidence: {', '.join(overlap)}")
    targets = tuple(target)
    vmap = model.graph.variable_map
    mass = _contract(model, forced, evidence, targets)
    return float(mass[tuple(vmap[n].state_index[target[n]] for n in targets)]) / _total(mass.ravel().tolist())


def query(model: CausalModel, target: Assignment, evidence: Assignment | None = None) -> float:
    """Exact conditional probability P(target | evidence).

    ``target`` must be non-empty and disjoint from ``evidence``; empty
    evidence asks for a marginal. Evidence of probability zero has no
    conditional and is rejected.
    """
    return _conditional(model, target, {}, {} if evidence is None else evidence)


def intervene(model: CausalModel, intervention: Intervention) -> CausalModel:
    """Graph surgery: force each intervened variable to one state.

    Returns a new model in which every intervened variable has no
    parents and a point-mass CPT on its forced state; every other table
    is the input's own array, and the input is left untouched (so it must
    be valid). Applying the same
    intervention twice is a no-op, and a later surgery on the same
    variable simply replaces the earlier one.
    """
    _check_intervention(model.graph, intervention)
    graph, tables = model.graph, list(model.tables)
    for name, state in intervention.items():
        spec = graph.variable_map[name]
        tables[graph._positions[name]] = np.eye(len(spec.states))[spec.state_index[state]]
    return CausalModel._of(CausalGraph(graph.variables, {**graph.parents, **dict.fromkeys(intervention, ())}), tables)


def interventional_query(model: CausalModel, intervention: Intervention, target: Assignment) -> float:
    """P(target | do(intervention)) by the truncated factorization.

    Equals a plain query on ``intervene(model, intervention)``, without
    building that model. A variable cannot be both forced and queried;
    forcing fixes it by fiat, so the query would be trivial or
    contradictory.
    """
    overlap = sorted(set(target) & set(intervention))
    if overlap:
        raise ValueError(f"target-is-intervened: {', '.join(overlap)}")
    _check_intervention(model.graph, intervention)
    return _conditional(model, target, intervention, {})


def interventional_marginal(model: CausalModel, intervention: Intervention, variable: str) -> tuple[float, ...]:
    """Distribution of one variable under an intervention, in state order.

    Agrees with calling :func:`interventional_query` once per state, but
    contracts once for the whole distribution. An empty intervention
    yields the plain marginal.
    """
    check_assignment(model.graph, intervention, "intervention")
    if variable in intervention:
        raise ValueError(f"target-is-intervened: {variable}")
    if variable not in model.graph.variable_map:
        raise ValueError(f"unknown-variable: target names {variable!r}, which is not in the model")
    mass = _contract(model, intervention, {}, (variable,)).tolist()
    total = _total(mass)
    return tuple(p / total for p in mass)


def cumulative(table: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums of a table, for inverse-CDF draws.

    From each row's last state with positive mass on, the entries are
    +inf. The state drawn for a uniform u in [0, 1) is the first whose
    entry exceeds u (equally, the number of entries at or below u), so
    a draw beyond the row's float sum lands on the last state with
    mass, and a zero-mass state is never drawn.
    """
    cum = np.cumsum(table, axis=-1)
    card = table.shape[-1]
    last = card - 1 - np.argmax(table[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(card) >= last[..., None]] = np.inf
    return cum


def _sampling_tables(truth: CausalModel, interventions: Sequence[Intervention]) -> tuple:
    """Per variable in topological order: (position, parent positions,
    step, table), its strides and shape left to ``graph._layout``. If every
    intervention forces it: no parents, None and each one's state code.
    Else :func:`cumulative` rows as (blocks x rows, states - 1), 1-D if
    binary, less the last, +inf column: if none forces it, 0 and the
    truth's rows; else the rows per block and a block per intervention,
    the truth's rows or the forced state's point mass."""
    graph, tables = truth.graph, []
    for pos in map(graph._positions.get, graph.topological_order):
        spec, (parents, _, shape, _) = graph.variables[pos], graph._layout[pos]
        forced = [i.get(spec.name) for i in interventions]
        if None not in forced:
            tables.append((pos, (), None, np.array([spec.state_index[s] for s in forced], np.intp)))
            continue
        forced = [None] if set(forced) == {None} else forced
        blocks = [truth.tables[pos] if s is None else np.eye(shape[-1])[spec.state_index[s]] for s in forced]
        cum = cumulative(np.stack([np.broadcast_to(t, shape) for t in blocks])).reshape(-1, shape[-1])
        cum = np.ascontiguousarray(cum[:, 0 if shape[-1] == 2 else slice(-1)])
        tables.append((pos, parents, len(cum) // len(blocks) if len(blocks) > 1 else 0, cum))
    return tuple(tables)


def _drawer(graph: CausalGraph, tables: tuple, actions: np.ndarray, x: np.ndarray) -> Callable[[np.ndarray], None]:
    """The batched draw from ``tables``, the :func:`_sampling_tables` of a
    truth on ``graph`` under a menu, bound to ``actions``, one intp action
    index per row, and to ``x``, (n, variables) intp: a function of ``u``,
    one uniform per row and variable in topological order, that writes
    the rows' state codes into ``x``, columns in declaration order. Given
    the same uniforms, a row draws what :func:`sample` draws on the truth
    surgered by its action. A variable every action forces is looked up
    by action, its uniform unread; any other takes the number of entries
    at or below its uniform in the row its parents' codes pick, by Horner's
    rule over the cardinalities of its ``graph._layout`` shape, within its
    action's block if only some force it."""
    index, plan = np.empty(len(x), np.intp), []
    for k, (pos, parents, step, cum) in enumerate(tables):
        # The row by Horner's rule, index = index * cardinality + code, over the action's block, then each parent.
        codes, calls = [actions] * (step != 0) + [x[:, p] for p in parents], []
        for column, card in zip(codes[1:], graph._layout[pos][2][-len(codes) : -1]):
            calls += [(np.multiply, (index if calls else codes[0], np.array(card), index)), (np.add, (index, column, index))]
        plan.append((calls, cum, index if calls else codes[0] if codes else None, None if step is None else k, x[:, pos]))

    def run(u: np.ndarray) -> None:
        for calls, cum, rows, k, column in plan:
            for f, args in calls:
                f(*args)
            entries = cum if rows is None else cum[rows]
            column[...] = entries if k is None else (entries <= u[:, k, None]).sum(axis=1) if cum.ndim > 1 else entries <= u[:, k]

    return run


def sample(model: CausalModel, rng: np.random.Generator) -> dict[str, str]:
    """Draw one full assignment by ancestral sampling.

    Variables are visited in the cached topological order; each is drawn
    from its CPT row given the already-sampled parents, the row
    ``sum(parent code * stride)`` with the strides of ``graph._layout``,
    with one ``rng.random()`` per variable. All randomness comes from ``rng``, so
    a given generator state fixes the draw. A forced variable of a
    surgered model still takes its uniform.
    """
    codes, layout = [0] * len(model.graph.variables), model.graph._layout
    for pos, parents, _, cum in model._sampler:
        entries = cum[sum(codes[p] * stride for p, stride in zip(parents, layout[pos][1]))]
        u = rng.random()
        codes[pos] = int(entries <= u) if cum.ndim == 1 else int((entries <= u).sum())
    variables = model.graph.variables
    return {variables[pos].name: variables[pos].states[codes[pos]] for pos, *_ in model._sampler}
