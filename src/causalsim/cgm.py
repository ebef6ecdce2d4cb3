"""Discrete causal graphical models with exact interventional inference.

A model couples a directed acyclic graph over finitely many discrete
variables with one conditional probability table (CPT) per variable. The
joint distribution factorizes as the product of the tables. An
intervention is a graph surgery: each forced variable loses its incoming
edges and its table is replaced by a point mass on the forced state.
Interventional queries are then ordinary conditional queries against the
mutilated model, which makes forcing a variable observably different
from conditioning on it whenever confounding is present.

Inference is exact variable elimination on a compiled array form of the
model: one ndarray per CPT, with one axis per parent and a last axis for
the variable itself, indexed by the state codes of
:attr:`VariableSpec.state_index`. Every query goes through one
sum-product kernel. Forced variables drop their own factors and, like
evidence, have their axes pinned (the truncated factorization); factors
of variables that are not ancestors of the targets or the evidence are
dropped, since they sum to one; the rest are contracted with
``np.einsum``, one variable at a time in min-fill order. The
elimination plan depends only on the graph and on which variables are
forced, evidenced and targeted, so it is cached on the graph object and
shared by every model built on it. One plan runner executes it for
the scalar queries; :class:`ReplicatedQuery`, which is how a batch of
belief states scores its actions at once, binds its steps once to tables
with a leading replication axis. The one cap is on the work: building a
plan refuses a query whose elimination would create a factor of more
than ``MAX_FACTOR_STATES`` states, before the plan is cached or any
table is contracted. What a query may cost thus follows the induced
width of its elimination order, not the size of the joint: a
64-variable chain has a 2^64-state joint and no factor of more than
four entries. :func:`joint_probability` is no special case, since a
fully pinned plan builds only scalars.

Sampling is ancestral and has no cap. A variable's state is drawn by
inverse CDF from its cumulative table (:func:`cumulative`): the state
is the number of cumulative entries at or below a uniform draw.
:func:`sample` (on one model) and the batched
:func:`~causalsim.environment.draw` (on a truth under a menu of
interventions) read the tables of one builder, :func:`_sampling_tables`,
which builds no surgered model: forcing a variable only makes its table
a point mass, whose inverse CDF is the forced state. So ``draw`` looks
up a variable every action forces, and draws the rest from the truth's
rows or, for one only some actions force, from a block of rows per
action: the truth's, or the forced state's point mass.

Models are plain dataclasses. Construction is permissive so that
:func:`validate` can report every problem in one pass; the query and
sampling operations assume a model that passes validation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, Mapping, Sequence

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
    "validate",
    "validate_graph",
    "check_assignment",
    "ensure_valid",
    "parent_configurations",
    "joint_size",
    "joint_probability",
    "query",
    "intervene",
    "interventional_query",
    "interventional_marginal",
    "sample",
    "cumulative",
    "ReplicatedQuery",
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
    compiled tables, tie-breaking in the topological and elimination
    orders, and serialization order.
    """

    variables: tuple[VariableSpec, ...]
    parents: Mapping[str, tuple[str, ...]]

    def parents_of(self, name: str) -> tuple[str, ...]:
        return self.parents.get(name, ())

    @cached_property
    def variable_map(self) -> dict[str, VariableSpec]:
        return {v.name: v for v in self.variables}

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        """Variable names, parents before children, declaration order as
        the tie-break. Raises :class:`InvalidModelError` on a cycle."""
        order, cycles = _kahn_order(self)
        if cycles:
            raise InvalidModelError(cycles)
        return tuple(order)

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


@dataclass(frozen=True)
class CausalModel:
    """A causal graph plus one CPT per variable, keyed by variable name."""

    graph: CausalGraph
    cpts: Mapping[str, Cpt]

    @cached_property
    def _compiled(self) -> dict[int, np.ndarray]:
        # Compiled CPTs by variable position, filled in by :meth:`table`.
        return {}

    def table(self, position: int) -> np.ndarray:
        """The compiled CPT of the variable at ``position`` in declaration
        order: shape (parent cardinalities..., own cardinality), axes in
        parent-list order, states in declared order. Built on first use,
        once per model; the model must be valid."""
        table = self._compiled.get(position)
        if table is None:
            _, _, shape, configs = self.graph._layout[position]
            rows = self.cpts[self.graph.names[position]].rows
            entries = itertools.chain.from_iterable(map(rows.__getitem__, configs))
            table = self._compiled[position] = np.fromiter(entries, float, math.prod(shape)).reshape(shape)
        return table

    @cached_property
    def _valid(self) -> bool:
        # ensure_valid's check, kept once it passes; a failure raises each time.
        if issues := validate(self):
            raise InvalidModelError(issues)
        return True

    @cached_property
    def _sampler(self) -> tuple:
        # The model's own sampling tables: every variable takes its rows.
        return _sampling_tables(self, ({},))


@dataclass(frozen=True)
class ValidationIssue:
    """One violation found by :func:`validate`."""

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
    """Kahn topological sort. Returns (ordered names, the one
    ``cycle-detected`` issue naming the variables left over, or nothing).

    Parent references to undeclared variables are ignored here; they are
    reported separately by :func:`validate_graph`.
    """
    declared = set(graph.names)
    # A self-loop is kept, so its vertex never becomes ready.
    remaining = {v.name: {p for p in graph.parents_of(v.name) if p in declared} for v in graph.variables}
    order: list[str] = []
    placed: set[str] = set()
    while True:
        ready = [n for n in graph.names if n not in placed and not (remaining[n] - placed)]
        if not ready:
            break
        for n in ready:
            order.append(n)
            placed.add(n)
    leftover = ", ".join(n for n in graph.names if n not in placed)
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


def validate_graph(graph: CausalGraph) -> list[ValidationIssue]:
    """Check the graph portion of the model contract.

    Reports duplicate or underspecified variables, unknown or duplicate
    parents, and cycles (a self-loop counts as a cycle).
    """
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
    issues.extend(_kahn_order(graph)[1])
    return issues


def validate(model: CausalModel) -> list[ValidationIssue]:
    """Check the whole model contract; an empty list means valid.

    Every violation is reported, so one pass suffices to see all
    problems. CPT row checks are skipped for variables whose parent
    lists are already broken, which avoids cascading noise.
    """
    issues = validate_graph(model.graph)
    graph = model.graph
    broken = {i.where for i in issues}
    declared = set(graph.names)
    for name in model.cpts:
        if name not in declared:
            issues.append(ValidationIssue("unexpected-cpt-table", name, "table for an undeclared variable"))
    for v in graph.variables:
        if v.name in broken:
            continue
        cpt = model.cpts.get(v.name)
        if cpt is None:
            issues.append(ValidationIssue("missing-cpt-table", v.name, "no table for this variable"))
            continue
        parents = graph.parents_of(v.name)
        expected = set(parent_configurations(graph, v.name))
        for config in sorted(expected - set(cpt.rows)):
            issues.append(
                ValidationIssue("missing-cpt-row", _row_key(v.name, config, parents), "no row for this parent configuration")
            )
        for config in cpt.rows:
            where = _row_key(v.name, config, parents)
            if config not in expected:
                issues.append(ValidationIssue("unexpected-cpt-row", where, "no such parent configuration"))
                continue
            row = cpt.rows[config]
            if len(row) != len(v.states):
                issues.append(
                    ValidationIssue("bad-row-length", where, f"{len(row)} entries for {len(v.states)} states")
                )
                continue
            if any(not (0.0 <= p <= 1.0) or not math.isfinite(p) for p in row):
                issues.append(ValidationIssue("entry-out-of-range", where, "entries must lie in [0, 1]"))
                continue
            if abs(sum(row) - 1.0) > ROW_SUM_TOL:
                issues.append(
                    ValidationIssue("row-not-normalized", where, f"row sums to {sum(row):.12g}")
                )
    return issues


def ensure_valid(model: CausalModel, doc: str | None = None) -> None:
    """Raise :class:`InvalidModelError` listing every violation, if any, after
    ``doc``, the document read, if given; a model that passed is not checked again."""
    try:
        model._valid
    except InvalidModelError as e:
        raise InvalidModelError(e.issues, doc) from None


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
    builds the answer, target axes in target order; ``largest`` is the
    most states of any factor a step builds.
    """

    factors: tuple[tuple[int, tuple[str | None, ...] | None], ...]
    steps: tuple[tuple[tuple[int, ...], str], ...]
    largest: int

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
    steps = []

    def contract(used: list[int], out: tuple[str, ...], what: str) -> None:
        # Append steps that contract the slots ``used`` into one new last
        # slot over ``out``, first multiplying batches of _MAX_OPERANDS
        # inputs over all their axes. Each new factor must fit the cap.
        while True:
            batch, used = used[:_MAX_OPERANDS], used[_MAX_OPERANDS:]
            scope = tuple(dict.fromkeys(a for i in batch for a in scopes[i])) if used else out
            size = math.prod(cards[a] for a in scope)
            if size > MAX_FACTOR_STATES:
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
    return _Plan(tuple(factors), tuple(steps), max(math.prod(cards[a] for a in s) for s in scopes[len(factors) :]))


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
    return plan.run(plan.operands(model.graph, (forced, evidence), model.table))


def _total(mass: list[float]) -> float:
    total = sum(mass)
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
    parents and a point-mass CPT on its forced state; everything else is
    shared with the input, which is left untouched, compiled tables
    included (so the input must be valid). Applying the same
    intervention twice is a no-op, and a later surgery on the same
    variable simply replaces the earlier one.
    """
    _check_intervention(model.graph, intervention)
    new_parents = dict(model.graph.parents)
    new_cpts = dict(model.cpts)
    for name, state in intervention.items():
        spec = model.graph.variable_map[name]
        new_parents[name] = ()
        row = tuple(1.0 if s == state else 0.0 for s in spec.states)
        new_cpts[name] = Cpt(name, {(): row})
    surgered = CausalModel(CausalGraph(model.graph.variables, new_parents), new_cpts)
    forced = {model.graph._positions[name] for name in intervention}
    surgered._compiled.update((i, model.table(i)) for i in range(len(model.graph.variables)) if i not in forced)
    return surgered


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
    strides, step, table). If every intervention forces it: None and each
    one's state code. Else :func:`cumulative` rows as (blocks x rows,
    states - 1), 1-D if binary, less the last, +inf column: if none forces
    it, 0 and the truth's rows; else the rows per block and a block per
    intervention, the truth's rows or the forced state's point mass."""
    graph, tables = truth.graph, []
    for pos in map(graph._positions.get, graph.topological_order):
        spec, (parents, strides, shape, _) = graph.variables[pos], graph._layout[pos]
        forced = [i.get(spec.name) for i in interventions]
        if None not in forced:
            tables.append((pos, (), (), None, np.array([spec.state_index[s] for s in forced], np.intp)))
            continue
        forced = [None] if set(forced) == {None} else forced
        blocks = [truth.table(pos) if s is None else np.eye(shape[-1])[spec.state_index[s]] for s in forced]
        cum = cumulative(np.stack([np.broadcast_to(t, shape) for t in blocks])).reshape(-1, shape[-1])
        cum = np.ascontiguousarray(cum[:, 0 if shape[-1] == 2 else slice(-1)])
        tables.append((pos, parents, strides, len(cum) // len(blocks) if len(blocks) > 1 else 0, cum))
    return tuple(tables)


def sample(model: CausalModel, rng: np.random.Generator) -> dict[str, str]:
    """Draw one full assignment by ancestral sampling.

    Variables are visited in the cached topological order; each is drawn
    from its CPT row given the already-sampled parents, with one
    ``rng.random()`` per variable. All randomness comes from ``rng``, so
    a given generator state fixes the draw. A forced variable of a
    surgered model still takes its uniform.
    """
    codes = [0] * len(model.graph.variables)
    for pos, parents, strides, _, cum in model._sampler:
        entries = cum[sum(codes[p] * stride for p, stride in zip(parents, strides))]
        u = rng.random()
        codes[pos] = int(entries <= u) if cum.ndim == 1 else int((entries <= u).sum())
    variables = model.graph.variables
    return {variables[pos].name: variables[pos].states[codes[pos]] for pos, *_ in model._sampler}


class ReplicatedQuery:
    """The unnormalized interventional marginal of one target for a
    batch: the :func:`interventional_marginal` kernel, run with one
    extra leading replication axis on every table.

    Built once per (graph, intervention, target) from the cached plan,
    so it refuses, at construction, the graphs the queries refuse: those
    whose elimination would build a factor of more than
    ``MAX_FACTOR_STATES`` states. :meth:`bind` pins a batch's tables
    once, in row slices, so no factor exceeds the cap with the
    replication axis included either.
    """

    def __init__(self, graph: CausalGraph, intervention: Intervention, target: str):
        self.plan = graph._plan_for(intervention, {}, (target,))
        self._operands = partial(self.plan.operands, graph, (intervention,))

    def bind(self, tables: list[np.ndarray], out: np.ndarray, buffers: dict) -> list[tuple[Callable, tuple]]:
        """The plan's contractions of ``tables``, (n, parent cardinalities...,
        cardinality) per position, as (function, arguments) calls on views
        pinned here once: the last into ``out``, every other one into a
        buffer of ``buffers``, which queries run one by one may share."""
        step, last, calls = max(1, MAX_FACTOR_STATES // self.plan.largest), len(self.plan.steps) - 1, []
        for r in range(0, len(out), step):
            slots = self._operands(lambda pos: tables[pos][r : r + step])
            for i, (used, subscripts) in enumerate(self.plan.steps):
                args = (subscripts, *[slots[j] for j in used])
                like = _einsum(*args) if i < last else out[r : r + step]  # a step before the last sums a variable out
                slots.append(buffers.setdefault((i, like.shape, like.strides), like) if i < last else like)
                calls.append((partial(_einsum, out=slots[-1]), args))
        return calls
