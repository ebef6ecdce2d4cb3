"""The library's earlier round kernels, kept as references for the flat
row layout and the column-wise normalizations that replaced them, plus
a generator of models with zero-mass entries for comparing the two, and
the earlier CSV and SVG writers, topological sort, and dict-based belief
state.

Each function keeps the arithmetic of the code it stands for: ``draw``
gathers every variable's cumulative rows with one multi-array index
per variable, ``update_counts`` increments one per-variable count array
at a time, ``update_count_buffers`` takes the free mask per replication
and then per buffer, ``min_fill`` recomputes every fill-in count at each
elimination step, and ``posterior`` and ``expected_utilities`` reduce
over the state axis with ``sum``. The tests require the library to give
exactly the same codes, counts, elimination plans, means and expected
utilities. ``write_csv`` writes one line at a time and ``write_svg``
builds, indents and serializes an ElementTree; the tests require the
library's writers to give exactly the same bytes. ``kahn_order`` rescans
every variable once per topological level, and the tests require the
library's sort to give the same order and the same cycle issue.
``dict_init_uniform``, ``dict_update`` and ``dict_posterior_mean`` keep
the pseudo-counts as rows in dicts, keyed by parent configuration, and
sum each row with Python's ``sum``; the tests require the array belief
state to give the same bits.

``bound_draw`` and ``refreshed`` are no references: they are how the
tests run the library's batched draw, the one the engine binds once per
block, and the posterior means that ``CountBeliefs`` binds.
"""

from __future__ import annotations

import itertools
import math
import random
import xml.etree.ElementTree as ET
from typing import Iterator, Mapping, Sequence

import numpy as np

from causalsim import Action, Environment, RoundSeries
from causalsim.cgm import CausalGraph, CausalModel, Cpt, ValidationIssue, VariableSpec, _drawer, cumulative, parent_configurations
from causalsim.reporting import (
    _HEIGHT,
    _MARGIN_BOTTOM,
    _MARGIN_LEFT,
    _MARGIN_RIGHT,
    _MARGIN_TOP,
    _PALETTE,
    _WIDTH,
    CSV_HEADER,
    _check_series,
)


def _sampling_order(graph: CausalGraph) -> list[tuple[int, tuple[int, ...]]]:
    positions = graph._positions
    return [(positions[name], tuple(positions[p] for p in graph.parents_of(name))) for name in graph.topological_order]


def draw(env, actions: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per variable in topological order: one gather of the action's
    cumulative rows by (action, parent codes...), then the first entry
    above the uniform."""
    sampler = []
    for pos, parents in _sampling_order(env.truth.graph):
        stacked = np.empty((len(env._surgered), *env.truth.tables[pos].shape))
        for k, m in enumerate(env._surgered):
            stacked[k] = m.tables[pos]
        sampler.append((pos, parents, cumulative(stacked)))
    x = np.empty(u.shape, np.intp)
    for k, (pos, parents, cum) in enumerate(sampler):
        rows = cum[(actions, *[x[:, p] for p in parents])]
        x[:, pos] = (rows > u[:, k, None]).argmax(axis=1)
    return x


def bound_draw(env, actions: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The library's batched draw on ``env``'s sampling tables, bound to
    ``actions`` and ``out`` (a new intp array if None) and run once on
    ``u``: a row of state codes per entry of ``actions``, columns in
    declaration order."""
    x = np.empty(u.shape, np.intp) if out is None else out
    _drawer(env.truth.graph, env._sampler, np.asarray(actions, np.intp), x)(u)
    return x


def refreshed(beliefs) -> list[np.ndarray | None]:
    """Run the calls of ``beliefs.refresh`` and return its posterior means,
    one view per variable (None for a variable that is not scored)."""
    for f, args in beliefs.refresh:
        f(*args)
    return beliefs.means


def count_arrays(graph: CausalGraph, alpha0: float, n: int) -> list[np.ndarray]:
    """One (n, parent cardinalities..., cardinality) array per variable."""
    return [np.full((n, *shape), float(alpha0)) for _, _, shape, _ in graph._layout]


def update_counts(counts: list[np.ndarray], graph: CausalGraph, x: np.ndarray, free: np.ndarray) -> None:
    """Add ``free[:, pos]`` at each replication's observed entry, one
    variable at a time."""
    positions = graph._positions
    rows = np.arange(len(x))
    axes = [tuple(positions[p] for p in graph.parents_of(v.name)) + (i,) for i, v in enumerate(graph.variables)]
    for pos in range(len(graph.variables)):
        counts[pos][(rows, *[x[:, a] for a in axes[pos]])] += free[:, pos]


def update_count_buffers(beliefs, x: np.ndarray, free: np.ndarray) -> None:
    """``CountBeliefs.update`` as it was before each buffer kept its slice
    of the menu's free mask: ``free`` holds one row per replication, (n,
    variables), and each buffer takes its variables' columns of it."""
    for flat, matrix, base, group, *_ in beliefs._buffers:
        flat[(x @ matrix + base).astype(np.intp)] += free.take(group, axis=1)


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


def kahn_order(graph: CausalGraph) -> tuple[list[str], list[ValidationIssue]]:
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


def dict_init_uniform(graph: CausalGraph, alpha0: float = 1.0) -> dict[str, dict[tuple[str, ...], tuple[float, ...]]]:
    """Symmetric prior: every pseudo-count in every row is ``alpha0``."""
    alpha0 = float(alpha0)
    counts: dict[str, dict[tuple[str, ...], tuple[float, ...]]] = {}
    for v in graph.variables:
        row = (alpha0,) * len(v.states)
        counts[v.name] = {config: row for config in parent_configurations(graph, v.name)}
    return counts


def dict_posterior_mean(counts: Mapping[str, Mapping[tuple[str, ...], tuple[float, ...]]]) -> dict[str, Cpt]:
    """The CPTs whose rows are the normalized pseudo-counts."""
    cpts = {}
    for name, rows in counts.items():
        table = {}
        for config, row in rows.items():
            total = sum(row)
            table[config] = tuple(c / total for c in row)
        cpts[name] = Cpt(name, table)
    return cpts


def dict_update(graph: CausalGraph, counts: Mapping, intervention: Mapping[str, str], observed: Mapping[str, str]) -> dict:
    """Fold one intervention outcome into the counts; the input is never touched."""
    new_counts = dict(counts)
    for v in graph.variables:
        if v.name in intervention:
            continue
        config = tuple(observed[p] for p in graph.parents_of(v.name))
        rows = dict(new_counts[v.name])
        row = rows[config]
        i = v.state_index[observed[v.name]]
        rows[config] = row[:i] + (row[i] + 1.0,) + row[i + 1 :]
        new_counts[v.name] = rows
    return new_counts


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


def write_csv(series: Sequence[RoundSeries], path: str) -> None:
    """Emit the aggregate curves; see the module docstring for layout."""
    rounds = _check_series(series)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for t in range(rounds):
            for s in series:
                f.write(f"{t + 1},{s.label},{s.values[t]:.10f},{s.cumulative[t]:.10f}\n")


def _x_scale(rounds: int) -> tuple[float, float]:
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    if rounds == 1:
        return _MARGIN_LEFT + span / 2.0, 0.0
    return _MARGIN_LEFT, span / (rounds - 1)


def write_svg(series: Sequence[RoundSeries], path: str) -> None:
    """Plot the per-round mean series as one polyline per agent."""
    rounds = _check_series(series)

    lo = min(min(s.values) for s in series)
    hi = max(max(s.values) for s in series)
    if hi - lo < 1e-12:
        # Flat data still deserves a visible horizontal line.
        lo, hi = lo - max(0.5, abs(lo) * 2.0**-30), hi + max(0.5, abs(lo) * 2.0**-30)
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x0, xstep = _x_scale(rounds)

    def xpix(t: int) -> float:
        return x0 + xstep * t

    def ypix(v: float) -> float:
        return _MARGIN_TOP + (hi - v) / (hi - lo) * plot_h

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(_WIDTH),
            "height": str(_HEIGHT),
            "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
        },
    )
    ET.SubElement(svg, "rect", {"width": str(_WIDTH), "height": str(_HEIGHT), "fill": "white"})

    # Coordinates are ints or preformatted strings; attributes are written
    # in insertion order, so the order here is the order in the file.
    def line(x1, y1, x2, y2, stroke="black", width="1") -> None:
        ends = {"x1": x1, "y1": y1, "x2": x2, "y2": y2}
        ET.SubElement(svg, "line", {k: str(v) for k, v in ends.items()} | {"stroke": stroke, "stroke-width": width})

    def text(x, y, label, size, anchor=None, **extra) -> None:
        attrs = {"x": str(x), "y": str(y)} | ({"text-anchor": anchor} if anchor else {})
        ET.SubElement(svg, "text", attrs | {"font-family": "sans-serif", "font-size": size} | extra).text = label

    x_axis_y = _HEIGHT - _MARGIN_BOTTOM
    line(_MARGIN_LEFT, x_axis_y, _WIDTH - _MARGIN_RIGHT, x_axis_y)
    line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, x_axis_y)

    # Axis titles.
    text(f"{(_MARGIN_LEFT + _WIDTH - _MARGIN_RIGHT) / 2:.1f}", _HEIGHT - 12, "round", "14", "middle")
    mid = f"{(_MARGIN_TOP + x_axis_y) / 2:.1f}"
    text(18, mid, "mean reward", "14", "middle", transform=f"rotate(-90 18 {mid})")

    # A handful of ticks on each axis.
    tick_rounds = sorted({1, max(1, rounds // 4), max(1, rounds // 2), max(1, 3 * rounds // 4), rounds})
    for t in tick_rounds:
        x = f"{xpix(t - 1):.1f}"
        line(x, x_axis_y, x, x_axis_y + 5)
        text(x, x_axis_y + 20, str(t), "12", "middle")
    for i in range(5):
        v = lo + (hi - lo) * i / 4.0
        y = ypix(v)
        line(_MARGIN_LEFT - 5, f"{y:.1f}", _MARGIN_LEFT, f"{y:.1f}")
        text(_MARGIN_LEFT - 9, f"{y + 4:.1f}", f"{v:.3f}" if abs(v) < 1e9 else f"{v:.12g}", "12", "end")

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{xpix(t):.2f},{ypix(v):.2f}" for t, v in enumerate(s.values))
        ET.SubElement(svg, "polyline", {"points": points, "fill": "none", "stroke": color, "stroke-width": "1.5"})
        # Legend entry.
        ly = _MARGIN_TOP + 10 + 22 * i
        lx = _WIDTH - _MARGIN_RIGHT + 16
        line(lx, ly, lx + 26, ly, color, "2")
        text(lx + 32, ly + 4, s.label, "13")

    tree = ET.ElementTree(svg)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)
