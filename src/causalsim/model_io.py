"""Read and write causal models and belief documents as JSON.

The document layout mirrors the in-memory model:

.. code-block:: json

    {
      "variables": [{"name": "D", "states": ["0", "1"]}, ...],
      "parents": {"D": [], "T": ["D"], "Y": ["D", "T"]},
      "cpts": {
        "Y": [{"given": {"D": "0", "T": "0"}, "p": [0.3, 0.7]}, ...],
        ...
      }
    }

Each "p" vector aligns with the variable's declared state order, every
parent configuration appears exactly once, and "given" is omitted (or
empty) for parentless variables. Variables missing from "parents" have
no parents. A belief document has the same layout with "counts" rows in
place of "p" rows, and both go through one table codec,
:func:`tables_from_dict` and :func:`tables_to_dict`. Every JSON number
is read by :func:`number`.

Structural problems raise :class:`FormatError` at the first violation,
with a path such as ``model.json.cpts.Y[2].p`` (the file, or ``$`` for a
document in memory, then its ``.key`` and ``[i]`` steps); so do numbers
beyond float range, such as a 400-digit integer. Row sums (entries added
in order) within ``ROW_SUM_TOL`` of one are renormalized on load; rows
further out are rejected; so is a key repeated in one object, as a
``parse-error``. The graph is checked once, as it is built, before any
other key is read: its violations raise
:class:`~causalsim.cgm.InvalidModelError` after the file. Each row is
checked as it is written, so a parsed model is valid.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Sequence

import numpy as np

from .cgm import ROW_SUM_TOL, CausalGraph, CausalModel, InvalidModelError, VariableSpec, _added, _FieldError

__all__ = [
    "FormatError",
    "load_model",
    "save_model",
    "model_from_dict",
    "model_to_dict",
    "graph_from_dict",
    "graph_to_dict",
    "read_json",
]


class FormatError(ValueError):
    """A structurally malformed document; the message starts with a path."""

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")


def _members(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object's members; a repeated key raises ValueError rather than letting the last one win."""
    if len(members := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(key for i, key in enumerate(keys) if key in keys[:i])!r}")
    return members


def read_json(path: str) -> Any:
    """Load a JSON file, reporting unreadable input, bytes that are not
    UTF-8, invalid JSON, a key repeated within one object and nesting too
    deep to parse as :class:`FormatError` under the ``parse-error`` banner."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, object_pairs_hook=_members)
    except (OSError, ValueError, RecursionError) as e:
        raise FormatError(path, f"parse-error: {e}") from e


def _expect(condition: bool, path: str, detail: str) -> None:
    if not condition:
        raise FormatError(path, detail)


def _checked(doc: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``; the fault a constructor or check finds at an
    entry (a :class:`~causalsim.cgm._FieldError`) is a FormatError at ``doc.entry``."""
    try:
        return make(*args, **kwargs)
    except _FieldError as e:
        raise FormatError(f"{doc}.{e.field}", str(e)) from None


def _string_list(value: Any, path: str) -> tuple[str, ...]:
    _expect(isinstance(value, list), path, "expected a list of strings")
    for i, s in enumerate(value):
        _expect(isinstance(s, str), f"{path}[{i}]", "expected a string")
    return tuple(value)


def graph_from_dict(data: Any, *, doc: str = "$") -> CausalGraph:
    """Parse the "variables" and "parents" sections into a graph; the
    :class:`~causalsim.cgm.InvalidModelError` of building it names ``doc``."""
    _expect(isinstance(data, dict), doc, "expected an object")
    _expect("variables" in data, doc, "missing key 'variables'")
    raw_vars = data["variables"]
    _expect(isinstance(raw_vars, list) and raw_vars, f"{doc}.variables", "expected a non-empty list")
    specs = []
    for i, item in enumerate(raw_vars):
        where = f"{doc}.variables[{i}]"
        _expect(isinstance(item, dict), where, "expected an object")
        _expect(set(item) <= {"name", "states"}, where, "unknown keys present")
        _expect(isinstance(item.get("name"), str), f"{where}.name", "expected a string")
        states = _string_list(item.get("states"), f"{where}.states")
        _expect(len(states) >= 2, f"{where}.states", "a variable needs at least two states")
        specs.append(VariableSpec(item["name"], states))

    declared = {s.name for s in specs}
    raw_parents = data.get("parents", {})
    _expect(isinstance(raw_parents, dict), f"{doc}.parents", "expected an object")
    parents: dict[str, tuple[str, ...]] = {}
    for name, plist in raw_parents.items():
        where = f"{doc}.parents.{name}"
        _expect(name in declared, where, "parent list for an undeclared variable")
        entries = _string_list(plist, where)
        for j, p in enumerate(entries):
            _expect(p in declared, f"{where}[{j}]", f"parent {p!r} is not a declared variable")
        parents[name] = entries
    try:
        return CausalGraph(tuple(specs), parents)
    except InvalidModelError as e:
        raise InvalidModelError(e.issues, doc) from None


def graph_to_dict(graph: CausalGraph) -> dict[str, Any]:
    return {
        "variables": [{"name": v.name, "states": list(v.states)} for v in graph.variables],
        "parents": {v.name: list(graph.parents_of(v.name)) for v in graph.variables},
    }


def number(value: Any, path: str) -> float:
    """A JSON number as a float. Non-numbers, booleans and integers
    beyond float range raise :class:`FormatError` at ``path``."""
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(path, "number beyond float range") from None


def _parse_rows(raw_rows: Any, graph: CausalGraph, pos: int, *, value_key: str, doc: str) -> np.ndarray:
    """Parse the row list of the variable at ``pos`` under ``<doc>.cpts.<name>``
    into its table. Each row goes to the index that its parent codes and
    the strides give, so an index already taken is a repeated row, and one
    never taken a missing row.

    ``value_key`` selects the per-row vector ("p" for probabilities,
    "counts" for pseudo-counts); only probability rows are checked and normalized.
    """
    spec, (_, strides, shape, configs) = graph.variables[pos], graph._layout[pos]
    where, parents = f"{doc}.cpts.{spec.name}", graph.parents_of(spec.name)
    _expect(isinstance(raw_rows, list), where, "expected a list of rows")
    rows: list[list[float] | None] = [None] * len(configs)
    for i, item in enumerate(raw_rows):
        rw = f"{where}[{i}]"
        _expect(isinstance(item, dict), rw, "expected an object")
        _expect(set(item) <= {"given", value_key}, rw, "unknown keys present")
        given = item.get("given", {})
        _expect(isinstance(given, dict), f"{rw}.given", "expected an object")
        if set(given) != set(parents):
            raise FormatError(f"{rw}.given", f"expected exactly the parents of {spec.name}: {', '.join(parents) or '(none)'}")
        row = 0
        for p, stride in zip(parents, strides):
            s = given[p]
            _expect(isinstance(s, str), f"{rw}.given.{p}", "expected a string")
            _expect(s in graph.variable_map[p].state_index, f"{rw}.given.{p}", f"{s!r} is not a state of {p}")
            row += graph.variable_map[p].state_index[s] * stride
        _expect(rows[row] is None, f"{rw}.given", "duplicate parent configuration")
        vec = item.get(value_key)
        _expect(isinstance(vec, list), f"{rw}.{value_key}", "expected a list of numbers")
        _expect(len(vec) == len(spec.states), f"{rw}.{value_key}", f"{len(vec)} entries for {len(spec.states)} states")
        values = [number(x, f"{rw}.{value_key}[{j}]") for j, x in enumerate(vec)]
        if value_key == "p":
            if out := [j for j, x in enumerate(values) if not 0.0 <= x <= 1.0]:
                raise FormatError(f"{rw}.{value_key}[{out[0]}]", "probabilities must lie in [0, 1]")
            total = _added(values)
            if not abs(total - 1.0) <= ROW_SUM_TOL:
                raise FormatError(f"{rw}.{value_key}", f"row sums to {total:.12g}, beyond tolerance {ROW_SUM_TOL:g}")
            values = [x / total for x in values]
        rows[row] = values
    if None in rows:
        shown = ", ".join("(" + ", ".join(c) + ")" for c in sorted(c for c, r in zip(configs, rows) if r is None)[:3])
        raise FormatError(where, f"missing parent configurations: {shown}")
    return np.array(rows).reshape(shape)


def tables_from_dict(data: Any, *, value_key: str, doc: str = "$") -> tuple[CausalGraph, tuple[np.ndarray, ...]]:
    """Parse a CPT-shaped document: its graph, checked as it is built,
    before any other key is read, and each variable's table, in
    declaration order, with ``value_key`` naming the row vector."""
    graph = graph_from_dict(data, doc=doc)
    _expect(set(data) <= {"variables", "parents", "cpts"}, doc, "unknown top-level keys present")
    _expect("cpts" in data, doc, "missing key 'cpts'")
    raw_cpts = data["cpts"]
    _expect(isinstance(raw_cpts, dict), f"{doc}.cpts", "expected an object")
    for name in raw_cpts:
        _expect(name in graph.variable_map, f"{doc}.cpts.{name}", "table for an undeclared variable")
    tables = []
    for pos, v in enumerate(graph.variables):
        _expect(v.name in raw_cpts, f"{doc}.cpts", f"missing table for {v.name}")
        tables.append(_parse_rows(raw_cpts[v.name], graph, pos, value_key=value_key, doc=doc))
    return graph, tuple(tables)


def tables_to_dict(graph: CausalGraph, tables: Sequence[np.ndarray], value_key: str) -> dict[str, Any]:
    """Document form of a graph and its tables; inverse of :func:`tables_from_dict`.
    Rows come in row order; "given" is omitted for parentless variables."""
    out = graph_to_dict(graph)
    out["cpts"] = {
        v.name: [
            {"given": dict(zip(graph.parents_of(v.name), config)), value_key: row} if config else {value_key: row}
            for config, row in zip(configs, table.reshape(-1, shape[-1]).tolist())
        ]
        for v, table, (_, _, shape, configs) in zip(graph.variables, tables, graph._layout)
    }
    return out


def model_from_dict(data: Any, *, doc: str = "$") -> CausalModel:
    """Assemble a model from its document form, checked as it is parsed; ``doc`` starts error paths."""
    return CausalModel._of(*tables_from_dict(data, value_key="p", doc=doc))


def model_to_dict(model: CausalModel) -> dict[str, Any]:
    """Document form of a model; inverse of :func:`model_from_dict`."""
    return tables_to_dict(model.graph, model.tables, "p")


def load_model(path: str) -> CausalModel:
    """Read a model document from disk; see module docstring for errors."""
    return model_from_dict(read_json(path), doc=path)


def save_model(model: CausalModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=2)
        f.write("\n")
