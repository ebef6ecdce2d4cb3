"""Deterministic boundary fuzz: every malformed document fails cleanly.

Each mutation either replaces one leaf of a valid document with a value
from ``VALUES`` or deletes one key. Whatever the result, a loader may
accept it or reject it with a validation error; any other exception
(``OverflowError``, ``TypeError``, ``KeyError``, ...) would reach the
command line as a traceback.
"""

import copy
import functools
import json
import math
import operator
from pathlib import Path

import pytest

from causalsim import (
    FormatError,
    InvalidModelError,
    beliefs_from_dict,
    beliefs_to_dict,
    config_from_dict,
    init_uniform,
    load_environment,
    load_model,
    model_from_dict,
)

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"
MODEL = SAMPLE_DIR / "medic_model.json"
EXPERIMENT = SAMPLE_DIR / "medic_experiment.json"

VALUES = [None, True, 0, -1, 10**400, 1e308, math.inf, "x", [], {}, [["x"]], "0"]

CLEAN = (FormatError, InvalidModelError, ValueError)

DELETE = object()


def _nodes(node, path=()):
    """Every (path, node) below ``node``, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for step, child in children:
        yield path + (step,), child
        yield from _nodes(child, path + (step,))


def mutations(doc):
    """Yield (description, mutated copy) for each leaf replacement and
    each key deletion, in a fixed order."""
    nodes = list(_nodes(doc))
    edits = [(path, value) for path, node in nodes if not isinstance(node, (dict, list)) for value in VALUES]
    edits += [(path, DELETE) for path, _ in nodes if isinstance(path[-1], str)]
    for path, value in edits:
        out = copy.deepcopy(doc)
        parent = functools.reduce(operator.getitem, path[:-1], out)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
        yield f"{path} <- {value!r:.20}", out


def _escapes(loader, doc):
    """Run every mutation of ``doc`` through ``loader``; return the ones
    that raised anything but a validation error."""
    cases = list(mutations(doc))
    assert len(cases) > 100
    bad = []
    for what, mutated in cases:
        try:
            loader(mutated)
        except CLEAN:
            pass
        except Exception as e:  # anything else would be a traceback on the command line
            bad.append(f"{what}: {type(e).__name__}: {e}"[:200])
    return bad


def _model_doc():
    return json.loads(MODEL.read_text())


def _experiment_doc():
    return json.loads(EXPERIMENT.read_text())


def test_model_loader_raises_only_validation_errors():
    assert _escapes(model_from_dict, _model_doc()) == []


def test_belief_loader_raises_only_validation_errors():
    doc = beliefs_to_dict(init_uniform(load_model(str(MODEL)).graph))
    assert _escapes(beliefs_from_dict, doc) == []


def test_config_loader_raises_only_validation_errors():
    assert _escapes(config_from_dict, _experiment_doc()) == []


@pytest.mark.parametrize("mutated", ["model", "experiment"])
def test_environment_loader_raises_only_validation_errors(tmp_path, mutated):
    docs = {"model": _model_doc(), "experiment": _experiment_doc()}
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))

    def through_files(doc):
        paths[mutated].write_text(json.dumps(doc))
        load_environment(str(paths["model"]), str(paths["experiment"]))

    assert _escapes(through_files, docs[mutated]) == []
