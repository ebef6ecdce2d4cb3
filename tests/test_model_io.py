"""JSON document parsing and emission for causal models."""

import json
import operator
import random
from functools import reduce
from pathlib import Path

import pytest

from causalsim import (
    CausalModel,
    Cpt,
    FormatError,
    InvalidModelError,
    beliefs_from_dict,
    beliefs_to_dict,
    graph_from_dict,
    graph_to_dict,
    init_uniform,
    interventional_marginal,
    load_environment,
    load_experiment_config,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)

import oracle


def medic_doc(medic_model):
    return model_to_dict(medic_model)


def test_save_then_load_round_trips_exactly(medic_model, tmp_path):
    path = tmp_path / "m.json"
    save_model(medic_model, str(path))
    assert load_model(str(path)) == medic_model


def test_model_documents_round_trip_through_the_arrays():
    # The writer gives each row as the model holds it; the loader divides
    # each row by its sum, its entries added in order from 0.0.
    rnd = random.Random(50)
    for _ in range(50):
        model = oracle.random_model(rnd)
        doc = json.loads(json.dumps(model_to_dict(model)))
        assert {name: [row["p"] for row in rows] for name, rows in doc["cpts"].items()} == {
            name: [list(row) for row in cpt.rows.values()] for name, cpt in model.cpts.items()
        }
        rows = {name: {c: tuple(x / reduce(operator.add, row, 0.0) for x in row) for c, row in cpt.rows.items()} for name, cpt in model.cpts.items()}
        loaded, want = model_from_dict(doc), CausalModel(model.graph, {name: Cpt(name, r) for name, r in rows.items()})
        assert loaded.cpts == want.cpts == {name: Cpt(name, r) for name, r in rows.items()}
        assert [t.tobytes() for t in loaded.tables] == [t.tobytes() for t in want.tables]
        assert [t.tobytes() for t in CausalModel(model.graph, model.cpts).tables] == [t.tobytes() for t in model.tables]


def test_loading_a_model_checks_its_graph_once_and_validates_nothing(monkeypatch):
    from causalsim import cgm

    # The parser checks each row as it reads it, so it never runs the
    # check of a model built in code from Cpt rows; the graph checks itself once, as it is built.
    graphs, placed = [], []
    monkeypatch.setattr(cgm, "_checked_order", lambda graph, check=cgm._checked_order: graphs.append(graph) or check(graph))
    monkeypatch.setattr(cgm, "_placed", lambda graph, cpts, check=cgm._placed: placed.append(graph) or check(graph, cpts))
    model = load_model(str(SAMPLE_DIR / "chain64_model.json"))
    assert [graph is model.graph for graph in graphs] == [True]
    assert placed == []


def test_a_row_is_divided_by_its_sum_added_in_order_on_every_python():
    # Since Python 3.12, sum() compensates for rounding and gives exactly
    # 1.0 for this row; added in order, it sums to 0.9999999999999999.
    model = model_from_dict({"variables": [{"name": "A", "states": ["a", "b", "c"]}], "cpts": {"A": [{"p": [0.7, 0.2, 0.1]}]}})
    assert model.tables[0].tolist() == [0.7000000000000001, 0.20000000000000004, 0.10000000000000002]
    assert interventional_marginal(model, {}, "A") == (0.7, 0.19999999999999998, 0.09999999999999999)


def test_saving_twice_is_byte_identical(medic_model, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(medic_model, str(first))
    save_model(load_model(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"


def test_shipped_sample_matches_builtin_scenario(medic_env):
    assert load_model(str(SAMPLE_DIR / "medic_model.json")) == medic_env.truth


def test_document_shape(medic_model):
    doc = model_to_dict(medic_model)
    assert set(doc) == {"variables", "parents", "cpts"}
    assert doc["variables"][0] == {"name": "D", "states": ["0", "1"]}
    assert doc["parents"] == {"D": [], "T": ["D"], "Y": ["D", "T"]}
    # parentless rows omit "given"; parented rows are in cross-product order
    assert doc["cpts"]["D"] == [{"p": [0.7, 0.3]}]
    givens = [row["given"] for row in doc["cpts"]["Y"]]
    assert givens == [
        {"D": "0", "T": "0"},
        {"D": "0", "T": "1"},
        {"D": "1", "T": "0"},
        {"D": "1", "T": "1"},
    ]
    assert doc["cpts"]["Y"][0]["p"] == [0.3, 0.7]


def test_graph_round_trip(medic_model):
    doc = graph_to_dict(medic_model.graph)
    assert graph_from_dict(doc) == medic_model.graph


def test_near_normalized_rows_are_rescaled(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["D"] = [{"p": [0.7 + 2e-10, 0.3]}]
    model = model_from_dict(doc)
    row = model.cpts["D"].rows[()]
    assert sum(row) == pytest.approx(1.0, abs=1e-15)
    assert row[0] == pytest.approx(0.7, abs=1e-9)


def test_row_sum_beyond_tolerance_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["D"] = [{"p": [0.7, 0.29]}]
    with pytest.raises(FormatError, match=r"cpts\.D\[0\]\.p: row sums to 0\.99"):
        model_from_dict(doc)


def test_probability_out_of_range_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["D"] = [{"p": [1.2, -0.2]}]
    with pytest.raises(FormatError, match=r"cpts\.D\[0\]\.p\[0\]"):
        model_from_dict(doc)


def test_wrong_row_length_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["D"] = [{"p": [0.5, 0.4, 0.1]}]
    with pytest.raises(FormatError, match="3 entries for 2 states"):
        model_from_dict(doc)


def test_boolean_entries_are_not_numbers(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["D"] = [{"p": [True, False]}]
    with pytest.raises(FormatError, match="expected a number"):
        model_from_dict(doc)


def test_duplicate_parent_configuration_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["T"] = [
        {"given": {"D": "0"}, "p": [0.8, 0.2]},
        {"given": {"D": "0"}, "p": [0.1, 0.9]},
    ]
    with pytest.raises(FormatError, match="duplicate parent configuration"):
        model_from_dict(doc)


def test_given_must_name_exactly_the_parents(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["T"] = [
        {"given": {"D": "0", "Y": "0"}, "p": [0.8, 0.2]},
        {"given": {"D": "1"}, "p": [0.1, 0.9]},
    ]
    with pytest.raises(FormatError, match="expected exactly the parents of T"):
        model_from_dict(doc)


def test_missing_parent_configuration_is_listed(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["T"] = [{"given": {"D": "0"}, "p": [0.8, 0.2]}]
    with pytest.raises(FormatError, match=r"cpts\.T: missing parent configurations: \(1\)"):
        model_from_dict(doc)


def test_unknown_top_level_key_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    doc["extra"] = 1
    with pytest.raises(FormatError, match="unknown top-level keys"):
        model_from_dict(doc)


def test_missing_sections_are_rejected(medic_model):
    doc = medic_doc(medic_model)
    del doc["cpts"]
    with pytest.raises(FormatError, match="missing key 'cpts'"):
        model_from_dict(doc)
    with pytest.raises(FormatError, match="missing key 'variables'"):
        model_from_dict({"cpts": {}})
    with pytest.raises(FormatError, match="expected an object"):
        model_from_dict([1, 2, 3])


def test_table_for_undeclared_variable_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    doc["cpts"]["Q"] = [{"p": [0.5, 0.5]}]
    with pytest.raises(FormatError, match=r"cpts\.Q: table for an undeclared variable"):
        model_from_dict(doc)


def test_missing_table_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    del doc["cpts"]["Y"]
    with pytest.raises(FormatError, match="missing table for Y"):
        model_from_dict(doc)


def test_undeclared_parent_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    doc["parents"]["T"] = ["Q"]
    with pytest.raises(FormatError, match=r"parents\.T\[0\]: parent 'Q'"):
        model_from_dict(doc)


def test_parent_list_for_undeclared_variable_is_rejected(medic_model):
    doc = medic_doc(medic_model)
    doc["parents"]["Q"] = []
    with pytest.raises(FormatError, match=r"parents\.Q"):
        model_from_dict(doc)


def test_missing_parents_section_means_no_parents():
    model = model_from_dict(
        {
            "variables": [{"name": "A", "states": ["0", "1"]}],
            "cpts": {"A": [{"p": [0.5, 0.5]}]},
        }
    )
    assert model.graph.parents_of("A") == ()


def test_semantic_validation_still_runs_after_parsing():
    doc = {
        "variables": [
            {"name": "A", "states": ["0", "1"]},
            {"name": "B", "states": ["0", "1"]},
        ],
        "parents": {"A": ["B"], "B": ["A"]},
        "cpts": {
            "A": [
                {"given": {"B": "0"}, "p": [0.5, 0.5]},
                {"given": {"B": "1"}, "p": [0.5, 0.5]},
            ],
            "B": [
                {"given": {"A": "0"}, "p": [0.5, 0.5]},
                {"given": {"A": "1"}, "p": [0.5, 0.5]},
            ],
        },
    }
    with pytest.raises(InvalidModelError, match="cycle-detected") as caught:
        model_from_dict(doc)
    assert caught.value.doc == "$" and str(caught.value).startswith("$: cycle-detected at A, B: ")


def test_duplicate_variable_names_are_a_semantic_error():
    doc = {
        "variables": [
            {"name": "A", "states": ["0", "1"]},
            {"name": "A", "states": ["0", "1"]},
        ],
        "cpts": {"A": [{"p": [0.5, 0.5]}]},
    }
    with pytest.raises(InvalidModelError, match="duplicate-variable"):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["parents"].update(T=["D", "D"]), "duplicate-parent at T: parent list repeats a variable"),
        (lambda doc: doc["variables"][0].update(states=["0", "0"]), "duplicate-state at D: state labels must be unique"),
        (lambda doc: doc.update(parents={**doc["parents"], "T": ["D", "D"]}, cpts=[], bogus=1), "duplicate-parent at T: parent list repeats a variable"),
    ],
    ids=["parent", "state", "parent-and-keys"],
)
@pytest.mark.parametrize("loader", ["model", "beliefs"])
def test_a_graph_fault_is_reported_before_any_row(medic_model, loader, edit, message):
    # Without the graph check first, a row would fail on the repeated
    # parent or state, with an error no document could meet. The graph
    # checks itself as it is built, before the top-level keys and cpts are read.
    doc = model_to_dict(medic_model) if loader == "model" else beliefs_to_dict(init_uniform(medic_model.graph))
    edit(doc)
    load = {"model": lambda d: model_from_dict(d, doc="m.json"), "beliefs": beliefs_from_dict}[loader]
    with pytest.raises(InvalidModelError) as caught:
        load(doc)
    assert str(caught.value) == f"{'m.json' if loader == 'model' else '$'}: {message}"


def test_a_model_file_that_repeats_a_table_is_a_parse_error(medic_model, tmp_path):
    # A second table for D would replace the first without a word.
    text = json.dumps(medic_doc(medic_model)).replace('"cpts": {', '"cpts": {"D": [{"p": [0.5, 0.5]}], ', 1)
    bad = tmp_path / "m.json"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_model(str(bad))
    assert err.value.path == str(bad)
    assert str(err.value) == f"{bad}: parse-error: duplicate key 'D'"


def test_load_reports_unreadable_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(FormatError, match="parse-error") as err:
        load_model(str(missing))
    assert err.value.path == str(missing)
    assert str(err.value).startswith(str(missing))


def test_load_reports_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError, match="parse-error"):
        load_model(str(bad))


# Bytes that are not UTF-8, and nesting past the JSON parser's recursion limit.
UNPARSEABLE = {"not-utf-8": b'{"target": "\xff"}', "too-deep": b"[" * 100_000}


@pytest.mark.parametrize("content", UNPARSEABLE.values(), ids=UNPARSEABLE)
def test_load_reports_undecodable_and_too_deeply_nested_files(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    model = str(SAMPLE_DIR / "medic_model.json")
    loaders = [load_model, load_experiment_config, lambda path: load_environment(model, path)]
    for load in loaders:
        with pytest.raises(FormatError, match="parse-error") as err:
            load(str(bad))
        assert err.value.path == str(bad)


def test_load_rejects_non_object_document(tmp_path):
    doc = tmp_path / "list.json"
    doc.write_text(json.dumps([1, 2]), encoding="utf-8")
    with pytest.raises(FormatError, match="expected an object"):
        load_model(str(doc))
