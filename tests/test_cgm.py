"""Core model behavior: validation, exact inference, surgery, sampling."""

import itertools
import math
import random
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsim import (
    MAX_FACTOR_STATES,
    CausalGraph,
    CausalModel,
    Cpt,
    InvalidModelError,
    VariableSpec,
    intervene,
    interventional_marginal,
    interventional_query,
    joint_probability,
    joint_size,
    query,
    sample,
)
from causalsim import Action, Environment, load_model, model_from_dict
from causalsim.beliefs import init_uniform, posterior_mean, update
from causalsim import cgm

import oracle
import reference

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"


def _issue_codes(graph: CausalGraph, cpts: dict) -> list[str]:
    """The codes of the issues that refuse ``CausalModel(graph, cpts)``, in order."""
    with pytest.raises(InvalidModelError) as err:
        CausalModel(graph, cpts)
    return [i.code for i in err.value.issues]


def _graph_issues(variables: tuple[VariableSpec, ...], parents: dict) -> list:
    """The issues that refuse ``CausalGraph(variables, parents)``, in order."""
    with pytest.raises(InvalidModelError) as err:
        CausalGraph(variables, parents)
    return list(err.value.issues)


def test_a_valid_model_builds_from_its_own_rows(fair_pair_model):
    assert CausalModel(fair_pair_model.graph, fair_pair_model.cpts) == fair_pair_model


def test_building_a_model_reports_unnormalized_row():
    graph = CausalGraph((VariableSpec("A", ("0", "1")),), {"A": ()})
    with pytest.raises(InvalidModelError) as err:
        CausalModel(graph, {"A": Cpt("A", {(): (0.7, 0.2)})})
    assert [i.code for i in err.value.issues] == ["row-not-normalized"]
    assert "A" in err.value.issues[0].where


def test_every_row_of_a_wide_table_is_reported_in_row_order_in_linear_time():
    # 2^16 rows, each summing to 1.1: one issue per row, keyed by its parents'
    # states, rightmost varying fastest. Finding each issue's key by rebuilding
    # the row list, as the check once did, is quadratic: over a minute on a
    # 2-core machine, against under a second in row order.
    parents = tuple(f"P{i}" for i in range(16))
    graph = CausalGraph(tuple(VariableSpec(n, ("0", "1")) for n in (*parents, "C")), {"C": parents})
    configs = list(itertools.product("01", repeat=16))
    cpts = {**{p: Cpt(p, {(): (0.5, 0.5)}) for p in parents}, "C": Cpt("C", dict.fromkeys(configs, (0.55, 0.55)))}
    start = time.perf_counter()
    with pytest.raises(InvalidModelError) as err:
        CausalModel(graph, cpts)
    elapsed = time.perf_counter() - start
    keys = [f"C[{', '.join(f'P{i}={s}' for i, s in enumerate(config))}]" for config in configs]
    assert [(i.code, i.where, i.detail) for i in err.value.issues] == [("row-not-normalized", k, "row sums to 1.1") for k in keys]
    assert elapsed < 10.0, f"{elapsed:.1f} s to report {len(keys)} rows"


def _codes_on_unnormalized_rows(parents: dict) -> list[str]:
    """The codes that refuse a model over binary A and B on ``parents``,
    each variable given the rows of one parent, each row summing to 0.9."""
    rows = {("0",): (0.7, 0.2), ("1",): (0.7, 0.2)}
    with pytest.raises(InvalidModelError) as err:
        CausalModel(CausalGraph((VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))), parents), {n: Cpt(n, rows) for n in "AB"})
    return [i.code for i in err.value.issues]


def test_building_a_model_reports_cycle():
    # The graph is refused as it is built, so its rows are never read:
    # a two-cycle reports no row issue, as a self-loop does not.
    assert _codes_on_unnormalized_rows({"A": ("B",), "B": ("A",)}) == ["cycle-detected"]


def test_building_a_model_reports_self_loop_as_cycle():
    assert _codes_on_unnormalized_rows({"A": ("A",), "B": ("A",)}) == ["cycle-detected"]


def test_building_a_model_lists_every_problem_at_once():
    # The graph lists every issue of its own, and a model on a valid
    # graph every issue of its rows: those without a place, then the values.
    variables = (
        VariableSpec("A", ("0",)),  # too few states
        VariableSpec("B", ("0", "1")),
        VariableSpec("C", ("0", "1")),
    )
    parents = {"B": ("Z", "B"), "C": ("B",)}  # unknown parent, self-loop
    assert [i.code for i in _graph_issues(variables, parents)] == ["too-few-states", "unknown-parent", "cycle-detected"]
    graph = CausalGraph((VariableSpec("A", ("0", "1")), *variables[1:]), {"C": ("B",)})
    cpts = {
        "A": Cpt("A", {(): (0.5, 0.5)}),
        "B": Cpt("B", {(): (0.5, 0.5)}),
        "C": Cpt("C", {("0",): (0.6, 0.41)}),  # missing row + bad sum
    }
    assert _issue_codes(graph, cpts) == ["missing-cpt-row", "row-not-normalized"]


def test_building_a_model_checks_the_child_of_a_parent_without_states():
    # P's own issue refuses the graph, so no table of C is ever read.
    assert [i.code for i in _graph_issues((VariableSpec("P", ()), VariableSpec("C", ("0", "1"))), {"C": ("P",)})] == ["too-few-states"]


def test_building_a_model_reports_missing_table():
    graph = CausalGraph((VariableSpec("A", ("0", "1")),), {"A": ()})
    assert _issue_codes(graph, {}) == ["missing-cpt-table"]


def test_building_a_model_reports_missing_row_and_extras(medic_model):
    rows = dict(medic_model.cpts["Y"].rows)
    del rows[("0", "0")]
    rows[("0", "bogus")] = (0.5, 0.5)
    assert _issue_codes(medic_model.graph, {**medic_model.cpts, "Y": Cpt("Y", rows)}) == ["missing-cpt-row", "unexpected-cpt-row"]


def test_building_a_model_reports_what_the_loader_refuses_before_it():
    # model_io refuses each of these documents itself, so only a graph or
    # model built in code reaches these branches of the constructors' checks.
    variables = tuple(VariableSpec(n, ("0", "1")) for n in "ABC")
    assert [i.code for i in _graph_issues(variables, {"B": ("A", "A"), "Z": ("A",)})] == ["duplicate-parent", "unknown-variable"]
    tables = {"A": {(): (0.5, 0.3, 0.2)}, "B": {(): (0.5, 0.5)}, "C": {(): (1.5, -0.5)}, "Q": {}}
    assert _issue_codes(CausalGraph(variables, {}), {n: Cpt(n, rows) for n, rows in tables.items()}) == [
        "unexpected-cpt-table",
        "bad-row-length",
        "entry-out-of-range",
    ]


def test_building_an_invalid_model_raises_with_issue_list(medic_model):
    with pytest.raises(InvalidModelError) as err:
        CausalModel(medic_model.graph, {**medic_model.cpts, "D": Cpt("D", {(): (0.9, 0.2)})})
    assert err.value.issues
    assert "row-not-normalized" in str(err.value)


def test_a_query_never_runs_on_a_model_with_an_entry_out_of_range():
    # The model is refused as it is built, before a query could give a
    # negative probability or surgery could pass its tables to an Environment.
    graph = CausalGraph((VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))), {"B": ("A",)})
    cpts = {"A": Cpt("A", {(): (0.5, 0.5)}), "B": Cpt("B", {("0",): (0.5, 0.5), ("1",): (1.5, -0.5)})}
    with pytest.raises(InvalidModelError, match="entry-out-of-range at B\\[A=1\\]"):
        CausalModel(graph, cpts)


def test_topological_order_sorts_shuffled_declarations():
    rnd = random.Random(11)
    for _ in range(25):
        model = oracle.random_model(rnd)
        order = model.graph.topological_order
        position = {n: i for i, n in enumerate(order)}
        for v in model.graph.variables:
            for p in model.graph.parents_of(v.name):
                assert position[p] < position[v.name]


def _graph_with_faults(rnd: random.Random) -> tuple[tuple[VariableSpec, ...], dict[str, tuple[str, ...]]]:
    """The declarations of a random model's graph, often with an edge added
    against the topological order, a self-loop, a repeated or undeclared
    parent, or a variable declared twice."""
    graph = oracle.random_model(rnd, max_vars=8).graph
    variables, parents = list(graph.variables), {n: list(graph.parents_of(n)) for n in graph.names}
    order = graph.topological_order
    for _ in range(rnd.randint(0, 2)):
        fault = rnd.randrange(6)
        early, late = sorted(rnd.sample(range(len(order)), 2))
        if fault <= 2:  # a back edge: an earlier variable gets a later one as its parent
            parents[order[early]].append(order[late])
        elif fault == 3:
            parents[order[late]].append(order[late])
        elif fault == 4:
            parents[order[late]] += rnd.choice([[order[early]], ["Q"]])
        else:
            variables.insert(rnd.randrange(len(variables) + 1), rnd.choice(variables))
    return tuple(variables), {n: tuple(ps) for n, ps in parents.items()}


def test_topological_sort_gives_the_level_by_level_order_and_cycle_issue():
    # The sort fixes each variable's uniform column in every draw, so its
    # order must be the earlier level-by-level scan's; a graph is refused
    # with the issues the earlier graph check listed, cycles included.
    rnd, names, refused = random.Random(3000), [f"X{i}" for i in range(1024)], 0
    chain = tuple(VariableSpec(n, ("0", "1")) for n in names), {n: tuple(names[i - 1 : i]) for i, n in enumerate(names)}
    for variables, parents in [*(_graph_with_faults(rnd) for _ in range(600)), chain]:
        declared = reference.Declared(variables, parents)
        assert cgm._kahn_order(declared) == reference.kahn_order(declared)
        if issues := reference.validate_graph(declared):
            assert _graph_issues(variables, parents) == issues
            refused += 1
        else:
            assert list(CausalGraph(variables, parents).topological_order) == reference.kahn_order(declared)[0]
    assert 100 < refused < 500
    assert list(CausalGraph(*chain).topological_order) == names


def test_a_cycle_is_reported_with_its_variables_in_declaration_order(medic_model):
    assert [str(i) for i in _graph_issues(medic_model.graph.variables, {**medic_model.graph.parents, "D": ("Y",)})] == [
        "cycle-detected at D, T, Y: these variables lie on or depend on a directed cycle"
    ]


def test_a_graph_is_checked_once_however_often_it_is_asked(monkeypatch, medic_model):
    calls = []
    monkeypatch.setattr(cgm, "_checked_order", lambda graph, check=cgm._checked_order: calls.append(graph) or check(graph))
    graph = CausalGraph(medic_model.graph.variables, dict(medic_model.graph.parents))
    assert CausalModel(graph, medic_model.cpts) == CausalModel(graph, medic_model.cpts)
    init_uniform(graph)
    assert calls == [graph]


def test_one_kahn_pass_gives_a_graph_its_check_and_its_order(monkeypatch, medic_model):
    calls = []
    monkeypatch.setattr(cgm, "_kahn_order", lambda graph, sort=cgm._kahn_order: calls.append(graph) or sort(graph))
    graph = CausalGraph(medic_model.graph.variables, dict(medic_model.graph.parents))
    assert graph.topological_order == ("D", "T", "Y")
    assert len(graph._layout) == 3
    assert graph._plan_for({"T": "1"}, {}, ("Y",)).steps
    assert calls == [graph]


# joint probability


def test_joint_probability_chain(chain_model):
    assert joint_probability(chain_model, {"A": "1", "Y": "1"}) == pytest.approx(0.40)


def test_joint_probability_fair_pair(fair_pair_model):
    for a in "01":
        for b in "01":
            assert joint_probability(fair_pair_model, {"A": a, "B": b}) == pytest.approx(0.25)


def test_joint_probability_medic(medic_model):
    p = joint_probability(medic_model, {"D": "1", "T": "1", "Y": "1"})
    assert p == pytest.approx(0.216, abs=1e-12)


def test_joint_probability_rejects_partial(medic_model):
    with pytest.raises(ValueError, match="partial-assignment"):
        joint_probability(medic_model, {"D": "1", "T": "1"})


def test_joint_probability_rejects_unknown_and_illegal(medic_model):
    with pytest.raises(ValueError, match="unknown-variable"):
        joint_probability(medic_model, {"D": "1", "T": "1", "Y": "1", "Q": "0"})
    with pytest.raises(ValueError, match="illegal-state"):
        joint_probability(medic_model, {"D": "1", "T": "1", "Y": "2"})


def test_joint_sums_to_one_on_random_models():
    rnd = random.Random(5)
    for _ in range(20):
        model = oracle.random_model(rnd)
        total = sum(oracle.joint_table(model).values())
        assert total == pytest.approx(1.0, abs=1e-9)
        # and through the library's entry point as well
        states = [v.states for v in model.graph.variables]
        names = [v.name for v in model.graph.variables]
        lib_total = sum(
            joint_probability(model, dict(zip(names, combo)))
            for combo in itertools.product(*states)
        )
        assert lib_total == pytest.approx(1.0, abs=1e-9)


# conditional queries


def test_query_chain_conditional(chain_model):
    assert query(chain_model, {"Y": "1"}, {"A": "1"}) == pytest.approx(0.8)


def test_query_medic_observational(medic_model):
    assert query(medic_model, {"Y": "1"}, {"T": "0"}) == pytest.approx(0.6695, abs=1e-4)


def test_query_empty_evidence_is_marginal(chain_model):
    assert query(chain_model, {"Y": "1"}) == pytest.approx(0.5)


def test_query_rejects_zero_probability_evidence():
    model = model_from_dict(
        {
            "variables": [
                {"name": "A", "states": ["0", "1"]},
                {"name": "B", "states": ["0", "1"]},
            ],
            "parents": {"A": [], "B": []},
            "cpts": {"A": [{"p": [1.0, 0.0]}], "B": [{"p": [0.5, 0.5]}]},
        }
    )
    with pytest.raises(ValueError, match="zero-probability-evidence"):
        query(model, {"B": "0"}, {"A": "1"})


def test_query_rejects_target_evidence_overlap(medic_model):
    with pytest.raises(ValueError, match="overlapping-target-evidence"):
        query(medic_model, {"Y": "1"}, {"Y": "0", "T": "1"})


def test_query_rejects_empty_target(medic_model):
    with pytest.raises(ValueError, match="empty-target"):
        query(medic_model, {}, {"T": "1"})


def test_query_refuses_oversized_joint():
    # The cap bounds the largest factor a plan builds, not the joint: 21
    # independent roots (2^21 joint states) are answered, while the
    # 14 x 14 grid, whose CPTs have at most four rows, is refused because
    # its elimination needs a 2^21-state factor.
    n = 21
    variables = tuple(VariableSpec(f"X{i}", ("0", "1")) for i in range(n))
    graph = CausalGraph(variables, {v.name: () for v in variables})
    cpts = {v.name: Cpt(v.name, {(): (0.5, 0.5)}) for v in variables}
    model = CausalModel(graph, cpts)
    assert joint_size(model) == 2**21
    assert query(model, {"X0": "1"}) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="factor too large: eliminating G"):
        query(oracle.grid_model(14), {"G13_13": "1"})


def test_joint_probability_has_no_joint_size_cap():
    # joint_probability is no special case: a fully pinned plan builds
    # only scalars, so the one factor cap admits it on the 14 x 14 grid,
    # where the queries and the batched query are refused.
    model = oracle.grid_model(14)
    graph = model.graph
    assert joint_probability(model, {name: "1" for name in graph.names}) == pytest.approx(0.7**196, rel=1e-12)
    with pytest.raises(ValueError, match="factor too large"):
        interventional_marginal(model, {"G0_0": "1"}, "G13_13")
    with pytest.raises(ValueError, match="factor too large"):
        graph._plan_for({"G0_0": "1"}, {}, ("G13_13",))


def test_factor_cap_admits_a_factor_of_exactly_the_cap():
    # The 13 x 13 grid's corner marginal needs a factor of exactly
    # MAX_FACTOR_STATES states and is answered; the 14 x 14 grid's needs
    # twice that and is refused before its plan is cached. Every row is
    # (0.3, 0.7), so every marginal is (0.3, 0.7).
    model = oracle.grid_model(13)
    assert interventional_marginal(model, {}, "G12_12") == pytest.approx((0.3, 0.7), abs=1e-12)
    widest = max(len(sub.split("->...")[1]) for plan in model.graph._plans.values() for _, sub in plan.steps)
    assert 2**widest == MAX_FACTOR_STATES
    wider = oracle.grid_model(14)
    with pytest.raises(ValueError, match=f"builds {2 * MAX_FACTOR_STATES} states, over the cap of {MAX_FACTOR_STATES}"):
        query(wider, {"G13_13": "1"})
    assert all(isinstance(plan, str) for plan in wider.graph._plans.values())


def test_more_factors_than_einsum_takes_are_contracted_in_batches(chain64_model):
    # np.einsum takes at most 63 operands (31 on numpy 1.x). A full
    # assignment of the 64-chain multiplies 64 pinned factors, and a root
    # with 70 observed children has 71 factors to multiply or eliminate.
    codes = {name: "1" for name in chain64_model.graph.names}
    assert joint_probability(chain64_model, codes) == pytest.approx(0.5 * 0.8**63, rel=1e-12)
    children = [f"C{i}" for i in range(70)]
    variables = tuple(VariableSpec(name, ("0", "1")) for name in ["R", *children])
    row = {("0",): (0.6, 0.4), ("1",): (0.2, 0.8)}
    cpts = {"R": Cpt("R", {(): (0.5, 0.5)}), **{c: Cpt(c, row) for c in children}}
    star = CausalModel(CausalGraph(variables, {c: ("R",) for c in children}), cpts)
    evidence = {c: "1" for c in children[1:]}
    assert query(star, {"R": "1"}, evidence) == pytest.approx(0.8**69 / (0.8**69 + 0.4**69), rel=1e-12)
    want = (0.8**70 + 0.4**70) / (0.8**69 + 0.4**69)
    assert query(star, {"C0": "1"}, evidence) == pytest.approx(want, rel=1e-12)


def test_query_agrees_with_oracle_on_random_models():
    rnd = random.Random(31)
    for _ in range(30):
        model = oracle.random_model(rnd)
        names = [v.name for v in model.graph.variables]
        tname = rnd.choice(names)
        tstate = rnd.choice(model.graph.variable_map[tname].states)
        others = [n for n in names if n != tname]
        evidence = {}
        if others and rnd.random() < 0.7:
            ename = rnd.choice(others)
            evidence[ename] = rnd.choice(model.graph.variable_map[ename].states)
        got = query(model, {tname: tstate}, evidence)
        want = oracle.conditional(model, {tname: tstate}, evidence)
        assert got == pytest.approx(want, abs=1e-9)


# surgery


def test_intervene_on_root_replaces_only_that_table(chain_model):
    cut = intervene(chain_model, {"A": "1"})
    assert cut.cpts["A"].rows[()] == (0.0, 1.0)
    assert cut.graph.parents_of("A") == ()
    assert cut.tables[1] is chain_model.tables[1]


def test_intervene_medic_structure(medic_model):
    cut = intervene(medic_model, {"T": "1"})
    assert cut.graph.parents_of("T") == ()
    assert cut.cpts["T"].rows == {(): (0.0, 1.0)}
    assert cut.graph.parents_of("Y") == ("D", "T")
    assert cut.tables[2] is medic_model.tables[2]
    assert cut.tables[0] is medic_model.tables[0]


def test_intervene_leaves_input_untouched(medic_model):
    before = (dict(medic_model.graph.parents), {n: dict(c.rows) for n, c in medic_model.cpts.items()})
    intervene(medic_model, {"T": "1", "D": "0"})
    after = (dict(medic_model.graph.parents), {n: dict(c.rows) for n, c in medic_model.cpts.items()})
    assert before == after


def test_intervene_shares_the_compiled_tables_of_unforced_variables(chain_model):
    medic = load_model(str(SAMPLE_DIR / "medic_model.json"))
    for model, do in ((chain_model, {"A": "1"}), (medic, {"T": "1"}), (medic, {"T": "0", "D": "1"})):
        cut = intervene(model, do)
        forced = {model.graph._positions[name] for name in do}
        for pos in range(len(model.graph.variables)):
            if pos in forced:
                assert cut.tables[pos] is not model.tables[pos]
                assert cut.tables[pos].tolist() == list(cut.cpts[model.graph.names[pos]].rows[()])
            else:
                assert cut.tables[pos] is model.tables[pos]


def test_intervene_is_idempotent(medic_model):
    once = intervene(medic_model, {"T": "1"})
    twice = intervene(once, {"T": "1"})
    assert once == twice


def test_intervene_last_surgery_wins(medic_model):
    redone = intervene(intervene(medic_model, {"T": "0"}), {"T": "1"})
    assert redone == intervene(medic_model, {"T": "1"})


def test_intervene_rejects_bad_input(medic_model):
    with pytest.raises(ValueError, match="unknown-variable"):
        intervene(medic_model, {"Q": "1"})
    with pytest.raises(ValueError, match="illegal-state"):
        intervene(medic_model, {"T": "2"})
    with pytest.raises(ValueError, match="empty-intervention"):
        intervene(medic_model, {})


# interventional queries


def test_interventional_query_on_root_equals_conditioning(chain_model):
    assert interventional_query(chain_model, {"A": "1"}, {"Y": "1"}) == pytest.approx(0.8)
    assert interventional_query(chain_model, {"A": "1"}, {"Y": "1"}) == pytest.approx(
        query(chain_model, {"Y": "1"}, {"A": "1"})
    )


def test_interventional_query_medic_exact(medic_model):
    assert interventional_query(medic_model, {"T": "1"}, {"Y": "1"}) == pytest.approx(0.87, abs=1e-12)
    assert interventional_query(medic_model, {"T": "0"}, {"Y": "1"}) == pytest.approx(0.52, abs=1e-12)


def test_confounding_separates_doing_from_seeing(medic_model):
    seeing = query(medic_model, {"Y": "1"}, {"T": "0"})
    doing = interventional_query(medic_model, {"T": "0"}, {"Y": "1"})
    assert abs(seeing - doing) > 0.1


def test_intervening_on_a_non_ancestor_changes_nothing():
    model = model_from_dict(
        {
            "variables": [
                {"name": "A", "states": ["0", "1"]},
                {"name": "Y", "states": ["0", "1"]},
                {"name": "Z", "states": ["0", "1"]},
            ],
            "parents": {"A": [], "Y": ["A"], "Z": ["Y"]},
            "cpts": {
                "A": [{"p": [0.5, 0.5]}],
                "Y": [
                    {"given": {"A": "0"}, "p": [0.8, 0.2]},
                    {"given": {"A": "1"}, "p": [0.2, 0.8]},
                ],
                "Z": [
                    {"given": {"Y": "0"}, "p": [0.4, 0.6]},
                    {"given": {"Y": "1"}, "p": [0.9, 0.1]},
                ],
            },
        }
    )
    # Z is downstream of Y, so forcing it cannot move Y.
    assert interventional_query(model, {"Z": "1"}, {"Y": "1"}) == pytest.approx(
        query(model, {"Y": "1"}), abs=1e-12
    )


def test_non_ancestor_invariance_on_random_models():
    rnd = random.Random(77)
    checked = 0
    while checked < 15:
        model = oracle.random_model(rnd)
        names = [v.name for v in model.graph.variables]
        tname = rnd.choice(names)
        non_ancestors = [n for n in names if n != tname and n not in oracle.ancestors(model, tname)]
        if not non_ancestors:
            continue
        iname = rnd.choice(non_ancestors)
        istate = rnd.choice(model.graph.variable_map[iname].states)
        tstate = rnd.choice(model.graph.variable_map[tname].states)
        assert interventional_query(model, {iname: istate}, {tname: tstate}) == pytest.approx(
            query(model, {tname: tstate}), abs=1e-9
        )
        checked += 1


def test_interventional_query_rejects_intervened_target(medic_model):
    with pytest.raises(ValueError, match="target-is-intervened"):
        interventional_query(medic_model, {"T": "1"}, {"T": "1"})


def test_interventional_marginal_matches_query(medic_model):
    for t in "01":
        dist = interventional_marginal(medic_model, {"T": t}, "Y")
        for state, p in zip(("0", "1"), dist):
            assert p == pytest.approx(
                interventional_query(medic_model, {"T": t}, {"Y": state}), abs=1e-12
            )
    with pytest.raises(ValueError, match="target-is-intervened"):
        interventional_marginal(medic_model, {"T": "1"}, "T")


def test_interventional_marginal_empty_do_is_plain_marginal(chain_model):
    dist = interventional_marginal(chain_model, {}, "Y")
    assert dist == pytest.approx((0.5, 0.5))


# sampling


def test_sample_point_mass_model_is_deterministic():
    model = model_from_dict(
        {
            "variables": [
                {"name": "A", "states": ["0", "1"]},
                {"name": "B", "states": ["0", "1"]},
            ],
            "parents": {"A": [], "B": ["A"]},
            "cpts": {
                "A": [{"p": [0.0, 1.0]}],
                "B": [
                    {"given": {"A": "0"}, "p": [1.0, 0.0]},
                    {"given": {"A": "1"}, "p": [0.0, 1.0]},
                ],
            },
        }
    )
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert sample(model, rng) == {"A": "1", "B": "1"}


def test_sample_chain_long_run_frequency(chain_model):
    rng = np.random.default_rng(2024)
    hits = sum(sample(chain_model, rng)["Y"] == "1" for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(0.5, abs=0.01)


def test_sample_respects_surgery(medic_model):
    cut = intervene(medic_model, {"T": "1"})
    rng = np.random.default_rng(9)
    assert all(sample(cut, rng)["T"] == "1" for _ in range(200))


def test_sample_is_reproducible(medic_model):
    a = [sample(medic_model, np.random.default_rng(123)) for _ in range(10)]
    b = [sample(medic_model, np.random.default_rng(123)) for _ in range(10)]
    assert a == b


def test_sample_empirical_joint_matches_exact_joint(medic_model):
    rng = np.random.default_rng(777)
    n = 100_000
    counts: dict[tuple[str, str, str], int] = {}
    for _ in range(n):
        draw = sample(medic_model, rng)
        key = (draw["D"], draw["T"], draw["Y"])
        counts[key] = counts.get(key, 0) + 1
    worst = 0.0
    for combo, p in oracle.joint_table(medic_model).items():
        worst = max(worst, abs(counts.get(combo, 0) / n - p))
    assert worst <= 0.02


def test_sampler_visits_parents_first_even_when_declared_backwards():
    # Y declared before its parent A; ancestral order must still work.
    model = model_from_dict(
        {
            "variables": [
                {"name": "Y", "states": ["0", "1"]},
                {"name": "A", "states": ["0", "1"]},
            ],
            "parents": {"Y": ["A"], "A": []},
            "cpts": {
                "A": [{"p": [0.0, 1.0]}],
                "Y": [
                    {"given": {"A": "0"}, "p": [1.0, 0.0]},
                    {"given": {"A": "1"}, "p": [0.0, 1.0]},
                ],
            },
        }
    )
    assert sample(model, np.random.default_rng(0)) == {"A": "1", "Y": "1"}


def test_sample_falls_back_to_the_last_state_with_mass():
    # The row sums to 1 - 5e-10, within tolerance, so the model builds; a
    # draw above that sum must not land on the zero-mass last state.
    graph = CausalGraph((VariableSpec("A", ("x", "y", "z")),), {"A": ()})
    model = CausalModel(graph, {"A": Cpt("A", {(): (0.5, 0.4999999995, 0.0)})})

    class Draw:
        def random(self):
            return 0.9999999999

    assert sample(model, Draw()) == {"A": "y"}
    positive = CausalModel(graph, {"A": Cpt("A", {(): (0.5, 0.2499999995, 0.25)})})
    assert sample(positive, Draw()) == {"A": "z"}


# the compiled kernel against the brute-force oracle


@st.composite
def _models(draw) -> CausalModel:
    """Small valid models with 2-4 states per variable, rows that may
    hold zeros or be deterministic, declared in a shuffled order."""
    n = draw(st.integers(2, 5))
    names = [f"X{i}" for i in range(n)]
    cards = {v: draw(st.integers(2, 4)) for v in names}
    parents = {
        v: tuple(draw(st.lists(st.sampled_from(names[:i]), unique=True, max_size=3)) if i else ())
        for i, v in enumerate(names)
    }
    states = {v: tuple(f"s{j}" for j in range(cards[v])) for v in names}
    cpts = {}
    for v in names:
        rows = {}
        for config in itertools.product(*(states[p] for p in parents[v])):
            weights = draw(st.lists(st.integers(0, 3), min_size=cards[v], max_size=cards[v]))
            if sum(weights) == 0:
                weights[draw(st.integers(0, cards[v] - 1))] = 1
            rows[config] = tuple(w / sum(weights) for w in weights)
        cpts[v] = Cpt(v, rows)
    declared = draw(st.permutations(names))
    return CausalModel(CausalGraph(tuple(VariableSpec(v, states[v]) for v in declared), parents), cpts)


def _pick(draw, model: CausalModel, names: list[str]) -> dict[str, str]:
    return {n: draw(st.sampled_from(model.graph.variable_map[n].states)) for n in names}


@st.composite
def _split(draw, model: CausalModel) -> tuple[dict[str, str], dict[str, str]]:
    """Two disjoint assignments: a non-empty first one and a second one."""
    names = draw(st.permutations([v.name for v in model.graph.variables]))
    k = draw(st.integers(1, len(names) - 1))
    j = draw(st.integers(0, min(2, len(names) - k)))
    return _pick(draw, model, names[:k][:2]), _pick(draw, model, names[k : k + j])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_query_and_joint_match_the_oracle(data):
    model = data.draw(_models())
    target, evidence = data.draw(_split(model))
    table = oracle.joint_table(model)
    seen = oracle.mass(model, table, evidence)
    if seen == 0.0:
        with pytest.raises(ValueError, match="zero-probability-evidence"):
            query(model, target, evidence)
    else:
        assert query(model, target, evidence) == pytest.approx(oracle.conditional(model, target, evidence), abs=1e-9)
    full = _pick(data.draw, model, list(model.graph.names))
    names = [v.name for v in model.graph.variables]
    assert joint_probability(model, full) == pytest.approx(table[tuple(full[n] for n in names)], abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_interventions_match_the_oracle(data):
    model = data.draw(_models())
    target, forced = data.draw(_split(model))
    variable = next(iter(target))
    spec = model.graph.variable_map[variable]
    want = [oracle.do_probability(model, forced, {variable: s}) for s in spec.states]
    assert interventional_marginal(model, forced, variable) == pytest.approx(want, abs=1e-9)
    plain = [oracle.conditional(model, {variable: s}, {}) for s in spec.states]
    assert interventional_marginal(model, {}, variable) == pytest.approx(plain, abs=1e-9)
    if forced:
        want_joint = oracle.do_probability(model, forced, target)
        assert interventional_query(model, forced, target) == pytest.approx(want_joint, abs=1e-9)


def test_inference_cost_follows_width_not_joint_size(chain64_model):
    # A 64-variable binary chain: 2^64 joint states, treewidth one, so
    # no factor has more than four entries and the default cap admits it.
    model = chain64_model
    assert joint_size(model) == 2**64
    step = np.array([[0.9, 0.1], [0.2, 0.8]])
    want = np.linalg.matrix_power(step, 62)[1]
    got = interventional_marginal(model, {"X1": "1"}, "X63")
    assert got == pytest.approx(tuple(want), abs=1e-12)
    evidence = {"X63": "1"}
    posterior = query(model, {"X0": "1"}, evidence)
    prior = np.array([0.5, 0.5]) @ np.linalg.matrix_power(step, 63)
    assert posterior == pytest.approx(0.5 * np.linalg.matrix_power(step, 63)[1, 1] / prior[1], abs=1e-12)


def test_posterior_models_share_their_graphs_plan(medic_model):
    graph = CausalGraph(medic_model.graph.variables, dict(medic_model.graph.parents))
    beliefs = init_uniform(graph)
    for observed in ({"D": "0", "T": "1", "Y": "1"}, {"D": "1", "T": "1", "Y": "0"}):
        beliefs = update(beliefs, {"T": "1"}, observed)
        for t in "01":
            interventional_marginal(posterior_mean(beliefs), {"T": t}, "Y")
    # The batched query of the same shape runs the same plan.
    mean = posterior_mean(beliefs)
    plan = graph._plan_for({"T": "0"}, {}, ("Y",))
    plan.bind(graph, ({"T": "0"},), [mean.tables[pos][None] for pos in range(3)], np.empty((1, 2)), {})
    assert len(graph._plans) == 1


class _Uniforms:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batched_draw_matches_scalar_sampling_on_the_same_uniforms(data):
    # Zero entries and deterministic rows included, two or three actions
    # that force different sets of variables with up to four states, and
    # rows that mix the actions: each row's batched draw is what the
    # scalar sampler draws on that row's surgered truth for the same
    # uniforms, and neither ever picks a state of zero probability.
    model = data.draw(_models().filter(lambda m: len(m.graph.variables) >= 3))
    names = list(model.graph.names)
    target = data.draw(st.sampled_from(names))
    others = [n for n in names if n != target]
    subsets = st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True).map(frozenset)
    forced_sets = data.draw(st.lists(subsets, min_size=2, max_size=3, unique=True))
    actions = tuple(
        Action(f"a{i}", _pick(data.draw, model, [n for n in names if n in forced]))
        for i, forced in enumerate(forced_sets)
    )
    states = model.graph.variable_map[target].states
    env = Environment(model, actions, target, {s: float(i) for i, s in enumerate(states)})
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    u = rng.random((36, len(names)))
    # Rows 0-5 put each extreme uniform under every action.
    u[:3] = 0.0
    u[3:6] = 1.0 - 2.0**-53
    a = np.arange(len(u)) % len(actions)
    rng.shuffle(a[6:])
    x = reference.bound_draw(env, a, u)
    cuts = [intervene(model, action.intervention) for action in actions]
    for row, k, codes in zip(u, a, x):
        cut = cuts[k]
        by_name = dict(zip(model.graph.topological_order, row))
        got = sample(cut, _Uniforms([by_name[n] for n in cut.graph.topological_order]))
        assert got == {v.name: v.states[c] for v, c in zip(model.graph.variables, codes)}
        assert joint_probability(cut, got) > 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_replicated_query_matches_interventional_marginal(data):
    model = data.draw(_models())
    target, forced = data.draw(_split(model))
    variable = next(iter(target))
    flat = posterior_mean(init_uniform(model.graph))
    models = (model, flat, model)
    positions = range(len(model.graph.variables))
    tables = [np.stack([m.tables[pos] for m in models]) for pos in positions]
    mass = np.empty((len(models), len(model.graph.variable_map[variable].states)))
    plan, buffers = model.graph._plan_for(forced, {}, (variable,)), {}
    for f, args in plan.bind(model.graph, (forced,), tables, mass, buffers):
        f(*args)
    for got, m in zip(mass, models):
        assert tuple(got / got.sum()) == pytest.approx(interventional_marginal(m, forced, variable), abs=1e-12)
    # Each step builds the shape its plan records, and each bound buffer
    # keeps the replication axis fastest in memory.
    built, einsum = [], cgm._einsum
    with mock.patch.object(cgm, "_einsum", lambda *args: built.append(einsum(*args)) or built[-1]):
        plan.run(plan.operands(model.graph, (forced,), model.tables.__getitem__))
    assert [b.shape for b in built] == list(plan.shapes)
    assert all(b.strides[0] == b.itemsize for b in buffers.values())


@pytest.mark.parametrize(
    "forced, evidence, targets",
    [({"T": "1"}, {}, ("D", "Y")), ({"T": "1"}, {"D": "0"}, ("Y",)), ({}, {"Y": "1"}, ("T", "D"))],
)
def test_a_bound_plan_gives_each_replication_the_bits_of_its_own_run(medic_model, monkeypatch, forced, evidence, targets):
    # Five replications' tables, with the cap lowered so that the bound
    # calls run in row slices of two: each replication's mass, over
    # every target, is the plan run on its own tables alone.
    graph, rng = medic_model.graph, np.random.default_rng(5)
    plan = graph._plan_for(forced, evidence, targets)
    tables = [rng.dirichlet(np.ones(shape[-1]), (5, *shape[:-1])) for _, _, shape, _ in graph._layout]
    out = np.empty((5, *(len(graph.variable_map[t].states) for t in targets)))
    monkeypatch.setattr(cgm, "MAX_FACTOR_STATES", 2 * max(map(math.prod, plan.shapes)))
    calls = plan.bind(graph, (forced, evidence), tables, out, {})
    assert len(calls) == 3 * len(plan.steps)
    for f, args in calls:
        f(*args)
    for i in range(5):
        want = plan.run(plan.operands(graph, (forced, evidence), lambda pos: tables[pos][i]))
        assert out[i].tobytes() == want.tobytes()


def test_min_fill_keeps_the_plans_of_a_full_search_at_every_step(chain64_model, monkeypatch):
    # Updating only the costs an elimination changes must choose the
    # same variable at every step as searching all of them again, so
    # every plan keeps its steps: on the 13 x 13 grid, whose widest
    # factor is the cap, on the 64-variable chain, and on 50 random
    # models with an intervention, evidence, or both.
    grid = oracle.grid_model(13).graph
    shapes = [(grid, {}, {}, ("G12_12",)), (grid, {"G0_0"}, {}, ("G12_12",)), (chain64_model.graph, {"X62"}, {}, ("X63",))]
    shapes.append((chain64_model.graph, {"X1"}, {"X40"}, ("X63", "X0")))
    rnd = random.Random(50)
    for _ in range(50):
        model = oracle.random_model(rnd, max_vars=7)
        names = rnd.sample(model.graph.names, len(model.graph.names))
        k = rnd.randint(0, len(names) - 1)
        j = rnd.randint(k, len(names) - 1)
        shapes.append((model.graph, set(names[:k]), set(names[k:j]), tuple(names[j:])))
    for graph, forced, evidence, targets in shapes:
        key = (frozenset(forced), frozenset(evidence), targets)
        fast = cgm._plan(graph, *key)
        with monkeypatch.context() as patch:
            patch.setattr(cgm, "_min_fill", reference.min_fill_order)
            assert cgm._plan(graph, *key).steps == fast.steps


def test_a_refused_query_shape_is_not_searched_again(monkeypatch):
    model = oracle.grid_model(14)
    with pytest.raises(ValueError, match="factor too large") as first:
        query(model, {"G13_13": "1"})
    calls = []
    monkeypatch.setattr(cgm, "_min_fill", lambda *args: calls.append(args) or iter(()))
    with pytest.raises(ValueError, match="factor too large") as again:
        query(model, {"G13_13": "1"})
    assert str(again.value) == str(first.value)
    assert calls == []
