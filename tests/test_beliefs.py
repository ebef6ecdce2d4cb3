"""Dirichlet pseudo-count bookkeeping and its posterior-mean model."""

import random

import numpy as np
import pytest

from causalsim import (
    CausalGraph,
    FormatError,
    InvalidModelError,
    VariableSpec,
    beliefs_from_dict,
    beliefs_to_dict,
    init_uniform,
    intervene,
    posterior_mean,
    sample,
    update,
)
from causalsim.beliefs import CountBeliefs
from causalsim.environment import draw

import oracle
import reference


def total_pseudo_count(beliefs):
    """Sum of every pseudo-count; grows by (variables - forced) per update."""
    return sum(sum(row) for rows in beliefs.counts.values() for row in rows.values())


def test_init_uniform_covers_every_row(medic_model):
    b = init_uniform(medic_model.graph)
    assert set(b.counts) == {"D", "T", "Y"}
    assert b.counts["D"] == {(): (1.0, 1.0)}
    assert set(b.counts["Y"]) == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
    assert all(row == (1.0, 1.0) for row in b.counts["Y"].values())
    assert total_pseudo_count(b) == 2 + 4 + 8


def test_init_uniform_respects_alpha(medic_model):
    b = init_uniform(medic_model.graph, alpha0=0.5)
    assert b.counts["T"][("0",)] == (0.5, 0.5)


def test_init_uniform_rejects_bad_input(medic_model):
    with pytest.raises(ValueError, match="nonpositive-alpha"):
        init_uniform(medic_model.graph, alpha0=0.0)
    loop = CausalGraph((VariableSpec("A", ("0", "1")),), {"A": ("A",)})
    with pytest.raises(InvalidModelError, match="cycle-detected"):
        init_uniform(loop)


def test_posterior_mean_of_uniform_prior_is_uniform(medic_model):
    model = posterior_mean(init_uniform(medic_model.graph))
    assert model.cpts["D"].rows[()] == (0.5, 0.5)
    assert model.cpts["Y"].rows[("1", "0")] == (0.5, 0.5)


def test_update_moves_one_count_per_free_variable(medic_model):
    b0 = init_uniform(medic_model.graph)
    b1 = update(b0, {"T": "1"}, {"D": "1", "T": "1", "Y": "1"})
    # T was forced, so its rows are untouched
    assert b1.counts["T"] == b0.counts["T"]
    # D has no parents: its single row gains one count on state 1
    assert b1.counts["D"][()] == (1.0, 2.0)
    # Y's row under the observed parent configuration gains one count
    assert b1.counts["Y"][("1", "1")] == (1.0, 2.0)
    assert b1.counts["Y"][("0", "0")] == (1.0, 1.0)
    assert total_pseudo_count(b1) == total_pseudo_count(b0) + 2


def test_update_returns_fresh_state(medic_model):
    b0 = init_uniform(medic_model.graph)
    before = {n: dict(rows) for n, rows in b0.counts.items()}
    update(b0, {"T": "0"}, {"D": "0", "T": "0", "Y": "1"})
    assert {n: dict(rows) for n, rows in b0.counts.items()} == before


def test_update_posterior_mean_shifts_toward_observation(medic_model):
    b = init_uniform(medic_model.graph)
    for _ in range(8):
        b = update(b, {"T": "1"}, {"D": "0", "T": "1", "Y": "1"})
    model = posterior_mean(b)
    assert model.cpts["Y"].rows[("0", "1")] == pytest.approx((1 / 10, 9 / 10))
    assert model.cpts["D"].rows[()] == pytest.approx((9 / 10, 1 / 10))


def test_update_rejects_bad_input(medic_model):
    b = init_uniform(medic_model.graph)
    full = {"D": "0", "T": "1", "Y": "0"}
    with pytest.raises(ValueError, match="empty-intervention"):
        update(b, {}, full)
    with pytest.raises(ValueError, match="unknown-variable"):
        update(b, {"Q": "1"}, full)
    with pytest.raises(ValueError, match="illegal-state"):
        update(b, {"T": "2"}, full)
    with pytest.raises(ValueError, match="partial-observation"):
        update(b, {"T": "1"}, {"T": "1", "Y": "0"})
    with pytest.raises(ValueError, match="unknown-variable"):
        update(b, {"T": "1"}, {**full, "Q": "0"})
    with pytest.raises(ValueError, match="inconsistent-with-intervention"):
        update(b, {"T": "0"}, {"D": "0", "T": "1", "Y": "0"})


def test_failed_update_leaves_beliefs_intact(medic_model):
    b = init_uniform(medic_model.graph)
    before = {n: dict(rows) for n, rows in b.counts.items()}
    with pytest.raises(ValueError):
        update(b, {"T": "0"}, {"D": "0", "T": "1", "Y": "0"})
    assert {n: dict(rows) for n, rows in b.counts.items()} == before


def test_total_pseudo_count_growth_is_variables_minus_forced(medic_model):
    b = init_uniform(medic_model.graph)
    start = total_pseudo_count(b)
    rng = np.random.default_rng(4)
    cut = intervene(medic_model, {"T": "1"})
    for k in range(1, 30):
        b = update(b, {"T": "1"}, sample(cut, rng))
        assert total_pseudo_count(b) == start + 2 * k


def test_repeated_updates_concentrate_on_the_truth(medic_model):
    # Alternate both interventions so every updatable row gets visits.
    rng = np.random.default_rng(100)
    b = init_uniform(medic_model.graph)
    cuts = {t: intervene(medic_model, {"T": t}) for t in "01"}
    for k in range(4000):
        t = "01"[k % 2]
        b = update(b, {"T": t}, sample(cuts[t], rng))
    learned = posterior_mean(b)
    assert learned.cpts["D"].rows[()][1] == pytest.approx(0.3, abs=0.05)
    for config, row in medic_model.cpts["Y"].rows.items():
        assert learned.cpts["Y"].rows[config][1] == pytest.approx(row[1], abs=0.06)
    # T was always forced: still exactly the prior
    assert all(row == (1.0, 1.0) for row in b.counts["T"].values())


def test_beliefs_round_trip_through_document_form(medic_model):
    b = init_uniform(medic_model.graph, alpha0=2.0)
    b = update(b, {"T": "1"}, {"D": "1", "T": "1", "Y": "0"})
    doc = beliefs_to_dict(b)
    assert doc["cpts"]["D"] == [{"counts": [2.0, 3.0]}]
    restored = beliefs_from_dict(doc)
    assert restored == b


def test_beliefs_from_dict_rejects_nonpositive_counts(medic_model):
    doc = beliefs_to_dict(init_uniform(medic_model.graph))
    doc["cpts"]["D"] = [{"counts": [0.0, 2.0]}]
    with pytest.raises(FormatError, match="pseudo-counts must be positive"):
        beliefs_from_dict(doc)


@pytest.mark.parametrize("alpha0", [float("inf"), float("nan")])
def test_non_finite_prior_weights_are_refused(medic_model, alpha0):
    # An infinite weight would make every posterior row inf / inf = nan.
    with pytest.raises(ValueError, match="nonpositive-alpha"):
        init_uniform(medic_model.graph, alpha0=alpha0)
    with pytest.raises(ValueError, match="nonpositive-alpha"):
        CountBeliefs(medic_model.graph, alpha0, 3)


def test_a_prior_whose_row_sum_overflows_is_refused(medic_model):
    # Each pseudo-count is finite, but a row of two sums to inf, so the
    # posterior mean would be all zeros on the dict path and nan in arrays.
    with pytest.raises(ValueError, match="infinite-row-sum: 2 pseudo-counts of 1e[+]308"):
        init_uniform(medic_model.graph, alpha0=1e308)
    with pytest.raises(ValueError, match="infinite-row-sum"):
        CountBeliefs(medic_model.graph, 1e308, 3)
    # Just under the limit the rows still normalize.
    model = posterior_mean(init_uniform(medic_model.graph, alpha0=8e307))
    assert model.cpts["Y"].rows[("0", "0")] == (0.5, 0.5)
    means = CountBeliefs(medic_model.graph, 8e307, 3, scored=(0, 1, 2)).posterior()
    assert all(np.all(m == 0.5) for m in means)


def test_beliefs_from_dict_rejects_infinite_counts(medic_model):
    doc = beliefs_to_dict(init_uniform(medic_model.graph))
    doc["cpts"]["D"] = [{"counts": [float("inf"), 1.0]}]
    with pytest.raises(FormatError, match="pseudo-counts must be positive and finite") as caught:
        beliefs_from_dict(doc)
    assert caught.value.path == "cpts.D"


def test_beliefs_from_dict_rejects_rows_whose_sum_overflows(medic_model):
    # Each entry is finite, but the posterior mean would divide by inf.
    doc = beliefs_to_dict(init_uniform(medic_model.graph))
    doc["cpts"]["D"] = [{"counts": [1e308, 1e308]}]
    with pytest.raises(FormatError, match="finite sum") as caught:
        beliefs_from_dict(doc)
    assert caught.value.path == "cpts.D"


def test_beliefs_from_dict_rejects_missing_rows(medic_model):
    doc = beliefs_to_dict(init_uniform(medic_model.graph))
    del doc["cpts"]["Y"]
    with pytest.raises(FormatError, match="missing table for Y"):
        beliefs_from_dict(doc)


def test_beliefs_from_dict_rejects_unknown_top_level_keys(medic_model):
    doc = beliefs_to_dict(init_uniform(medic_model.graph))
    doc["bogus"] = 1
    with pytest.raises(FormatError, match="unknown top-level keys") as caught:
        beliefs_from_dict(doc)
    assert caught.value.path == "$"


def test_posterior_mean_rows_normalize_on_random_graphs():
    rnd = random.Random(9)
    for _ in range(10):
        model = oracle.random_model(rnd)
        b = init_uniform(model.graph, alpha0=rnd.uniform(0.2, 3.0))
        mean = posterior_mean(b)
        for cpt in mean.cpts.values():
            for row in cpt.rows.values():
                assert sum(row) == pytest.approx(1.0, abs=1e-12)
                assert len(set(row)) == 1  # symmetric prior stays uniform


@pytest.mark.parametrize("n", [1, 300])
def test_flat_count_update_matches_the_per_variable_increment(n):
    # Outcomes drawn under actions that force one or two variables, on
    # models with 2-4 states and zero-mass entries: the shared buffers
    # hold exactly the counts of one array per variable, whichever
    # variables lead them, and the scored ones' posterior means are
    # exactly the row-normalized counts.
    rnd, rng = random.Random(70 + n), np.random.default_rng(70 + n)
    for _ in range(40):
        env, free = reference.sparse_environment(rnd)
        graph = env.truth.graph
        scored = sorted(rnd.sample(range(len(graph.variables)), rnd.randint(0, len(graph.variables))))
        alpha = rnd.choice((0.5, 1.0, 2.0))
        beliefs, counts = CountBeliefs(graph, alpha, n, scored), reference.count_arrays(graph, alpha, n)
        for _ in range(4):
            a = rng.integers(len(env.actions), size=n)
            x = draw(env, a, rng.random((n, len(graph.variables))))
            beliefs.update(x, free[a])
            reference.update_counts(counts, graph, x, free[a])
        means = beliefs.posterior()
        for pos, want in enumerate(counts):
            assert np.array_equal(beliefs.counts[pos], want)
            if pos in scored:
                assert np.array_equal(means[pos], want / want.sum(axis=-1, keepdims=True))
            else:
                assert means[pos] is None


def _chain_of_cardinalities(cards):
    # One variable per cardinality, each the parent of the next.
    names = [f"V{i}" for i in range(len(cards))]
    specs = tuple(VariableSpec(v, tuple(map(str, range(c)))) for v, c in zip(names, cards))
    return CausalGraph(specs, {v: tuple(names[i - 1 : i]) for i, v in enumerate(names)})


def _random_counts(beliefs, rng):
    # Positive counts, each row at its own scale.
    for counts in beliefs.counts:
        scale = 10.0 ** rng.integers(-6, 7, size=(*counts.shape[:-1], 1))
        counts[...] = (rng.random(counts.shape) + 1e-3) * scale


@pytest.mark.parametrize("n", [1, 4, 256])
def test_posterior_by_state_columns_has_the_bits_of_the_row_sum(n):
    # Every cardinality from 2 to 7: summing the state columns in order
    # is numpy's own sum over so short an axis.
    rng = np.random.default_rng(n)
    graph = _chain_of_cardinalities(range(2, 8))
    beliefs = CountBeliefs(graph, 1.0, n, list(range(len(graph.variables))))
    for _ in range(10):
        _random_counts(beliefs, rng)
        for counts, means in zip(beliefs.counts, beliefs.posterior()):
            assert np.array_equal(means, reference.posterior(counts))


def test_posterior_over_eight_states_agrees_to_rounding():
    # numpy sums 8 or more entries pairwise, so here the last bits may
    # differ from the in-order sum: by at most 1e-15, relative.
    rng = np.random.default_rng(88)
    beliefs = CountBeliefs(_chain_of_cardinalities((8, 8)), 1.0, 256, [0, 1])
    _random_counts(beliefs, rng)
    for counts, means in zip(beliefs.counts, beliefs.posterior()):
        np.testing.assert_allclose(means, reference.posterior(counts), rtol=1e-15, atol=0.0)
