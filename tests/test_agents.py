"""Decision policies: expected utility, greedy choice, Q-learning, random."""

import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsim import (
    Action,
    BeliefState,
    CausalAgentConfig,
    Environment,
    QLearningConfig,
    RandomConfig,
    best_action,
    causal_choose,
    causal_learn,
    expected_utility,
    init_uniform,
    posterior_mean,
    q_choose,
    q_learn,
    random_choose,
    update,
)
from causalsim import cgm
from causalsim.agents import CausalBatch, QBatch, _expected_utilities
from causalsim.beliefs import CountBeliefs
from causalsim.experiment import CHOICE_DRAWS, _exploration

import oracle
import reference

WIN = {"0": 0.0, "1": 1.0}
NO_TREATMENT = Action("no-treatment", {"T": "0"})
TREATMENT = Action("treatment", {"T": "1"})


def test_action_requires_label_and_intervention():
    with pytest.raises(ValueError, match="non-empty label"):
        Action("", {"T": "1"})
    with pytest.raises(ValueError, match="empty-intervention"):
        Action("idle", {})


def test_expected_utility_on_the_truth(medic_model):
    assert expected_utility(medic_model, TREATMENT, "Y", WIN) == pytest.approx(0.87, abs=1e-12)
    assert expected_utility(medic_model, NO_TREATMENT, "Y", WIN) == pytest.approx(0.52, abs=1e-12)


def test_expected_utility_of_constant_utility_is_that_constant(medic_model):
    flat = {"0": 2.5, "1": 2.5}
    assert expected_utility(medic_model, TREATMENT, "Y", flat) == pytest.approx(2.5, abs=1e-12)


def test_expected_utility_input_checks(medic_model):
    with pytest.raises(ValueError, match="target-is-intervened"):
        expected_utility(medic_model, Action("push", {"Y": "1"}), "Y", WIN)
    with pytest.raises(ValueError, match="unknown-variable"):
        expected_utility(medic_model, TREATMENT, "Q", WIN)
    with pytest.raises(ValueError, match="does not cover"):
        expected_utility(medic_model, TREATMENT, "Y", {"1": 1.0})
    with pytest.raises(ValueError, match="must be finite"):
        expected_utility(medic_model, TREATMENT, "Y", {"0": 0.0, "1": float("inf")})


def test_a_utility_key_that_is_not_a_target_state_is_refused(medic_model):
    extra = {"0": 0.0, "1": 1.0, "2": 7.0}
    message = "illegal-state: utility key '2' is not a state of Y"
    with pytest.raises(ValueError, match=message):
        expected_utility(medic_model, TREATMENT, "Y", extra)
    with pytest.raises(ValueError, match=message):
        Environment(medic_model, (NO_TREATMENT, TREATMENT), "Y", extra)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.1, 10.0), shift=st.floats(-5.0, 5.0))
def test_affine_utility_change_never_flips_the_ranking(medic_env, scale, shift):
    model = medic_env.truth
    base = [expected_utility(model, a, "Y", WIN) for a in medic_env.actions]
    moved = {s: scale * u + shift for s, u in WIN.items()}
    transformed = [expected_utility(model, a, "Y", moved) for a in medic_env.actions]
    for eu, t in zip(base, transformed):
        assert t == pytest.approx(scale * eu + shift, abs=1e-9)


def test_best_action_on_the_truth_is_treatment(medic_model):
    assert best_action(medic_model, (NO_TREATMENT, TREATMENT), "Y", WIN) == 1


def test_best_action_breaks_ties_low(medic_model):
    flat = {"0": 1.0, "1": 1.0}
    assert best_action(medic_model, (NO_TREATMENT, TREATMENT), "Y", flat) == 0
    with pytest.raises(ValueError, match="empty-action-set"):
        best_action(medic_model, (), "Y", WIN)


def test_best_action_matches_oracle_on_random_problems():
    rnd = random.Random(202)
    for _ in range(25):
        model, target, interventions = oracle.random_decision_problem(rnd)
        states = model.graph.variable_map[target].states
        actions = tuple(Action(f"a{i}", iv) for i, iv in enumerate(interventions))
        utility = {states[0]: 0.0, states[1]: 1.0}
        scores = [oracle.do_probability(model, iv, {target: states[1]}) for iv in interventions]
        want = max(range(len(scores)), key=lambda i: (scores[i], -i))
        got = best_action(model, actions, target, utility)
        assert scores[got] == pytest.approx(scores[want], abs=1e-9)


def test_causal_choose_under_uniform_prior_takes_index_zero(medic_env):
    # Both arms look identical a priori; the tie goes low.
    assert causal_choose(medic_env, init_uniform(medic_env.truth.graph)) == 0


def test_causal_choose_with_the_truth_takes_treatment(medic_env):
    # Pour many decisive observations in so the posterior mean tracks truth.
    b = init_uniform(medic_env.truth.graph)
    for _ in range(200):
        b = update(b, {"T": "1"}, {"D": "0", "T": "1", "Y": "1"})
        b = update(b, {"T": "0"}, {"D": "0", "T": "0", "Y": "0"})
    assert causal_choose(medic_env, b) == 1


def test_causal_choose_is_pure(medic_env):
    beliefs = init_uniform(medic_env.truth.graph)
    first = causal_choose(medic_env, beliefs)
    assert all(causal_choose(medic_env, beliefs) == first for _ in range(5))


def test_causal_learn_returns_new_state_and_checks_action(medic_env):
    beliefs = init_uniform(medic_env.truth.graph)
    out = causal_learn(medic_env, beliefs, TREATMENT, {"D": "1", "T": "1", "Y": "1"})
    assert out is not beliefs
    assert out.counts["D"][()] == (1.0, 2.0)
    assert beliefs.counts["D"][()] == (1.0, 1.0)
    with pytest.raises(ValueError, match="unknown-action"):
        causal_learn(medic_env, beliefs, Action("other", {"D": "1"}), {"D": "1", "T": "1", "Y": "1"})


def test_q_choose_greedy_when_epsilon_zero():
    cfg = QLearningConfig(epsilon=0.0)
    rng = np.random.default_rng(0)
    assert all(q_choose(cfg, (0.2, 0.9, 0.4), rng) == 1 for _ in range(20))
    # and the stream is untouched in pure-greedy mode
    assert np.random.default_rng(0).random() == rng.random()


def test_q_choose_tie_goes_to_lowest_index():
    assert q_choose(QLearningConfig(epsilon=0.0), (0.5, 0.5), np.random.default_rng(1)) == 0


def test_q_choose_explores_uniformly_when_epsilon_one():
    cfg = QLearningConfig(epsilon=1.0)
    rng = np.random.default_rng(11)
    draws = [q_choose(cfg, (5.0, 0.0, 0.0), rng) for _ in range(10_000)]
    for i in range(3):
        assert draws.count(i) / 10_000 == pytest.approx(1 / 3, abs=0.02)


def test_q_learn_single_step():
    q = [0.0, 0.0]
    out = q_learn(QLearningConfig(alpha=0.1), q, 0, 1.0)
    assert out == (0.1, 0.0)
    assert q == [0.0, 0.0]


def test_q_learn_fixed_point():
    assert q_learn(QLearningConfig(alpha=0.3), (0.7,), 0, 0.7)[0] == pytest.approx(0.7)


def test_q_learn_converges_to_constant_reward():
    cfg, q = QLearningConfig(alpha=0.2), (0.0,)
    for _ in range(200):
        q = q_learn(cfg, q, 0, 1.0)
    assert q[0] == pytest.approx(1.0, abs=1e-9)


def test_q_learn_rejects_bad_index():
    cfg = QLearningConfig()
    with pytest.raises(IndexError, match="bad-index"):
        q_learn(cfg, (0.0,), 2, 1.0)
    with pytest.raises(IndexError, match="bad-index"):
        q_learn(cfg, (0.0,), -1, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    rewards=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=40),
    alpha=st.floats(0.05, 1.0),
)
def test_q_estimate_stays_inside_reward_hull(rewards, alpha):
    cfg, q = QLearningConfig(alpha=alpha), (rewards[0],)
    for r in rewards:
        q = q_learn(cfg, q, 0, r)
    assert min(rewards) - 1e-9 <= q[0] <= max(rewards) + 1e-9


def test_random_choose_is_uniform_and_seeded():
    actions = (NO_TREATMENT, TREATMENT)
    rng = np.random.default_rng(21)
    draws = [random_choose(actions, rng) for _ in range(10_000)]
    assert draws.count(1) / 10_000 == pytest.approx(0.5, abs=0.02)
    again = np.random.default_rng(21)
    assert [random_choose(actions, again) for _ in range(100)] == draws[:100]
    with pytest.raises(ValueError, match="empty-action-set"):
        random_choose((), rng)


def test_posterior_mean_feeds_choice_like_a_real_model(medic_model):
    # A belief state whose posterior mean is exactly the truth chooses
    # exactly like the truth does.
    b = init_uniform(medic_model.graph)
    actions = (NO_TREATMENT, TREATMENT)
    truth_choice = best_action(medic_model, actions, "Y", WIN)
    mean_choice = best_action(posterior_mean(b), actions, "Y", WIN)
    assert truth_choice == 1 and mean_choice == 0  # prior hides the gap


# batched policies against the scalar functions


def _count_arrays(beliefs):
    """The dict-based pseudo-counts as one array per CPT, in table layout."""
    return [
        np.array([beliefs.counts[name][c] for c in configs]).reshape(shape)
        for name, (_, _, shape, configs) in zip(beliefs.graph.names, beliefs.graph._layout)
    ]


def _realized(graph, codes):
    return {v.name: v.states[c] for v, c in zip(graph.variables, codes)}


def _built(cls, env, cfg, n, width=3):
    """A ``cls`` policy built on fresh rows of its own, and those rows: (n,)
    actions, (n, width) outcomes (medic's three variables by default) and (n,) rewards."""
    rows = np.zeros(n, np.intp), np.zeros((n, width), np.intp), np.zeros(n)
    return cls(env, cfg, *rows), rows


def _greedy(policy, rows):
    """The policy's greedy actions, as written into the action rows it was built on."""
    policy.greedy()
    return rows[0].copy()


def _learn(policy, rows, actions, x, rewards):
    """Fold in the outcomes ``x`` of ``actions`` and their ``rewards``, written into the rows the policy was built on."""
    for row, value in zip(rows, (actions, x, rewards)):
        row[...] = value
    policy.learn()


def _on_shared_rows(env, kinds, n, agents):
    """One policy per (class, config) of ``kinds``, built as the engine builds
    a block's roster: on consecutive n-row slices of one shared action,
    (medic-wide) outcome and reward buffer with a slice for each of
    ``agents`` agents, those after ``kinds`` with no policy; and those buffers."""
    a, x, r = np.zeros(agents * n, np.intp), np.zeros((agents * n, 3), np.intp), np.zeros(agents * n)
    policies = [cls(env, cfg, *(rows[i * n : (i + 1) * n] for rows in (a, x, r))) for i, (cls, cfg) in enumerate(kinds)]
    return policies, (a, x, r)


def _eu(mass, payoff):
    """The expected utilities of ``mass``, (..., states), made once into a fresh buffer."""
    out = np.empty(mass.shape[:-1])
    for f, args in _expected_utilities(list(np.moveaxis(mass, -1, 0)), payoff, out):
        f(*args)
    return out


def test_batched_causal_agent_matches_causal_choose_and_causal_learn():
    # Same counts, same argmax, exact ties included: uniform priors tie
    # every action, and the repeated last intervention ties with itself.
    rnd = random.Random(404)
    rng = np.random.default_rng(404)
    for _ in range(12):
        model, target, interventions = oracle.random_decision_problem(rnd)
        interventions.append(interventions[-1])
        actions = tuple(Action(f"a{i}", iv) for i, iv in enumerate(interventions))
        states = model.graph.variable_map[target].states
        utility = {states[0]: 0.0, states[1]: 1.0}
        env = Environment(model, actions, target, utility)
        alpha = rnd.choice((1.0, 0.5, 2.0))
        cfg = CausalAgentConfig(prior_alpha=alpha)
        batch, rows = _built(CausalBatch, env, cfg, 6, len(model.graph.variables))
        scalar = [init_uniform(env.truth.graph, cfg.prior_alpha)] * 6
        for _ in range(10):
            assert _greedy(batch, rows).tolist() == [causal_choose(env, b) for b in scalar]
            taken = rng.integers(len(actions), size=6)
            x = reference.bound_draw(env, taken, rng.random((6, len(model.graph.variables))))
            _learn(batch, rows, taken, x, np.full(6, np.nan))  # the causal policy reads no reward
            scalar = [causal_learn(env, b, env.actions[a], _realized(model.graph, c)) for b, a, c in zip(scalar, taken, x)]
            for r, b in enumerate(scalar):
                for pos, counts in enumerate(_count_arrays(b)):
                    assert np.array_equal(batch.beliefs.counts[pos][r], counts)


def test_batched_causal_choice_equals_best_action_on_the_posterior_mean(medic_env):
    rng = np.random.default_rng(5)
    batch, own = _built(CausalBatch, medic_env, CausalAgentConfig(), 40)
    # Small integer counts make near and exact ties between the arms common.
    for counts in batch.beliefs.counts:
        counts[...] = rng.integers(1, 4, size=counts.shape)
    chosen = _greedy(batch, own)
    for r in range(40):
        model = posterior_mean(BeliefState(medic_env.truth.graph, [counts[r] for counts in batch.beliefs.counts]))
        assert chosen[r] == best_action(model, medic_env.actions, medic_env.target, medic_env.utility)


def test_batched_q_learner_matches_q_choose_and_q_learn(medic_env):
    rng = np.random.default_rng(77)
    n = 8
    cfg = QLearningConfig(alpha=0.3, epsilon=0.0, q0=0.5)
    batch, rows = _built(QBatch, medic_env, cfg, n)
    scalar = [(cfg.q0,) * len(medic_env.actions)] * n
    for _ in range(40):
        assert _greedy(batch, rows).tolist() == [q_choose(cfg, q, rng) for q in scalar]
        taken = rng.integers(len(medic_env.actions), size=n)
        x = reference.bound_draw(medic_env, taken, rng.random((n, 3)))
        graph = medic_env.truth.graph
        rewards = [medic_env.utility[_realized(graph, c)["Y"]] for c in x]
        _learn(batch, rows, taken, x, rewards)
        scalar = [q_learn(cfg, q, int(a), r) for q, a, r in zip(scalar, taken, rewards)]
        assert batch.q.tolist() == [list(q) for q in scalar]


def test_a_q_learner_needs_only_the_menu_and_learns_from_the_bound_rewards(medic_env):
    # Built from an object that has nothing but an action menu, the batched
    # Q-learner takes the rewards bound to its rows, whatever they are, and
    # folds them in as q_learn does; it reads no outcome and no utility.
    rng = np.random.default_rng(78)
    n = 8
    cfg = QLearningConfig(alpha=0.3, epsilon=0.0, q0=0.5)
    batch, rows = _built(QBatch, SimpleNamespace(actions=medic_env.actions), cfg, n, 0)
    scalar = [(cfg.q0,) * len(medic_env.actions)] * n
    for _ in range(40):
        assert _greedy(batch, rows).tolist() == [q_choose(cfg, q, rng) for q in scalar]
        taken, rewards = rng.integers(len(medic_env.actions), size=n), rng.normal(size=n) * 3.0
        _learn(batch, rows, taken, np.empty((n, 0), np.intp), rewards)
        scalar = [q_learn(cfg, q, int(a), float(r)) for q, a, r in zip(scalar, taken, rewards)]
        assert batch.q.tolist() == [list(q) for q in scalar]


def test_greedy_writes_the_former_choices_into_the_given_rows(medic_env):
    # Each policy writes into its own rows of one shared action buffer and
    # nowhere else: the causal and Q policies the argmax of their former
    # expressions, ties included. The third slice, the random agent's, has
    # no policy, since the engine overwrites every row of an agent that
    # always explores, so nothing writes it.
    rng = np.random.default_rng(8)
    n = 32
    kinds = ((CausalBatch, CausalAgentConfig()), (QBatch, QLearningConfig()))
    (causal, q), (a, x, r) = _on_shared_rows(medic_env, kinds, n, 3)
    for counts in causal.beliefs.counts:
        counts[...] = rng.integers(1, 4, size=counts.shape)
    q.q[...] = rng.integers(0, 3, size=q.q.shape) / 2
    a[...] = 7  # no action index
    for policy in (causal, q):
        policy.greedy()
    assert np.array_equal(a[:n], reference.expected_utilities(causal.mass, medic_env._payoff).argmax(axis=1))
    assert np.array_equal(a[n : 2 * n], q.q.argmax(axis=1))
    assert (a[2 * n :] == 7).all()


def test_learn_reads_only_the_policys_own_rows(medic_env):
    # The engine's layout: two policies on slices of one shared action,
    # outcome and reward buffer of three agents, the third (the random
    # agent) with no policy. Every row holds its own action, outcome and
    # reward, so a policy that read another agent's rows would move its
    # counts or values; each learns exactly as a twin on private rows does,
    # and none writes a row.
    rng = np.random.default_rng(18)
    n = 32
    kinds = ((CausalBatch, CausalAgentConfig()), (QBatch, QLearningConfig(alpha=0.5)))
    policies, (a, x, r) = _on_shared_rows(medic_env, kinds, n, 3)
    twins = [_built(cls, medic_env, cfg, n) for cls, cfg in kinds]
    (causal, q), ((causal_twin, _), (q_twin, _)) = policies, twins
    for _ in range(20):
        a[...] = rng.integers(len(medic_env.actions), size=len(a))
        x[...] = reference.bound_draw(medic_env, a, rng.random(x.shape))
        r[...] = rng.normal(size=len(r)) * 3.0
        before = [rows.copy() for rows in (a, x, r)]
        for i, (policy, (twin, rows)) in enumerate(zip(policies, twins)):
            own = slice(i * n, (i + 1) * n)
            policy.learn()
            _learn(twin, rows, a[own], x[own], r[own])
        assert all(np.array_equal(got, want) for got, want in zip((a, x, r), before))
        for got, want in zip(causal.beliefs.counts, causal_twin.beliefs.counts):
            assert np.array_equal(got, want)
        assert np.array_equal(q.q, q_twin.q)


@pytest.mark.parametrize("n", [1, 4, 256])
def test_expected_utilities_by_state_have_the_bits_of_the_row_sum(n):
    # 2-7 target states, some masses zero, rows of mixed scale: summing the
    # state columns in order is numpy's own sum over so short an axis.
    rng = np.random.default_rng(n)
    for states in range(2, 8):
        for _ in range(20):
            shape = (n, rng.integers(1, 6), states)
            mass = rng.random(shape) * (rng.random(shape) > 0.2) * 10.0 ** rng.integers(-6, 7, size=(*shape[:2], 1))
            mass[mass.sum(axis=-1) == 0.0] = 1.0
            payoff = rng.normal(size=states)
            got = _eu(mass, payoff.tolist())
            assert np.array_equal(got, reference.expected_utilities(mass, payoff))


@pytest.mark.parametrize("n", [1, 4, 256])
@pytest.mark.parametrize(
    "payoff",
    [
        (0.0, 1.0),
        (1.0, 0.0),
        (-0.0, 1.0, 0.0),
        (1.0, 1.0, 1.0),
        (-2.5, 0.0, 1.0),
        (0.0, -1.0),
        (1.0, -0.0, 3.0, 0.0, -0.5),
        (0.0, 0.0),
        (-0.0, 0.0, -0.0),
    ],
)
def test_expected_utilities_skipping_zero_and_unit_payoffs_keep_the_bits(n, payoff):
    # States of utility 0 or -0 are left out and utilities of 1 are not
    # multiplied by; the sums and their argmax stay those of the row sum.
    rng = np.random.default_rng(n)
    for _ in range(20):
        shape = (n, rng.integers(1, 6), len(payoff))
        mass = rng.random(shape) * (rng.random(shape) > 0.2) * 10.0 ** rng.integers(-6, 7, size=(*shape[:2], 1))
        mass[mass.sum(axis=-1) == 0.0] = 1.0
        got = _eu(mass, list(payoff))
        want = reference.expected_utilities(mass, np.array(payoff))
        assert np.array_equal(got, want)
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


def test_expected_utilities_over_eight_states_agree_to_rounding():
    # numpy sums 8 or more entries pairwise, so here the last bits may
    # differ from the in-order sum: by at most 1e-15, relative.
    rng = np.random.default_rng(88)
    mass, payoff = rng.random((256, 3, 8)), rng.random(8)
    got = _eu(mass, payoff.tolist())
    np.testing.assert_allclose(got, reference.expected_utilities(mass, payoff), rtol=1e-15, atol=0.0)


def test_batched_exploration_is_uniform_over_the_menu(medic_env):
    # The engine's schedule, applied as the engine applies it each round.
    u = np.random.default_rng(3).random((20_000, CHOICE_DRAWS))
    n_actions = len(medic_env.actions)

    def choose(cls, cfg):
        explore, uniform = _exploration(u, cfg.epsilon, n_actions)
        if cls is None:  # the random agent has no policy: every row explores
            assert explore.all()
            return uniform
        return np.where(explore, uniform, _greedy(*_built(cls, medic_env, cfg, len(u))))

    for cls, cfg in (
        (CausalBatch, CausalAgentConfig(epsilon=1.0)),
        (QBatch, QLearningConfig(epsilon=1.0)),
        (None, RandomConfig()),
    ):
        chosen = choose(cls, cfg)
        assert chosen.mean() == pytest.approx(0.5, abs=0.02)
    # Exploring exactly where u[:, 0] < epsilon.
    explored = choose(QBatch, QLearningConfig(epsilon=0.25, q0=1.0)) != 0
    assert np.array_equal(explored, (u[:, 0] < 0.25) & (u[:, 1] >= 0.5))


def test_batched_updates_never_touch_the_forced_variable(medic_env):
    # Gate criterion 6's property for the engine's beliefs: round-robin
    # treatment and no-treatment outcomes, T's counts stay at the prior.
    truth = medic_env.truth
    batch, rows = _built(CausalBatch, medic_env, CausalAgentConfig(), 4)
    prior = [c.copy() for c in batch.beliefs.counts]
    rng = np.random.default_rng(20240817)
    for k in range(2_500):
        taken = np.full(4, k % 2)
        _learn(batch, rows, taken, reference.bound_draw(medic_env, taken, rng.random((4, 3))), np.full(4, np.nan))
    t = truth.graph._positions["T"]
    assert np.array_equal(batch.beliefs.counts[t], prior[t])
    added = sum((c - p).sum() for c, p in zip(batch.beliefs.counts, prior))
    assert added == 4 * 2_500 * 2  # variables minus forced, per update
    for name in ("D", "Y"):
        pos = truth.graph._positions[name]
        assert np.abs(reference.refreshed(batch.beliefs)[pos] - truth.tables[pos]).max() <= 0.05


def test_count_beliefs_reject_nonpositive_prior(medic_model):
    with pytest.raises(ValueError, match="nonpositive-alpha"):
        CountBeliefs(medic_model.graph, 0.0, 3)


def test_a_causal_agent_whose_prior_rows_overflow_is_refused(medic_env):
    # 1e308 per state sums to inf over Y's two states; every EU would be nan.
    with pytest.raises(ValueError, match="infinite-row-sum: 2 pseudo-counts of 1e[+]308"):
        _built(CausalBatch, medic_env, CausalAgentConfig(prior_alpha=1e308), 4)


def _grid13_menu():
    """Two actions on the 13 x 13 grid's corner, whose widest scoring factor
    has MAX_FACTOR_STATES states, with both plans already cached."""
    actions = (Action("low", {"G0_0": "0"}), Action("high", {"G0_0": "1"}))
    env = Environment(oracle.grid_model(13), actions, "G12_12", WIN)
    for action in actions:
        env.truth.graph._plan_for(action.intervention, {}, (env.target,))
    return env


def test_building_the_causal_agent_contracts_nothing(monkeypatch):
    # Binding allocates each buffer from the shape its plan recorded; no
    # step runs until the first round.
    env, calls = _grid13_menu(), []
    monkeypatch.setattr(cgm, "_einsum", lambda *args, **kwargs: calls.append(args))
    _built(CausalBatch, env, CausalAgentConfig(), 8, len(env.truth.graph.variables))
    assert calls == []


def test_building_the_causal_agent_allocates_only_what_it_keeps():
    # A factor of the cap is 8 MiB. At its peak the build holds at most
    # 1 MiB besides what the built agent keeps, so no factor is built and
    # thrown away.
    env = _grid13_menu()
    tracemalloc.start()
    try:
        built = _built(CausalBatch, env, CausalAgentConfig(), 8, len(env.truth.graph.variables))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built[0].mass.shape == (8, 2, 2)
    assert peak - held <= 2**20
