"""The simulated world: stepping, the confounded medic example, loading."""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from causalsim import (
    Action,
    CausalAgentConfig,
    CausalGraph,
    CausalModel,
    Cpt,
    Environment,
    ExperimentConfig,
    VariableSpec,
    FormatError,
    InvalidModelError,
    environment_block_to_dict,
    environment_from_dict,
    intervene,
    interventional_marginal,
    interventional_query,
    load_environment,
    query,
    run_experiment,
    sample,
    save_model,
    step,
)
import causalsim
from causalsim.agents import CausalBatch
from causalsim.cgm import _drawer
from causalsim.experiment import _run_block

import reference

import oracle

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"


def test_medic_scenario_shape(medic_env):
    assert [a.label for a in medic_env.actions] == ["no-treatment", "treatment"]
    assert medic_env.target == "Y"
    assert medic_env.utility == {"0": 0.0, "1": 1.0}
    assert medic_env.truth.graph.parents_of("Y") == ("D", "T")


def test_medic_interventional_truths(medic_env):
    t = medic_env.truth
    assert interventional_query(t, {"T": "1"}, {"Y": "1"}) == pytest.approx(0.87, abs=1e-12)
    assert interventional_query(t, {"T": "0"}, {"Y": "1"}) == pytest.approx(0.52, abs=1e-12)
    assert query(t, {"Y": "1"}, {"T": "0"}) == pytest.approx(0.6695, abs=1e-4)


def test_medic_is_genuinely_confounded(medic_env):
    t = medic_env.truth
    gap = query(t, {"Y": "1"}, {"T": "0"}) - interventional_query(t, {"T": "0"}, {"Y": "1"})
    assert gap > 0.1  # seeing beats doing for the worse arm


def test_step_pays_the_utility_of_the_realized_target(medic_env):
    rng = np.random.default_rng(8)
    rec = step(medic_env, medic_env.actions[1], rng)
    assert rec.action == "treatment"
    assert set(rec.realized) == {"D", "T", "Y"}
    assert rec.realized["T"] == "1"
    assert rec.reward == medic_env.utility[rec.realized["Y"]]
    assert rec.reward in (0.0, 1.0)


def test_step_respects_the_forced_variable(medic_env):
    rng = np.random.default_rng(5)
    for _ in range(100):
        assert step(medic_env, medic_env.actions[0], rng).realized["T"] == "0"


def test_step_rejects_foreign_actions(medic_env):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown-action"):
        step(medic_env, Action("treatment", {"T": "0"}), rng)  # label match, body mismatch
    with pytest.raises(ValueError, match="unknown-action"):
        step(medic_env, Action("surgery", {"D": "0"}), rng)


def test_step_never_mutates_the_truth(medic_env):
    before_parents = dict(medic_env.truth.graph.parents)
    before_rows = {n: dict(c.rows) for n, c in medic_env.truth.cpts.items()}
    rng = np.random.default_rng(2)
    for a in medic_env.actions:
        for _ in range(10):
            step(medic_env, a, rng)
    assert dict(medic_env.truth.graph.parents) == before_parents
    assert {n: dict(c.rows) for n, c in medic_env.truth.cpts.items()} == before_rows


def test_step_long_run_means_match_the_interventional_truth(medic_env):
    rng = np.random.default_rng(31337)
    n = 100_000
    for action, want in ((medic_env.actions[1], 0.87), (medic_env.actions[0], 0.52)):
        total = sum(step(medic_env, action, rng).reward for _ in range(n))
        assert total / n == pytest.approx(want, abs=0.01)


def test_step_draws_what_sampling_the_surgered_truth_draws(medic_env):
    # In the last problem, surgery on B makes it a root, so the surgered
    # model visits A, B, C where the truth visits A, C, B; a forced
    # variable still takes its uniform.
    rnd = random.Random(4)
    envs = [medic_env]
    for _ in range(4):
        model, target, interventions = oracle.random_decision_problem(rnd)
        states = model.graph.variable_map[target].states
        actions = tuple(Action(f"a{i}", iv) for i, iv in enumerate(interventions))
        envs.append(Environment(model, actions, target, {states[0]: 0.0, states[1]: 1.0}))
    abc = CausalGraph(tuple(VariableSpec(n, ("0", "1")) for n in "ABC"), {"B": ("A",)})
    rows = {"A": {(): (0.3, 0.7)}, "B": {("0",): (0.6, 0.4), ("1",): (0.2, 0.8)}, "C": {(): (0.5, 0.5)}}
    truth = CausalModel(abc, {n: Cpt(n, r) for n, r in rows.items()})
    assert intervene(truth, {"B": "1"}).graph.topological_order != truth.graph.topological_order
    envs.append(Environment(truth, (Action("set-b", {"B": "1"}),), "C", {"0": 0.0, "1": 1.0}))
    for env in envs:
        for i, action in enumerate(env.actions):
            cut = intervene(env.truth, action.intervention)
            ours, theirs = np.random.default_rng(i), np.random.default_rng(i)
            for _ in range(50):
                assert list(step(env, action, ours).realized.items()) == list(sample(cut, theirs).items())


def _one_row_env(row):
    # A is the target, drawn from ``row``; the only action forces B.
    graph = CausalGraph((VariableSpec("A", ("x", "y", "z")), VariableSpec("B", ("0", "1"))), {})
    truth = CausalModel(graph, {"A": Cpt("A", {(): row}), "B": Cpt("B", {(): (0.5, 0.5)})})
    return Environment(truth, (Action("set-b", {"B": "1"}),), "A", {"x": 0.0, "y": 1.0, "z": 2.0})


def test_batched_draw_falls_back_to_the_last_state_with_mass():
    # The row sums to 1 - 5e-10, within tolerance; a draw above that sum
    # must not land on the zero-mass last state.
    u = np.array([[0.9999999999, 0.25]])
    env = _one_row_env((0.5, 0.4999999995, 0.0))
    assert reference.bound_draw(env, np.array([0]), u).tolist() == [[1, 1]]
    positive = _one_row_env((0.5, 0.2499999995, 0.25))
    assert reference.bound_draw(positive, np.array([0]), u).tolist() == [[2, 1]]


@pytest.mark.parametrize("n", [1, 300])
def test_flat_row_draw_gives_the_codes_of_the_per_variable_gather(n):
    # Models with 2-4 states, zero-mass entries and deterministic rows;
    # actions force one or two variables each and mix over the rows; a
    # tenth of the rows draw at each extreme uniform.
    rnd, rng = random.Random(n), np.random.default_rng(n)
    for _ in range(60):
        env, _ = reference.sparse_environment(rnd)
        u = rng.random((n, len(env.truth.graph.variables)))
        u[rng.random(n) < 0.1] = 0.0
        u[rng.random(n) < 0.1] = 1.0 - 2.0**-53
        a = rng.integers(len(env.actions), size=n)
        assert np.array_equal(reference.bound_draw(env, a, u), reference.draw(env, a, u))


def _mixed_menu_env(medic_env):
    # D and T are each forced by some actions but not all; Y by none.
    actions = (Action("T=0", {"T": "0"}), Action("T=1", {"T": "1"}), Action("D=1", {"D": "1"}))
    return Environment(medic_env.truth, actions, "Y", medic_env.utility)


def _three_state_forced_env():
    # A, three states, is forced by every action to a different state; B,
    # three states and parentless, by none; Y reads both.
    a, b = VariableSpec("A", ("lo", "mid", "hi")), VariableSpec("B", ("x", "y", "z"))
    graph = CausalGraph((a, b, VariableSpec("Y", ("0", "1"))), {"Y": ("A", "B")})
    y_rows = {(i, j): (k / 10, 1 - k / 10) for k, (i, j) in enumerate((i, j) for i in a.states for j in b.states)}
    cpts = {"A": Cpt("A", {(): (0.2, 0.3, 0.5)}), "B": Cpt("B", {(): (0.25, 0.0, 0.75)}), "Y": Cpt("Y", y_rows)}
    actions = tuple(Action(f"A={s}", {"A": s}) for s in ("hi", "lo", "mid"))
    return Environment(CausalModel(graph, cpts), actions, "Y", {"0": 0.0, "1": 1.0})


def _draw_kinds(env):
    # By variable name: "forced" if every action forces it, "truth" if none
    # does, and "per-action" if it draws from one block of rows per action.
    names = env.truth.graph.names
    kinds = {None: "forced", 0: "truth"}
    return {names[pos]: kinds.get(step, "per-action") for pos, _, step, _ in env._sampler}


@pytest.mark.parametrize("n", [1, 4, 256])
def test_each_kind_of_draw_gives_the_codes_of_the_per_variable_gather(medic_env, n):
    # Forced variables are looked up, unforced ones read the truth's rows,
    # and only variables some but not all actions force get per-action rows.
    menus = {
        "medic": (medic_env, {"D": "truth", "T": "forced", "Y": "truth"}),
        "mixed": (_mixed_menu_env(medic_env), {"D": "per-action", "T": "per-action", "Y": "truth"}),
        "three-state": (_three_state_forced_env(), {"A": "forced", "B": "truth", "Y": "truth"}),
    }
    rng = np.random.default_rng(n)
    for env, kinds in menus.values():
        assert _draw_kinds(env) == kinds
        for _ in range(20):
            u = rng.random((n, len(kinds)))
            u[rng.random(n) < 0.1] = 0.0
            u[rng.random(n) < 0.1] = 1.0 - 2.0**-53
            a = rng.integers(len(env.actions), size=n)
            assert np.array_equal(reference.bound_draw(env, a, u), reference.draw(env, a, u))


def _payoff_env(env, payoff):
    # The same truth, menu and target, paying ``payoff`` by target state.
    states = env.truth.graph.variable_map[env.target].states
    return Environment(env.truth, env.actions, env.target, dict(zip(states, payoff)))


@pytest.mark.parametrize("payoff", [(0.0, 1.0), (-0.0, 1.0), (1.0, -2.5), (-0.5, 0.0)])
@pytest.mark.parametrize("n", [1, 4, 256])
@pytest.mark.parametrize("menu", ["medic", "mixed", "three-state", "chain64"])
def test_each_bound_stage_of_a_round_keeps_the_bits_of_its_reference(medic_env, chain64_model, menu, n, payoff):
    # Rounds as the engine runs them, on rows bound once: each stage's
    # output is compared with the unbound code it replaced, bit for bit:
    # the posterior means, each action's mass (the plan run on the means),
    # the expected utilities and their argmax, the draw, and the counts
    # after the update (the per-buffer code that took the free mask twice),
    # and the rewards the engine's one payoff gather writes into the bound rows.
    if menu == "chain64":
        # do(X40=1) contracts the chain from X40 on, one step per variable.
        actions = (Action("low", {"X62": "0"}), Action("high", {"X62": "1"}), Action("far", {"X40": "1"}))
        env = Environment(chain64_model, actions, "X63", {"0": 0.0, "1": 1.0})
    else:
        env = {"medic": medic_env, "mixed": _mixed_menu_env(medic_env), "three-state": _three_state_forced_env()}[menu]
    env, graph, rng = _payoff_env(env, payoff), env.truth.graph, np.random.default_rng(n)
    cfg = CausalAgentConfig(prior_alpha=0.5)
    a, x, r = np.zeros(n, np.intp), np.zeros((n, len(graph.variables)), np.intp), np.zeros(n)
    batch, twin = CausalBatch(env, cfg, a, x, r), CausalBatch(env, cfg, *(np.zeros_like(rows) for rows in (a, x, r)))
    sample, y, states = _drawer(graph, env._sampler, a, x), x[:, graph._positions[env.target]], graph.variable_map[env.target].states
    plans = [graph._plan_for(action.intervention, {}, (env.target,)) for action in env.actions]
    free = np.array([[float(v.name not in action.intervention) for v in graph.variables] for action in env.actions])
    for _ in range(6):
        batch.greedy()
        for counts, means in zip(batch.beliefs.counts, batch.beliefs.means):
            assert means is None or np.array_equal(means, reference.posterior(counts))
        for k, (action, plan) in enumerate(zip(env.actions, plans)):
            want = plan.run(plan.operands(graph, (action.intervention,), batch.beliefs.means.__getitem__))
            assert np.array_equal(batch.mass[:, k], want)
        eu = reference.expected_utilities(batch.mass, env._payoff)
        assert np.array_equal(batch.eu.T, eu) and np.array_equal(a, eu.argmax(axis=1))
        a[:] = np.where(rng.random(n) < 0.5, rng.integers(len(env.actions), size=n), a)
        u = rng.random((n, len(graph.variables)))
        sample(u)
        assert np.array_equal(x, reference.draw(env, a, u))
        r[...] = env._payoff[y]  # the engine's payoff gather
        assert r.tobytes() == np.array([env.utility[states[c]] for c in y]).tobytes()
        batch.learn()
        reference.update_count_buffers(twin.beliefs, x, free[a])
        for got, want in zip(batch.beliefs.counts, twin.beliefs.counts):
            assert np.array_equal(got, want)


def test_a_bound_round_enters_few_python_frames(medic_env):
    # No timing: the causalsim Python frames one medic round at n = 4
    # enters, as the difference between blocks of 2 rounds and of 1: the
    # causal policy's greedy, the draw, the count update the causal policy
    # binds as its learn and the Q policy's learn, one frame each. The Q
    # policy's greedy is a bound argmax and the random agent has no policy;
    # a per-round layer that comes back adds to it.
    root = str(Path(causalsim.__file__).parent)

    def frames(rounds):
        entered = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(root):
                entered.append(frame.f_code.co_name)

        cfg = ExperimentConfig(rounds=rounds, replications=4, seed=3)
        sys.setprofile(hook)
        try:
            _run_block(medic_env, cfg, 0)
        finally:
            sys.setprofile(None)
        return entered

    frames(2)  # the first block builds what the environment and the graph cache
    one, two = frames(1), frames(2)
    assert len(two) - len(one) <= 4, two


def test_draw_into_a_given_buffer_equals_a_fresh_draw():
    # The engine's outcome buffer: some rows of a larger array that still
    # holds the last round's codes. Only those rows change.
    rnd, rng = random.Random(31), np.random.default_rng(31)
    for _ in range(30):
        env, _ = reference.sparse_environment(rnd)
        n, width = 40, len(env.truth.graph.variables)
        buffer = rng.integers(0, 4, size=(3 * n, width)).astype(np.intp)
        before, out = buffer.copy(), buffer[n : 2 * n]
        a, u = rng.integers(len(env.actions), size=n), rng.random((n, width))
        assert reference.bound_draw(env, a, u, out) is out
        assert np.array_equal(out, reference.bound_draw(env, a, u))
        assert np.array_equal(buffer[:n], before[:n]) and np.array_equal(buffer[2 * n :], before[2 * n :])


def test_draw_builds_no_sampling_tables_on_the_truth():
    # The environment takes only the visiting order from the truth's graph;
    # the truth's own cumulative tables serve ``sample`` and ``step`` alone.
    env = load_environment(str(SAMPLE_DIR / "medic_model.json"), str(SAMPLE_DIR / "medic_experiment.json"))
    reference.bound_draw(env, np.array([0, 1]), np.full((2, 3), 0.5))
    assert "_sampler" not in env.truth.__dict__


def test_no_surgered_truth_is_built_until_a_step():
    # Construction checks each intervention against the truth, and draw
    # builds its tables from the truth and the menu; only step samples a
    # surgered truth.
    env = load_environment(str(SAMPLE_DIR / "medic_model.json"), str(SAMPLE_DIR / "medic_experiment.json"))
    assert "_surgered" not in env.__dict__
    reference.bound_draw(env, np.array([0, 1]), np.full((2, 3), 0.5))
    assert "_surgered" not in env.__dict__
    run_experiment(env, ExperimentConfig(rounds=3, replications=2))
    assert "_surgered" not in env.__dict__
    step(env, env.actions[1], np.random.default_rng(0))
    assert len(env.__dict__["_surgered"]) == len(env.actions)


def test_batched_draw_frequencies_match_the_interventional_marginals(medic_env):
    rnd = random.Random(12)
    envs = [medic_env]
    for _ in range(3):
        model, target, interventions = oracle.random_decision_problem(rnd)
        states = model.graph.variable_map[target].states
        actions = tuple(Action(f"a{i}", iv) for i, iv in enumerate(interventions))
        envs.append(Environment(model, actions, target, {states[0]: 0.0, states[1]: 1.0}))
    rng = np.random.default_rng(12)
    n = 20_000
    for env in envs:
        variables = env.truth.graph.variables
        for i, action in enumerate(env.actions):
            x = reference.bound_draw(env, np.full(n, i), rng.random((n, len(variables))))
            for pos, v in enumerate(variables):
                freq = np.bincount(x[:, pos], minlength=len(v.states)) / n
                if v.name in action.intervention:
                    assert freq.tolist() == [float(s == action.intervention[v.name]) for s in v.states]
                else:
                    want = interventional_marginal(env.truth, action.intervention, v.name)
                    assert freq == pytest.approx(want, abs=0.02)


def test_environment_validation(medic_env):
    truth = medic_env.truth
    with pytest.raises(ValueError, match="unknown-target"):
        Environment(truth, medic_env.actions, "Q", {"0": 0.0, "1": 1.0})
    with pytest.raises(ValueError, match="action-intervenes-target"):
        Environment(truth, (Action("push", {"Y": "1"}),), "Y", {"0": 0.0, "1": 1.0})
    with pytest.raises(ValueError, match="duplicate action labels"):
        Environment(truth, (medic_env.actions[1], medic_env.actions[1]), "Y", {"0": 0.0, "1": 1.0})
    with pytest.raises(ValueError, match="empty-action-set"):
        Environment(truth, (), "Y", {"0": 0.0, "1": 1.0})
    with pytest.raises(ValueError, match="does not cover"):
        Environment(truth, medic_env.actions, "Y", {"1": 1.0})
    with pytest.raises(ValueError, match="illegal-state"):
        Environment(truth, (Action("odd", {"T": "9"}),), "Y", {"0": 0.0, "1": 1.0})


def test_environment_refuses_a_utility_key_that_is_not_a_target_state(medic_env):
    with pytest.raises(ValueError, match="illegal-state: utility key '2' is not a state of Y"):
        Environment(medic_env.truth, medic_env.actions, "Y", {"0": 0.0, "1": 1.0, "2": 7.0})


def test_load_environment_from_the_shipped_samples(medic_env):
    env = load_environment(
        str(SAMPLE_DIR / "medic_model.json"), str(SAMPLE_DIR / "medic_experiment.json")
    )
    assert env.truth == medic_env.truth
    assert env.actions == medic_env.actions
    assert env.target == medic_env.target
    assert env.utility == medic_env.utility


def experiment_doc(**extra):
    doc = {
        "target": "Y",
        "actions": [
            {"label": "no-treatment", "do": {"T": "0"}},
            {"label": "treatment", "do": {"T": "1"}},
        ],
        "desired": "1",
    }
    doc.update(extra)
    return doc


def write_pair(tmp_path, medic_env, doc):
    model_path = tmp_path / "model.json"
    exp_path = tmp_path / "exp.json"
    save_model(medic_env.truth, str(model_path))
    exp_path.write_text(json.dumps(doc), encoding="utf-8")
    return str(model_path), str(exp_path)


def test_desired_state_expands_to_zero_one_utility(medic_env, tmp_path):
    env = load_environment(*write_pair(tmp_path, medic_env, experiment_doc()))
    assert env.utility == {"0": 0.0, "1": 1.0}


def test_explicit_utility_wins_over_desired(medic_env, tmp_path):
    doc = experiment_doc(utility={"0": -1.0, "1": 3.0})
    env = load_environment(*write_pair(tmp_path, medic_env, doc))
    assert env.utility == {"0": -1.0, "1": 3.0}


def test_load_environment_rejects_unknown_target(medic_env, tmp_path):
    doc = experiment_doc(target="Q")
    with pytest.raises(ValueError, match="unknown-target"):
        load_environment(*write_pair(tmp_path, medic_env, doc))


def test_load_environment_rejects_desired_outside_states(medic_env, tmp_path):
    doc = experiment_doc(desired="7")
    with pytest.raises(ValueError, match="illegal-state"):
        load_environment(*write_pair(tmp_path, medic_env, doc))


def test_a_faulty_truth_is_its_own_error_not_one_of_the_document(medic_env):
    # The document's faults are FormatErrors under its path; the truth's keep their issues.
    cpts = {**medic_env.truth.cpts, "D": Cpt("D", {(): (0.5, 0.6)})}
    with pytest.raises(InvalidModelError, match="row-not-normalized"):
        environment_from_dict(CausalModel(medic_env.truth.graph, cpts), experiment_doc(), doc="exp.json")


def test_load_environment_needs_utility_or_desired(medic_env, tmp_path):
    doc = experiment_doc()
    del doc["desired"]
    with pytest.raises(FormatError, match="'utility' or 'desired'"):
        load_environment(*write_pair(tmp_path, medic_env, doc))


def test_load_environment_rejects_malformed_actions(medic_env, tmp_path):
    doc = experiment_doc(actions=[{"label": "x"}])
    with pytest.raises(FormatError, match="'label' and 'do'"):
        load_environment(*write_pair(tmp_path, medic_env, doc))
    doc = experiment_doc(actions=[])
    with pytest.raises(FormatError, match="empty-action-set"):
        load_environment(*write_pair(tmp_path, medic_env, doc))
    doc = experiment_doc(actions=[{"label": "x", "do": {}}])
    with pytest.raises(FormatError, match="empty-intervention"):
        load_environment(*write_pair(tmp_path, medic_env, doc))


def test_load_environment_refuses_a_key_neither_half_knows(tmp_path):
    # config_from_dict refuses the same file with the same message.
    doc = {**json.loads((SAMPLE_DIR / "medic_experiment.json").read_text(encoding="utf-8")), "utilty": {"1": 1}}
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FormatError, match="unknown keys: utilty") as caught:
        load_environment(str(SAMPLE_DIR / "medic_model.json"), str(exp))
    assert caught.value.path == str(exp)


def test_load_environment_rejects_action_on_missing_variable(medic_env, tmp_path):
    doc = experiment_doc(actions=[{"label": "x", "do": {"Q": "1"}}])
    with pytest.raises(ValueError, match="unknown-variable"):
        load_environment(*write_pair(tmp_path, medic_env, doc))


def test_environment_block_round_trip(medic_env, tmp_path):
    block = environment_block_to_dict(medic_env)
    env = load_environment(*write_pair(tmp_path, medic_env, block))
    assert env.actions == medic_env.actions
    assert env.utility == medic_env.utility
    assert env.target == medic_env.target
