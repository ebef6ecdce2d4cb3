"""Replicated runs: configuration, determinism, aggregation, convergence."""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsim import (
    MAX_FACTOR_STATES,
    Action,
    CausalAgentConfig,
    Environment,
    ExperimentConfig,
    FormatError,
    QLearningConfig,
    RandomConfig,
    RoundSeries,
    apply_overrides,
    causal_choose,
    causal_learn,
    config_from_dict,
    convergence_index,
    default_agents,
    init_uniform,
    load_environment,
    load_experiment_config,
    q_choose,
    q_learn,
    random_choose,
    run_experiment,
    step,
)
from causalsim import experiment
from causalsim.experiment import BLOCK_SIZE, _block_stream, _chunk_rounds, _uniform_chunks

import oracle

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"


def small_config(**kw):
    defaults = dict(rounds=10, replications=4, seed=7)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def same_log(x, y):
    """Whether two trial logs hold the same menu, roster and arrays."""
    return (
        x.action_labels == y.action_labels
        and list(x.actions) == list(y.actions)
        and list(x.rewards) == list(y.rewards)
        and all(np.array_equal(a, y.actions[k]) for k, a in x.actions.items())
        and all(np.array_equal(r, y.rewards[k]) for k, r in x.rewards.items())
    )


def same_run(a, b):
    """Whether two results hold the same series and the same trial log."""
    return a.series == b.series and same_log(a.trial_log, b.trial_log)


def action_names(log, label, r):
    """Replication r's action labels for one agent, round by round."""
    return tuple(log.action_labels[i] for i in log.actions[label][r])


# configuration


def test_defaults():
    cfg = ExperimentConfig()
    assert (cfg.rounds, cfg.replications, cfg.seed) == (200, 1000, 42)
    assert cfg.epsilon == 0.05
    assert list(cfg.agents) == ["causal", "qlearning", "random"]
    assert cfg.agents["causal"] == CausalAgentConfig(prior_alpha=1.0, epsilon=0.0)
    assert cfg.agents["qlearning"] == QLearningConfig(alpha=0.1, epsilon=0.1, q0=0.0)


def test_config_validation():
    with pytest.raises(ValueError, match="rounds"):
        ExperimentConfig(rounds=0)
    with pytest.raises(ValueError, match="rounds"):
        ExperimentConfig(rounds=True)
    with pytest.raises(ValueError, match="replications"):
        ExperimentConfig(replications=-3)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=2**64)
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="unknown agent") as caught:
        ExperimentConfig(agents={"bandit": RandomConfig()})
    assert str(caught.value) == "unknown agent 'bandit'; known: causal, qlearning, random"
    with pytest.raises(ValueError, match="requires a QLearningConfig"):
        ExperimentConfig(agents={"qlearning": RandomConfig()})
    with pytest.raises(ValueError, match="at least one agent"):
        ExperimentConfig(agents={})
    # the extremes of the seed range are legal
    ExperimentConfig(seed=0)
    ExperimentConfig(seed=2**64 - 1)


def test_agent_config_validation():
    with pytest.raises(ValueError, match="nonpositive-alpha"):
        CausalAgentConfig(prior_alpha=0.0)
    with pytest.raises(ValueError, match="exploration rate"):
        CausalAgentConfig(epsilon=-0.1)
    with pytest.raises(ValueError, match="learning rate"):
        QLearningConfig(alpha=1.5)
    with pytest.raises(ValueError, match="initial value"):
        QLearningConfig(q0=float("nan"))


def test_config_from_dict_round_trip():
    doc = {
        "rounds": 50,
        "replications": 8,
        "seed": 9,
        "epsilon": 0.02,
        "agents": {"causal": {"prior_alpha": 2.0}, "random": {}},
        "out_csv": "out.csv",
    }
    cfg = config_from_dict(doc)
    assert cfg.rounds == 50 and cfg.replications == 8 and cfg.seed == 9
    assert cfg.epsilon == 0.02
    assert list(cfg.agents) == ["causal", "random"]
    assert cfg.agents["causal"] == CausalAgentConfig(prior_alpha=2.0)
    assert cfg.out_csv == "out.csv" and cfg.out_svg is None


def test_config_from_dict_tolerates_environment_keys():
    cfg = config_from_dict({"rounds": 5, "target": "Y", "desired": "1", "actions": [], "utility": {}})
    assert cfg.rounds == 5


def test_config_from_dict_rejects_garbage():
    with pytest.raises(FormatError, match="unknown keys: speed"):
        config_from_dict({"speed": 11})
    with pytest.raises(FormatError, match=r"\$\.rounds"):
        config_from_dict({"rounds": "many"})
    with pytest.raises(FormatError, match=r"\$\.rounds"):
        config_from_dict({"rounds": True})
    with pytest.raises(FormatError, match=r"\$\.agents\.bandit"):
        config_from_dict({"agents": {"bandit": {}}})
    with pytest.raises(FormatError, match="unknown keys: greed"):
        config_from_dict({"agents": {"qlearning": {"greed": 1}}})
    with pytest.raises(FormatError, match=r"\$\.agents\.qlearning\.alpha"):
        config_from_dict({"agents": {"qlearning": {"alpha": "fast"}}})
    with pytest.raises(FormatError, match="expected an object"):
        config_from_dict(17)


@pytest.mark.parametrize(
    "doc, path, message",
    [
        ({"agents": {"qlearning": {"alpha": 5}}}, "$.agents.qlearning.alpha", "learning rate must lie in (0, 1], got 5.0"),
        ({"rounds": 0}, "$.rounds", "rounds must be a positive integer, got 0"),
        ({"replications": -2}, "$.replications", "replications must be a positive integer, got -2"),
        ({"seed": 2**64}, "$.seed", f"seed must be a 64-bit unsigned integer, got {2**64}"),
        ({"epsilon": 0}, "$.epsilon", "convergence epsilon must be positive, got 0.0"),
        ({"agents": {}}, "$.agents", "at least one agent must be configured"),
        ({"agents": {"causal": {"prior_alpha": 0}}}, "$.agents.causal.prior_alpha", "nonpositive-alpha"),
        ({"agents": {"causal": {"epsilon": 2}}}, "$.agents.causal.epsilon", "exploration rate must lie in [0, 1]"),
        ({"agents": {"qlearning": {"epsilon": -1}}}, "$.agents.qlearning.epsilon", "exploration rate must lie"),
        ({"agents": {"random": {"epsilon": 0.5}}}, "$.agents.random", "unknown keys: epsilon"),
        ({"agents": {"causal": {"prior_alpha": float("inf")}}}, "$.agents.causal.prior_alpha", "nonpositive-alpha"),
        ({"agents": {"bandit": {}}}, "$.agents.bandit", "unknown agent 'bandit'; known: causal, qlearning, random"),
    ],
)
def test_config_from_dict_names_the_path_of_an_out_of_range_value(doc, path, message):
    with pytest.raises(FormatError) as caught:
        config_from_dict(doc)
    assert caught.value.path == path
    assert str(caught.value).startswith(f"{path}: {message}")


def test_load_experiment_config_reads_the_shipped_sample():
    cfg = load_experiment_config(str(SAMPLE_DIR / "medic_experiment.json"))
    assert cfg.rounds == 200
    assert cfg.replications == 1000
    assert cfg.seed == 42
    assert list(cfg.agents) == ["causal", "qlearning", "random"]


def test_apply_overrides_only_touches_what_it_is_given():
    cfg = small_config()
    assert apply_overrides(cfg) is cfg
    out = apply_overrides(cfg, seed=99, rounds=3)
    assert (out.seed, out.rounds, out.replications) == (99, 3, cfg.replications)
    assert out.agents == cfg.agents


# running


def test_single_round_single_replication(medic_env):
    cfg = ExperimentConfig(rounds=1, replications=1, seed=5)
    result = run_experiment(medic_env, cfg)
    assert len(result.series) == 3
    log = result.trial_log
    # fresh uniform beliefs tie both arms; the greedy causal agent
    # therefore opens with the first action in the menu
    assert action_names(log, "causal", 0) == ("no-treatment",)
    for label in ("causal", "qlearning", "random"):
        assert len(log.rewards[label][0]) == 1
        series = result.series_for(label)
        assert series.values == tuple(log.rewards[label][0].tolist())
        assert series.cumulative == series.values


def test_series_shapes_and_cumulative_mean(medic_env):
    cfg = small_config(rounds=12, replications=6)
    result = run_experiment(medic_env, cfg)
    for series in result.series:
        assert len(series.values) == 12
        assert len(series.cumulative) == 12
        assert series.cumulative[0] == pytest.approx(series.values[0])
        for t in range(12):
            assert series.cumulative[t] == pytest.approx(
                sum(series.values[: t + 1]) / (t + 1), abs=1e-12
            )
        assert all(0.0 <= v <= 1.0 for v in series.values)


def test_same_seed_reproduces_everything(medic_env):
    cfg = small_config(rounds=15, replications=5, seed=123)
    assert same_run(run_experiment(medic_env, cfg), run_experiment(medic_env, cfg))


def test_different_seeds_diverge(medic_env):
    a = run_experiment(medic_env, small_config(seed=1))
    b = run_experiment(medic_env, small_config(seed=2))
    assert not same_log(a.trial_log, b.trial_log)


def test_trajectories_do_not_depend_on_roster_order(medic_env):
    # Each agent owns a substream keyed by its label, so reordering or
    # dropping other agents cannot change anyone's trajectory.
    full = dict(default_agents())
    reordered = {k: full[k] for k in ("random", "qlearning", "causal")}
    a = run_experiment(medic_env, small_config(agents=full))
    b = run_experiment(medic_env, small_config(agents=reordered))
    for label in full:
        assert np.array_equal(a.trial_log.rewards[label], b.trial_log.rewards[label])
        assert np.array_equal(a.trial_log.actions[label], b.trial_log.actions[label])
    alone = run_experiment(medic_env, small_config(agents={"qlearning": full["qlearning"]}))
    assert np.array_equal(a.trial_log.rewards["qlearning"], alone.trial_log.rewards["qlearning"])


@pytest.mark.parametrize("workers", [None, 2])
def test_each_agent_alone_runs_as_in_the_full_roster(medic_env, workers):
    # All agents of a block share one draw per round; no agent's rows may
    # see another agent's actions, uniforms or exploration rate.
    agents = {
        "causal": CausalAgentConfig(epsilon=0.2),
        "qlearning": QLearningConfig(epsilon=0.3),
        "random": RandomConfig(),
    }
    cfg = small_config(rounds=12, replications=BLOCK_SIZE + 20, seed=11, agents=agents)
    full = run_experiment(medic_env, cfg, workers=workers).trial_log
    for label, acfg in agents.items():
        alone = run_experiment(medic_env, replace(cfg, agents={label: acfg}), workers=workers).trial_log
        assert np.array_equal(alone.actions[label], full.actions[label])
        assert np.array_equal(alone.rewards[label], full.rewards[label])


def _trial_log_sha256(log):
    # SHA-256 over each agent's action indices (uint8) and then its
    # rewards (little-endian float64), in roster order. Any change to the
    # streams, their column use, exploration or the draw changes it.
    digest = hashlib.sha256()
    for label in log.actions:
        digest.update(log.actions[label].astype(np.uint8).tobytes())
        digest.update(log.rewards[label].astype("<f8").tobytes())
    return digest.hexdigest()


def test_a_small_run_reproduces_its_pinned_trial_log(medic_env):
    log = run_experiment(medic_env, small_config(rounds=30, replications=8, seed=7)).trial_log
    assert _trial_log_sha256(log) == "fa00d3c4ce945b14edaf56ad45636a14f13b11c2e9f72e800e2828d4ed3ca80f"


def test_a_small_chain64_run_reproduces_its_pinned_trial_log():
    # The wide-model path, pinned as medic's is: the sample 64-chain
    # experiment (do X62=0 or X62=1, target X63, medic's agents) at
    # 16 replications x 30 rounds, seed 7.
    env = load_environment(str(SAMPLE_DIR / "chain64_model.json"), str(SAMPLE_DIR / "chain64_experiment.json"))
    cfg = load_experiment_config(str(SAMPLE_DIR / "chain64_experiment.json"))
    log = run_experiment(env, replace(cfg, rounds=30, replications=16, seed=7)).trial_log
    assert _trial_log_sha256(log) == "e85ae74b58c45d8e715c79eba4bbfb15cae349a21d95171789d6a3adba4821d5"


def test_a_small_mixed_menu_run_reproduces_its_pinned_trial_log(medic_env):
    # A menu on medic's truth where D and T are each forced by some actions
    # but not all: do(T=0), do(T=1), do(D=1), medic's agents, 8 x 30, seed 7.
    actions = (Action("T=0", {"T": "0"}), Action("T=1", {"T": "1"}), Action("D=1", {"D": "1"}))
    env = Environment(medic_env.truth, actions, "Y", medic_env.utility)
    log = run_experiment(env, small_config(rounds=30, replications=8, seed=7)).trial_log
    assert _trial_log_sha256(log) == "25cce9d7d375eae7b115aa7b7a6bed7dadbdfacc926b584ff533adbbb841fabf"


def test_uniform_chunks_read_the_one_draw_layout(monkeypatch):
    # Chunked reads give each replication the uniforms it would get from
    # one replication-major draw per agent, across chunk boundaries too:
    # a budget one byte short of 8 rounds makes chunks of 7, 7 and 3.
    cfg = small_config(rounds=17, seed=5)
    monkeypatch.setattr(experiment, "_CHUNK_BYTES", 8 * len(cfg.agents) * 3 * 4 * 8 - 1)
    parts = list(_uniform_chunks(cfg, 1, 3, 4))
    assert [part.shape[1] for part in parts] == [7, 7, 3]
    chunks = np.concatenate(parts, axis=1)
    whole = np.concatenate([_block_stream(5, 1, label).random((3, cfg.rounds, 4)) for label in cfg.agents])
    assert np.array_equal(chunks, whole)


def test_one_chunk_of_uniforms_reads_the_one_draw_layout():
    # When every round fits one chunk, each agent's rows are read at once;
    # they hold the same uniforms as one draw per agent.
    cfg = small_config(rounds=17, seed=5)
    (chunk,) = _uniform_chunks(cfg, 1, 3, 4)
    whole = np.concatenate([_block_stream(5, 1, label).random((3, cfg.rounds, 4)) for label in cfg.agents])
    assert np.array_equal(chunk, whole)


def test_a_chunk_of_uniforms_fits_the_byte_budget():
    cfg = ExperimentConfig()  # three agents, 200 rounds
    # Medic (3 variables): a block's 200 rounds are one 6.1 MB chunk.
    assert _chunk_rounds(cfg, BLOCK_SIZE, 2 + 3) == 200
    # The 64-chain: 66 columns a row, so only some rounds fit the budget.
    chunk = _chunk_rounds(cfg, BLOCK_SIZE, 2 + 64)
    assert chunk * 3 * BLOCK_SIZE * 66 * 8 <= experiment._CHUNK_BYTES < (chunk + 1) * 3 * BLOCK_SIZE * 66 * 8
    # A round wider than the budget is still read, one round at a time.
    assert _chunk_rounds(cfg, BLOCK_SIZE, 2**20) == 1


def test_parallel_run_matches_serial_run(medic_env):
    cfg = small_config(rounds=8, replications=10)
    serial = run_experiment(medic_env, cfg)
    parallel = run_experiment(medic_env, cfg, workers=3)
    assert same_run(serial, parallel)


def test_blocks_in_worker_processes_match_a_serial_run(medic_env):
    # More replications than one block, so two worker processes start.
    cfg = small_config(rounds=5, replications=BLOCK_SIZE + 44)
    assert same_run(run_experiment(medic_env, cfg), run_experiment(medic_env, cfg, workers=2))


def test_leading_replications_do_not_depend_on_the_replication_count(medic_env):
    full = run_experiment(medic_env, small_config(rounds=6, replications=BLOCK_SIZE + 20)).trial_log
    for count in (3, BLOCK_SIZE + 5):
        part = run_experiment(medic_env, small_config(rounds=6, replications=count)).trial_log
        for label in full.actions:
            assert np.array_equal(part.actions[label], full.actions[label][:count])
            assert np.array_equal(part.rewards[label], full.rewards[label][:count])


def test_trial_log_arrays_and_replication_views_agree(medic_env):
    result = run_experiment(medic_env, small_config(rounds=7, replications=3))
    log = result.trial_log
    assert log.action_labels == ("no-treatment", "treatment")
    assert list(log.actions) == list(log.rewards) == ["causal", "qlearning", "random"]
    for label in log.actions:
        assert log.actions[label].shape == log.rewards[label].shape == (3, 7)
        assert log.actions[label].itemsize == 1
        assert (log.actions[label].dtype, log.rewards[label].dtype) == (np.uint8, np.float64)
        names = np.array(log.action_labels, dtype=object)[log.actions[label]]
        for r in range(3):
            assert action_names(log, label, r) == tuple(names[r])
        assert result.series_for(label).values == tuple(log.rewards[label].mean(axis=0).tolist())


def test_workers_argument_is_checked(medic_env):
    for workers in (0, True):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(medic_env, small_config(), workers=workers)


def test_causal_agent_refuses_an_oversized_joint_and_the_others_run():
    # Scoring an action on the 14 x 14 grid's corner needs a factor of
    # 2^21 states, one past the default cap, though no CPT has more than
    # four rows. The causal agent refuses such a truth, as causal_choose
    # does; sampling and the model-free agents have no cap.
    truth = oracle.grid_model(14)
    actions = (Action("low", {"G0_0": "0"}), Action("high", {"G0_0": "1"}))
    env = Environment(truth, actions, "G13_13", {"0": 0.0, "1": 1.0})
    with pytest.raises(ValueError, match="factor too large"):
        run_experiment(env, small_config(agents={"causal": CausalAgentConfig()}))
    result = run_experiment(env, small_config(agents={"random": RandomConfig(), "qlearning": QLearningConfig()}))
    assert result.trial_log.rewards["random"].shape == (4, 10)


def test_causal_scoring_keeps_every_factor_under_the_cap_across_replications():
    # The 13 x 13 grid's widest factor has exactly MAX_FACTOR_STATES
    # states, 8 MiB of float64 for one replication. Scoring a block of 8
    # replications at once would build that factor 8 times over, 64 MiB
    # in one array; scored in row slices, no factor exceeds the cap. The
    # bound, six factors of the cap, was fixed before the test first ran.
    actions = (Action("low", {"G0_0": "0"}), Action("high", {"G0_0": "1"}))
    env = Environment(oracle.grid_model(13), actions, "G12_12", {"0": 0.0, "1": 1.0})
    cfg = ExperimentConfig(rounds=2, replications=8, seed=13, agents={"causal": CausalAgentConfig()})
    tracemalloc.start()
    try:
        log = run_experiment(env, cfg).trial_log
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.rewards["causal"].shape == (8, 2)
    assert peak <= 6 * MAX_FACTOR_STATES * 8


def test_causal_agent_learns_the_best_action_on_a_64_variable_chain(chain64_model):
    # A 2^64-state joint whose scoring factors have four entries. The
    # success rates are 0.1 under do(X62=0) and 0.8 under do(X62=1). The
    # greedy causal agent should take do(X62=1) in every round of the
    # late window, rounds 151-200, in all 64 replications. Its 3200
    # rewards there are then independent draws of mean 0.8, so by
    # Hoeffding's inequality their mean is below 0.8 - t with
    # probability at most exp(-2 * 3200 * t^2), which is 1e-3 for
    # t = sqrt(ln(1e3) / 6400), about 0.033. The window, the bound and
    # the seed were fixed before the test first ran.
    actions = (Action("low", {"X62": "0"}), Action("high", {"X62": "1"}))
    env = Environment(chain64_model, actions, "X63", {"0": 0.0, "1": 1.0})
    cfg = ExperimentConfig(rounds=200, replications=64, seed=64, agents={"causal": CausalAgentConfig()})
    log = run_experiment(env, cfg).trial_log
    late = slice(150, 200)
    assert (log.actions["causal"][:, late] == log.action_labels.index("high")).all()
    assert log.rewards["causal"][:, late].mean() >= 0.8 - math.sqrt(math.log(1e3) / 6400)


def test_engine_per_round_means_agree_with_a_scalar_reference_loop(medic_env):
    # The scalar policies and step, one replication at a time on their
    # own stream, against the engine on its streams. Rewards lie in
    # [0, 1], so by Hoeffding's inequality the difference of two means
    # of n independent rewards exceeds t with probability at most
    # 2 exp(-n t^2). The bound below holds for all per-round comparisons
    # at once with probability at least 1 - 1e-3 (about 0.20 here). The
    # seed and the bound were fixed before the test first ran.
    n, rounds, seed = 300, 30, 2024
    cfg = ExperimentConfig(rounds=rounds, replications=n, seed=seed)
    engine = run_experiment(medic_env, cfg)
    actions, causal_cfg, q_cfg = medic_env.actions, cfg.agents["causal"], cfg.agents["qlearning"]
    reference = {label: np.empty((n, rounds)) for label in ("causal", "qlearning", "random")}
    rng = np.random.default_rng(seed)
    for rep in range(n):
        beliefs = init_uniform(medic_env.truth.graph, causal_cfg.prior_alpha)
        q = (q_cfg.q0,) * len(actions)
        for t in range(rounds):
            action = actions[causal_choose(medic_env, beliefs)]
            record = step(medic_env, action, rng)
            beliefs = causal_learn(medic_env, beliefs, action, record.realized)
            reference["causal"][rep, t] = record.reward
            i = q_choose(q_cfg, q, rng)
            record = step(medic_env, actions[i], rng)
            q = q_learn(q_cfg, q, i, record.reward)
            reference["qlearning"][rep, t] = record.reward
            reference["random"][rep, t] = step(medic_env, actions[random_choose(actions, rng)], rng).reward
    bound = math.sqrt(math.log(2 * len(reference) * rounds / 1e-3) / n)
    for label, rewards in reference.items():
        gap = np.abs(np.array(engine.series_for(label).values) - rewards.mean(axis=0))
        assert gap.max() <= bound, (label, gap.max(), bound)


def test_causal_exploration_rate_reaches_the_driver(medic_env):
    # Fully exploring causal agent must play both arms; the greedy one
    # opens every replication identically.
    explore = small_config(
        rounds=40, replications=1, agents={"causal": CausalAgentConfig(epsilon=1.0)}
    )
    log = run_experiment(medic_env, explore).trial_log
    assert set(action_names(log, "causal", 0)) == {"no-treatment", "treatment"}


def test_q0_reaches_the_driver(medic_env):
    # With optimistic initial values and no exploration, the learner
    # starts greedy on index 0, gets disappointed, and must try index 1.
    cfg = small_config(
        rounds=30, replications=1, agents={"qlearning": QLearningConfig(epsilon=0.0, q0=1.0)}
    )
    log = run_experiment(medic_env, cfg).trial_log
    assert set(action_names(log, "qlearning", 0)) == {"no-treatment", "treatment"}


def test_series_for_unknown_label(medic_env):
    result = run_experiment(medic_env, small_config(rounds=2, replications=1))
    with pytest.raises(KeyError):
        result.series_for("ghost")


# convergence


def test_convergence_identical_series_is_zero():
    assert convergence_index([0.3, 0.3, 0.3], [0.3, 0.3, 0.3], 0.05) == 0


def test_convergence_single_early_violation():
    assert convergence_index([1.0, 0.5, 0.5], [0.0, 0.5, 0.5], 0.1) == 1


def test_convergence_final_round_violation_is_none():
    assert convergence_index([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.5) is None


def test_convergence_bound_is_strict():
    # a gap of exactly epsilon still counts as a violation
    assert convergence_index([0.0, 0.1], [0.0, 0.0], 0.1) is None
    assert convergence_index([0.0, 0.1], [0.0, 0.0], 0.1000001) == 0


def test_convergence_accepts_round_series(medic_env):
    flat = RoundSeries("x", (0.5, 0.5), (0.5, 0.5))
    also = RoundSeries("y", (0.5, 0.52), (0.5, 0.51))
    assert convergence_index(flat, also, 0.1) == 0


def test_convergence_input_checks():
    with pytest.raises(ValueError, match="epsilon"):
        convergence_index([0.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="length-mismatch"):
        convergence_index([0.0, 1.0], [0.0], 0.1)
    with pytest.raises(ValueError, match="empty-series"):
        convergence_index([], [], 0.1)


@settings(max_examples=50, deadline=None)
@given(
    pair=st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
            st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
        )
    ),
    eps_lo=st.floats(0.01, 0.5),
    eps_hi=st.floats(0.01, 0.5),
)
def test_convergence_is_monotone_in_epsilon(pair, eps_lo, eps_hi):
    xs, ys = pair
    lo, hi = sorted((eps_lo, eps_hi))
    n_strict = convergence_index(xs, ys, lo)
    n_loose = convergence_index(xs, ys, hi)
    as_number = lambda n: math.inf if n is None else n
    assert as_number(n_strict) >= as_number(n_loose)


@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
    eps=st.floats(0.001, 0.5),
)
def test_convergence_of_a_series_with_itself_is_zero(xs, eps):
    assert convergence_index(xs, xs, eps) == 0
