"""Replicated, seeded experiment runs comparing agents on one environment.

Each replication pits every configured agent against the same
environment for a fixed number of rounds. Agents live in parallel
worlds: per round, each one chooses an action, the environment steps
once for that agent alone, and the agent learns from its own outcome.
Nothing is shared between agents or between replications.

The engine runs replications in blocks of ``BLOCK_SIZE`` and advances
every agent of a block in lockstep, one row per (agent, replication).
A round is one step for the whole roster, on rows that each policy
(:class:`~causalsim.agents.BatchPolicy`) is built on and the batched
ancestral draw (:func:`~causalsim.cgm._drawer`, on the environment's
sampling tables) binds, once per block: each policy writes its greedy
actions into its rows, one ``np.copyto`` writes the explored actions
over them, one draw gives every row its outcome under its own action,
one gather pays every row the utility of its target state, and each
policy learns from its rows. Exploration belongs to the engine: the
schedule, where each row explores and what it takes, comes from the
choice uniforms and each agent config's ``epsilon`` in :func:`_exploration`,
once per chunk of rounds. Rows never read each other, so sharing the
draw is equivalent to stepping the agents one after another.

Randomness is carved into streams keyed by (master seed, block index,
agent label). Each stream is read replication-major, as if drawn as
one array of uniforms of shape (replications in the block, rounds,
2 + variables), but as many rounds at a time as fit in a fixed byte
budget, so a block's uniforms grow neither with the number of rounds nor
with the width of the model; see
:func:`_uniform_chunks` and :func:`_run_block` for how the columns are
used. A replication's trajectory therefore depends neither on roster
order, nor on whether blocks run serially or in worker processes, nor
on how many replications the run has in total. A block logs each
round as one row of its (rounds, agents * replications) action and
reward arrays; :func:`run_experiment` transposes them as it copies them
into the trial log, which keeps every agent's action indices and
rewards as (replications, rounds) arrays. Aggregation averages rewards
per round across replications and also reports the running cumulative
mean, which is what the convergence check and the reports consume.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .cgm import _FieldError, _check_prior, _drawer
from . import agents, model_io
from .model_io import _checked, _expect

if TYPE_CHECKING:
    from .environment import Environment

__all__ = [
    "CausalAgentConfig",
    "QLearningConfig",
    "RandomConfig",
    "AgentConfig",
    "ExperimentConfig",
    "RoundSeries",
    "TrialLog",
    "ExperimentResult",
    "default_agents",
    "config_from_dict",
    "load_experiment_config",
    "run_experiment",
    "convergence_index",
    "apply_overrides",
]

MAX_SEED = 2**64 - 1


def _whole(value: Any) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CausalAgentConfig:
    """Causal expected-utility agent: uniform Dirichlet prior weight and
    an optional exploration rate (0 means fully greedy)."""

    prior_alpha: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        _check_prior(self.prior_alpha)
        if not 0.0 <= self.epsilon <= 1.0:
            raise _FieldError("epsilon", f"exploration rate must lie in [0, 1], got {self.epsilon!r}")


@dataclass(frozen=True)
class QLearningConfig:
    """Stateless Q-learner: step size, exploration rate, initial value."""

    alpha: float = 0.1
    epsilon: float = 0.1
    q0: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise _FieldError("alpha", f"learning rate must lie in (0, 1], got {self.alpha!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise _FieldError("epsilon", f"exploration rate must lie in [0, 1], got {self.epsilon!r}")
        if not np.isfinite(self.q0):
            raise _FieldError("q0", f"initial value must be finite, got {self.q0!r}")


@dataclass(frozen=True)
class RandomConfig:
    """Uniform-random baseline; nothing to configure. Its exploration
    rate is the class constant 1, not a field, so no file can set it."""

    epsilon = 1.0


AgentConfig = CausalAgentConfig | QLearningConfig | RandomConfig

# Every agent label, with its config class and the name of its batch
# policy class in ``agents`` (a BatchPolicy), or None if it always explores.
# The name is looked up when a block runs: parsing a config never runs ``agents``.
_AGENTS: dict[str, tuple[type, str | None]] = {
    "causal": (CausalAgentConfig, "CausalBatch"),
    "qlearning": (QLearningConfig, "QBatch"),
    "random": (RandomConfig, None),
}


def _agent_kind(label: str) -> type:
    """The config class of the agent ``label``, which must be known."""
    if label not in _AGENTS:
        raise _FieldError(f"agents.{label}", f"unknown agent {label!r}; known: {', '.join(_AGENTS)}")
    return _AGENTS[label][0]


def default_agents() -> dict[str, AgentConfig]:
    """All three agents with their default hyperparameters."""
    return {label: kind() for label, (kind, _) in _AGENTS.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Run shape: rounds per replication, replication count, master
    seed, convergence threshold, agent roster, optional output paths.

    The order of ``agents`` is significant: it fixes series order in
    results, reports, and CSV output.
    """

    rounds: int = 200
    replications: int = 1000
    seed: int = 42
    epsilon: float = 0.05
    agents: Mapping[str, AgentConfig] = field(default_factory=default_agents)
    out_csv: str | None = None
    out_svg: str | None = None

    def __post_init__(self) -> None:
        for key in ("rounds", "replications"):
            value = getattr(self, key)
            if not (_whole(value) and value >= 1):
                raise _FieldError(key, f"{key} must be a positive integer, got {value!r}")
        if not (_whole(self.seed) and 0 <= self.seed <= MAX_SEED):
            raise _FieldError("seed", f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise _FieldError("epsilon", f"convergence epsilon must be positive, got {self.epsilon!r}")
        if not self.agents:
            raise _FieldError("agents", "at least one agent must be configured")
        for label, acfg in self.agents.items():
            if not isinstance(acfg, kind := _agent_kind(label)):
                raise _FieldError(f"agents.{label}", f"agent {label!r} requires a {kind.__name__}, got {type(acfg).__name__}")


@dataclass(frozen=True)
class RoundSeries:
    """One agent's aggregate learning curve.

    ``values[t]`` is the mean reward at round t+1 across replications;
    ``cumulative[t]`` is the running mean of ``values`` through t+1.
    """

    label: str
    values: tuple[float, ...]
    cumulative: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class TrialLog:
    """Every replication's full history, as arrays.

    ``actions[label]`` holds one agent's action indices into
    ``action_labels`` and ``rewards[label]`` its rewards, both of shape
    (replications, rounds), replications in index order and agents in
    roster order. ``==`` is identity; compare two runs with
    ``np.array_equal`` on their ``actions`` and ``rewards``.
    """

    action_labels: tuple[str, ...]
    actions: Mapping[str, np.ndarray]
    rewards: Mapping[str, np.ndarray]


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate series in agent-roster order plus the full trial log."""

    series: tuple[RoundSeries, ...]
    trial_log: TrialLog

    def series_for(self, label: str) -> RoundSeries:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)


def _check_keys(data: dict, doc: str) -> None:
    """Refuse a key that neither half of an experiment file knows: the environment's four, or ExperimentConfig's fields."""
    known = {"target", "desired", "actions", "utility", *ExperimentConfig.__dataclass_fields__}
    _expect(set(data) <= known, doc, f"unknown keys: {', '.join(sorted(set(data) - known))}")


def config_from_dict(data: Any, *, doc: str = "$") -> ExperimentConfig:
    """Parse the run-shape half of an experiment document; ``doc`` starts error paths.

    Environment keys (target, desired, actions, utility) are parsed by
    :func:`~causalsim.environment.environment_from_dict`; they are tolerated
    here so one file can carry both halves. Anything else unknown is
    rejected.
    """
    _expect(isinstance(data, dict), doc, "expected an object")
    _check_keys(data, doc)

    # ExperimentConfig checks rounds, replications and seed itself.
    kwargs: dict[str, Any] = {key: data[key] for key in ("rounds", "replications", "seed") if key in data}
    if "epsilon" in data:
        kwargs["epsilon"] = model_io.number(data["epsilon"], f"{doc}.epsilon")
    for key in ("out_csv", "out_svg"):
        if key in data:
            _expect(isinstance(data[key], str), f"{doc}.{key}", "expected a string")
            kwargs[key] = data[key]
    if "agents" in data:
        raw_agents = data["agents"]
        _expect(isinstance(raw_agents, dict), f"{doc}.agents", "expected an object")
        roster: dict[str, AgentConfig] = {}
        for label, block in raw_agents.items():
            where, kind = f"{doc}.agents.{label}", _checked(doc, _agent_kind, label)
            _expect(isinstance(block, dict), where, "expected an object")
            bad = sorted(set(block) - kind.__dataclass_fields__.keys())
            _expect(not bad, where, f"unknown keys: {', '.join(bad)}")
            params = {pkey: model_io.number(pval, f"{where}.{pkey}") for pkey, pval in block.items()}
            roster[label] = _checked(where, kind, **params)
        kwargs["agents"] = roster
    return _checked(doc, ExperimentConfig, **kwargs)


def load_experiment_config(path: str) -> ExperimentConfig:
    """Read the run shape from an experiment file on disk."""
    return config_from_dict(model_io.read_json(path), doc=path)


# Replications are simulated in blocks of this many. A block's random
# streams are keyed by its index, so changing it changes trajectories.
BLOCK_SIZE = 256

# Uniforms a replication reads per round before its draw: column 0
# decides whether to explore, column 1 picks the action explored.
CHOICE_DRAWS = 2

# Bytes of uniforms a block holds at once (at least one round's worth).
# Only memory depends on it: every chunk reads the same stream positions.
_CHUNK_BYTES = 8 * 2**20


def _block_stream(seed: int, block: int, label: str) -> np.random.Generator:
    """The stream one agent draws from within one block of replications.

    Keyed by (master seed, block, hashed label), so trajectories do not
    depend on roster order or on which blocks run where.
    """
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block, key))))


def _chunk_rounds(cfg: ExperimentConfig, n: int, width: int) -> int:
    """Rounds per chunk of uniforms: as many as fit in ``_CHUNK_BYTES``
    for every agent's n rows of ``width`` doubles, at least one."""
    return max(1, min(cfg.rounds, _CHUNK_BYTES // (len(cfg.agents) * n * width * 8)))


def _uniform_chunks(cfg: ExperimentConfig, block: int, n: int, width: int) -> Iterator[np.ndarray]:
    """Every agent's uniforms for one block, :func:`_chunk_rounds` rounds
    at a time.

    Each chunk has shape (agents * n, rounds in the chunk, width), agents
    in roster order. The values are those of
    ``_block_stream(seed, block, label).random((n, rounds, width))``:
    replication-major, so a replication's uniforms do not depend on how
    many replications follow it in the block. Replication r's round t
    starts at draw (r * rounds + t) * width of its agent's stream, and
    each read first advances the stream to there (PCG64 spends one step
    per double, so advancing by k skips k uniforms). When one chunk holds
    every round, an agent's n rows lie back to back in its stream as in
    the chunk, so one read fills them all.
    """
    streams = [_block_stream(cfg.seed, block, label) for label in cfg.agents]
    at = [0] * len(streams)
    chunk = _chunk_rounds(cfg, n, width)
    stride = n if chunk == cfg.rounds else 1
    for t0 in range(0, cfg.rounds, chunk):
        u = np.empty((len(streams) * n, min(chunk, cfg.rounds - t0), width))
        for i, stream in enumerate(streams):
            for r in range(0, n, stride):
                start = (r * cfg.rounds + t0) * width
                stream.bit_generator.advance((start - at[i]) % 2**128)
                stream.random(out=(rows := u[i * n + r : i * n + r + stride]))
                at[i] = start + rows.size
        yield u


def _exploration(u: np.ndarray, epsilon: float | np.ndarray, n_actions: int) -> tuple[np.ndarray, np.ndarray]:
    """The exploration schedule: where a row explores, and what.

    ``u`` holds choice uniforms, (..., CHOICE_DRAWS); a row explores
    where ``u[..., 0] < epsilon`` (``epsilon`` broadcasts against it)
    and then takes the action ``u[..., 1]`` picks uniformly from the
    menu, in the smallest action dtype. Nothing else explores.
    """
    uniform = u[..., 1] * n_actions
    np.minimum(uniform, n_actions - 1, out=uniform)
    return u[..., 0] < epsilon, uniform.astype(np.min_scalar_type(n_actions - 1))


def _run_block(env: Environment, cfg: ExperimentConfig, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's (actions, rewards) for the replications of one block,
    each (rounds, agents * replications): one row per round, agent-major.

    All agents advance in lockstep on one row per (agent, replication),
    agent-major, in one action, one outcome and one reward buffer: each
    policy is built on its rows, and the draw and the payoff gather bind
    them once. Per round: each policy writes its greedy actions into its
    rows, one ``np.copyto`` puts the explored ones over them (all the random
    agent's, which has none), one draw writes every row's outcome from its
    own uniforms, one per variable in the truth's topological order, one
    gather pays every row the utility of its target state, each policy
    learns from its rows, and the round's actions and rewards become one row
    of the block's log.
    """
    n = min(BLOCK_SIZE, cfg.replications - block * BLOCK_SIZE)
    k = len(cfg.agents)
    a, x, r = np.empty(k * n, np.intp), np.empty((k * n, len(env.truth.graph.variables)), np.intp), np.empty(k * n)
    rows = zip(a.reshape(k, n), x.reshape(k, n, -1), r.reshape(k, n))  # each agent's n rows, as views
    policies = [getattr(agents, kind)(env, acfg, *own) for (label, acfg), own in zip(cfg.agents.items(), rows) if (kind := _AGENTS[label][1])]
    epsilon = np.repeat([acfg.epsilon for acfg in cfg.agents.values()], n)
    sample, y, payoff = _drawer(env.truth.graph, env._sampler, a, x), x[:, env.truth.graph._positions[env.target]], env._payoff
    actions = np.empty((cfg.rounds, k * n), np.min_scalar_type(len(env.actions) - 1))
    rewards = np.empty(actions.shape)
    width, t = CHOICE_DRAWS + x.shape[1], 0
    for u in _uniform_chunks(cfg, block, n, width):
        u = u.swapaxes(0, 1)  # round-major: round c of the chunk is [c]
        explore, uniform = _exploration(u[..., :CHOICE_DRAWS], epsilon, len(env.actions))
        draws = u[..., CHOICE_DRAWS:]
        for c in range(len(u)):
            for policy in policies:
                policy.greedy()
            np.copyto(a, uniform[c], where=explore[c])
            sample(draws[c])
            r[...] = payoff[y]
            for policy in policies:
                policy.learn()
            actions[t + c], rewards[t + c] = a, r
        t += len(u)
    return actions, rewards


def run_experiment(
    env: Environment, cfg: ExperimentConfig, *, workers: int | None = None
) -> ExperimentResult:
    """Run every configured agent for the configured replications.

    ``workers`` > 1 spreads the blocks of replications over at most that
    many processes. Every block owns its streams and returns its rows,
    which one loop copies into the trial log in block order, whether
    the blocks ran here or in worker processes; so the output of a
    pooled run is a serial run's, byte for byte once written.
    """
    if workers is not None and not (_whole(workers) and workers >= 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    blocks = range(-(-cfg.replications // BLOCK_SIZE))
    shape = (len(cfg.agents), cfg.replications, cfg.rounds)
    actions, rewards = np.empty(shape, np.min_scalar_type(len(env.actions) - 1)), np.empty(shape)
    # Refuse what would overflow: a sum of rewards over the replications or the rounds, or twice one.
    top, n = max(abs(float(u)) for u in env.utility.values()), max(cfg.replications, cfg.rounds)
    if not np.isfinite(top * 2.0 * n):
        raise ValueError(f"utility-overflow: {n} rounds or replications of utility {top!r} overflow a float")
    pool = nullcontext()
    if workers is not None and workers > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(min(workers, len(blocks)))
    with pool as executor:
        for b, (a, r) in enumerate((executor.map if executor else map)(partial(_run_block, env, cfg), blocks)):
            # A block's log is round-major: transposed, it splits into (agents, replications, rounds) as a view.
            rows, split = slice(b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE), (len(cfg.agents), -1, cfg.rounds)
            actions[:, rows], rewards[:, rows] = a.T.reshape(split), r.T.reshape(split)
    log = TrialLog(
        tuple(a.label for a in env.actions),
        dict(zip(cfg.agents, actions)),
        dict(zip(cfg.agents, rewards)),
    )

    series = []
    denominators = np.arange(1, cfg.rounds + 1, dtype=np.float64)
    for label in cfg.agents:
        values = log.rewards[label].mean(axis=0)
        cumulative = np.cumsum(values) / denominators
        series.append(RoundSeries(label, tuple(values.tolist()), tuple(cumulative.tolist())))
    return ExperimentResult(tuple(series), log)


def _series_values(series: RoundSeries | Sequence[float] | Iterable[float]) -> tuple[float, ...]:
    if isinstance(series, RoundSeries):
        return series.values
    return tuple(float(v) for v in series)


def convergence_index(
    x: RoundSeries | Sequence[float],
    y: RoundSeries | Sequence[float],
    epsilon: float,
) -> int | None:
    """Smallest N >= 0 with |x_t - y_t| < epsilon for every round t > N.

    Rounds are 1-indexed. Returns None when no N up to length - 1
    works, that is, when even the final round differs by epsilon or
    more. Series that stay close from the start give 0.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    xs = _series_values(x)
    ys = _series_values(y)
    if len(xs) != len(ys):
        raise ValueError(f"length-mismatch: {len(xs)} rounds versus {len(ys)}")
    if not xs:
        raise ValueError("empty-series: nothing to compare")
    last_violation = 0
    for t, (a, b) in enumerate(zip(xs, ys), start=1):
        if not abs(a - b) < epsilon:
            last_violation = t
    if last_violation >= len(xs):
        return None
    return last_violation


def apply_overrides(
    cfg: ExperimentConfig,
    *,
    seed: int | None = None,
    rounds: int | None = None,
    replications: int | None = None,
    out_csv: str | None = None,
    out_svg: str | None = None,
) -> ExperimentConfig:
    """A copy of ``cfg`` with any provided fields replaced."""
    given = {"seed": seed, "rounds": rounds, "replications": replications, "out_csv": out_csv, "out_svg": out_svg}
    updates = {key: value for key, value in given.items() if value is not None}
    return replace(cfg, **updates) if updates else cfg
