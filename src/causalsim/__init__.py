"""Causal decision-making under uncertainty, end to end: discrete causal
models with exact interventional inference, Dirichlet beliefs over their
tables, decision agents that learn from intervention outcomes, and a
seeded experiment harness that compares them reproducibly.

Importing the package runs none of its modules. Each submodule is
registered in ``sys.modules`` and here as a lazy module
(:class:`importlib.util.LazyLoader`), whose body runs on its first
attribute access, and each public name in ``_EXPORTS`` resolves to its
home module on first use. So ``causalsim query`` executes only ``cgm``,
``model_io`` and ``cli``, and ``causalsim best-action`` never executes
``reporting``; ``from causalsim import X`` works for every name in
``__all__``.
"""

import importlib.util
import sys

# Each submodule and the public names it contributes to the package.
_EXPORTS = {
    "cgm": (
        "MAX_FACTOR_STATES",
        "ROW_SUM_TOL",
        "Assignment",
        "CausalGraph",
        "CausalModel",
        "Cpt",
        "Intervention",
        "InvalidModelError",
        "ValidationIssue",
        "VariableSpec",
        "ensure_valid",
        "intervene",
        "interventional_marginal",
        "interventional_query",
        "joint_probability",
        "joint_size",
        "parent_configurations",
        "query",
        "sample",
        "validate",
        "validate_graph",
    ),
    "model_io": (
        "FormatError",
        "graph_from_dict",
        "graph_to_dict",
        "load_model",
        "model_from_dict",
        "model_to_dict",
        "read_json",
        "save_model",
    ),
    "beliefs": (
        "BeliefState",
        "DirichletRow",
        "beliefs_from_dict",
        "beliefs_to_dict",
        "init_uniform",
        "posterior_mean",
        "total_pseudo_count",
        "update",
    ),
    "agents": (
        "Action",
        "AgentRecord",
        "CausalAgentState",
        "QAgentState",
        "UtilityFunction",
        "best_action",
        "causal_choose",
        "causal_learn",
        "expected_utility",
        "q_choose",
        "q_learn",
        "random_choose",
    ),
    "environment": (
        "Environment",
        "StepRecord",
        "environment_block_to_dict",
        "environment_from_dict",
        "load_environment",
        "medic_scenario",
        "step",
    ),
    "experiment": (
        "AgentConfig",
        "CausalAgentConfig",
        "ExperimentConfig",
        "ExperimentResult",
        "QLearningConfig",
        "RandomConfig",
        "ReplicationLog",
        "RoundSeries",
        "TrialLog",
        "apply_overrides",
        "config_from_dict",
        "convergence_index",
        "default_agents",
        "load_experiment_config",
        "run_experiment",
    ),
    "reporting": ("write_csv", "write_svg"),
    "cli": ("cli_main", "main"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def _register_lazily(module: str) -> None:
    """Put ``causalsim.<module>`` in ``sys.modules`` and in this namespace
    without running its body (the stdlib ``LazyLoader`` recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register_lazily(_module)
del _module


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
