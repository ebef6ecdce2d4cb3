"""Causal decision-making under uncertainty, end to end: discrete causal
models with exact interventional inference, Dirichlet beliefs over their
tables, decision agents that learn from intervention outcomes, and a
seeded experiment harness that compares them reproducibly.

Importing the package runs none of its modules. Each submodule is
registered in ``sys.modules`` and here as a lazy module, whose body runs
on its first attribute access, and each public name in ``_EXPORTS``
resolves to its home module on first use. So ``causalsim query``
executes only ``cgm``, ``model_io`` and ``cli``, ``causalsim
best-action`` adds ``environment`` and ``experiment`` and never executes
``agents``, ``beliefs`` or ``reporting``, and ``from causalsim import
X`` works for every name in ``__all__``. A body that raises leaves its
module lazy again, so every access raises that module's own error, as a
failed import would each time it is retried.
"""

import importlib.util
import sys
import types

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
        "intervene",
        "interventional_marginal",
        "interventional_query",
        "joint_probability",
        "joint_size",
        "parent_configurations",
        "query",
        "sample",
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
        "update",
    ),
    "agents": (
        "causal_choose",
        "causal_learn",
        "q_choose",
        "q_learn",
        "random_choose",
    ),
    "environment": (
        "Action",
        "Environment",
        "StepRecord",
        "UtilityFunction",
        "best_action",
        "environment_block_to_dict",
        "environment_from_dict",
        "expected_utility",
        "load_environment",
        "step",
    ),
    "experiment": (
        "AgentConfig",
        "CausalAgentConfig",
        "ExperimentConfig",
        "ExperimentResult",
        "QLearningConfig",
        "RandomConfig",
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


class _LazyModule(types.ModuleType):
    """A registered submodule whose body has not run yet.

    The first attribute access turns it into a plain module and runs its
    body. If the body raises, the module gets back the namespace it had
    before and stays lazy, so nothing half-built is left behind: the
    next access runs the body again and raises the same error.
    """

    def __getattribute__(self, attr: str):
        namespace = object.__getattribute__(self, "__dict__")
        before = dict(namespace)
        self.__class__ = types.ModuleType
        try:
            namespace["__spec__"].loader.exec_module(self)
        except BaseException:
            namespace.clear()
            namespace.update(before)
            self.__class__ = _LazyModule
            raise
        return getattr(self, attr)


def _register_lazily(module: str) -> None:
    """Put ``causalsim.<module>`` in ``sys.modules`` and in this namespace
    without running its body."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    lazy = importlib.util.module_from_spec(spec)
    lazy.__class__ = _LazyModule
    sys.modules[spec.name] = lazy
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
