from pathlib import Path

import pytest

from causalsim import load_model, medic_scenario, model_from_dict

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"


@pytest.fixture(scope="session")
def medic_env():
    return medic_scenario()


@pytest.fixture(scope="session")
def medic_model(medic_env):
    return medic_env.truth


@pytest.fixture(scope="session")
def chain64_model():
    """The shipped 64-variable binary chain X0 -> ... -> X63: P(X0=1) =
    0.5, and each later variable keeps its parent's state with
    probability 0.9 from "0" and 0.8 from "1"."""
    return load_model(str(SAMPLE_DIR / "chain64_model.json"))


@pytest.fixture()
def chain_model():
    """A -> Y with P(A=1) = 0.5, P(Y=1|A=1) = 0.8, P(Y=1|A=0) = 0.2."""
    return model_from_dict(
        {
            "variables": [
                {"name": "A", "states": ["0", "1"]},
                {"name": "Y", "states": ["0", "1"]},
            ],
            "parents": {"A": [], "Y": ["A"]},
            "cpts": {
                "A": [{"p": [0.5, 0.5]}],
                "Y": [
                    {"given": {"A": "0"}, "p": [0.8, 0.2]},
                    {"given": {"A": "1"}, "p": [0.2, 0.8]},
                ],
            },
        }
    )


@pytest.fixture()
def fair_pair_model():
    """Two independent fair binary variables."""
    return model_from_dict(
        {
            "variables": [
                {"name": "A", "states": ["0", "1"]},
                {"name": "B", "states": ["0", "1"]},
            ],
            "parents": {"A": [], "B": []},
            "cpts": {"A": [{"p": [0.5, 0.5]}], "B": [{"p": [0.5, 0.5]}]},
        }
    )
