import math
import pathlib

import pytest
from hypothesis import settings

from simpvex import runner
from simpvex.bounds import FunctionModel

DATA_DIR = pathlib.Path(__file__).parent / "data"

# same examples on every run, and no per-example time limit on a loaded machine
settings.register_profile("simpvex", derandomize=True, deadline=None)
settings.load_profile("simpvex")


def build_model(f, df, F=None, K=(-10.0, 10.0), d4sup=None, name="model"):
    """FunctionModel from expression strings, without the validate gates."""
    cfg = {"name": name, "f": f, "df": df, "F": F, "d4sup": d4sup, "K": list(K)}
    return FunctionModel.from_config(cfg)


@pytest.fixture
def make_model():
    return build_model


@pytest.fixture
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def corpus_report():
    # one shared full run; anything order-dependent must not mutate it
    return runner.run_corpus()


@pytest.fixture
def exp_model():
    return build_model("exp(x)", "exp(x)", "exp(x)", d4sup=math.e, name="exp")


@pytest.fixture
def square_model():
    return build_model("x^2", "2*x", "(x^3)/3", name="square")
