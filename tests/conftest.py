import numpy as np
import pytest

from xmeter import bench
from xmeter.core import FeatureDistribution, SQUARED_ERROR
from xmeter.attr_metrics import ExpectationConfig


@pytest.fixture(scope="session")
def park():
    return bench.park_model()


@pytest.fixture(scope="session")
def park_point():
    return np.asarray(bench.PARK_POINT)


@pytest.fixture
def park_cfg():
    return ExpectationConfig(
        distribution=FeatureDistribution.uniform(6),
        loss=SQUARED_ERROR,
        n_mc_samples=5000,
        seed=0,
    )


def constant_model(arity, value=2.5):
    from xmeter.core import ModelHandle

    return ModelHandle(
        arity=arity,
        output_kind="scalar",
        predict_fn=lambda X: np.full(len(X), value),
        gradient_fn=lambda x, target=None: np.zeros(arity),
        gradient_capability="exact",
        name="constant",
    )


def linear_model(weights):
    from xmeter.core import ModelHandle

    w = np.asarray(weights, dtype=float)
    return ModelHandle(
        arity=w.size,
        output_kind="scalar",
        predict_fn=lambda X: X @ w,
        gradient_fn=lambda x, target=None: w.copy(),
        gradient_capability="exact",
        name="linear",
    )
