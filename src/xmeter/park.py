"""The six-variable analytic test function of the attribution benchmarks.

f(x) = (2/3) e^(x0+x1) - x3 sin(x2) + x2 on [0, 1)^6, with an exact gradient.
It needs only numpy and ``handle``, so the reference model server, which serves
it, starts without the tree, generator and token-benchmark code of ``bench``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .handle import ModelHandle

PARK_ARITY = 6
# The evaluation point used throughout the attribution benchmarks.
PARK_POINT = (0.24, 0.48, 0.56, 0.99, 0.68, 0.86)


class DomainWarning(UserWarning):
    """Evaluation outside a model's declared domain (result still returned)."""


def park_batch(X) -> np.ndarray:
    """f(x) = (2/3) e^(x0+x1) - x3 sin(x2) + x2 for each row x, defined on [0, 1)^6.

    Coordinates x4 and x5 are inert: the function has no dependence on them.
    """
    X = np.asarray(X, dtype=float)
    return (2.0 / 3.0) * np.exp(X[:, 0] + X[:, 1]) - X[:, 3] * np.sin(X[:, 2]) + X[:, 2]


def park_gradient(X) -> np.ndarray:
    """The exact gradient of f at each row of X, or at the point X: an array of X's shape."""
    X = np.asarray(X, dtype=float)
    e = (2.0 / 3.0) * np.exp(X[..., 0] + X[..., 1])
    zero = np.zeros_like(e)
    return np.stack([e, e, 1.0 - X[..., 3] * np.cos(X[..., 2]), -np.sin(X[..., 2]), zero, zero],
                    axis=-1)


def park_model() -> ModelHandle:
    """Regression handle for the six-variable test function, with exact gradient."""

    def predict(X):
        if (X < 0.0).any() or (X >= 1.0).any():
            warnings.warn("point outside [0, 1)^6; evaluating anyway", DomainWarning, stacklevel=3)
        return park_batch(X)

    return ModelHandle(
        arity=PARK_ARITY,
        output_kind="scalar",
        predict_fn=predict,
        gradient_fn=lambda X, target=None: park_gradient(X),
        gradient_capability="exact",
        name="park",
    )
