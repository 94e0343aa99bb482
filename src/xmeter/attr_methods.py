"""Reference feature-attribution methods judged by the metric suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, ModelHandle, explained_class, gradient


@dataclass(frozen=True)
class AttributionVector:
    """Signed per-feature importances for one explained point."""

    point: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        point = np.array(self.point, dtype=float)
        values = np.array(self.values, dtype=float)
        if values.shape != point.shape or point.ndim != 1:
            raise ContractViolation("values must be one finite real per feature")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(point))):
            raise ContractViolation("attribution point/values must be finite")
        point.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "values", values)

    @property
    def arity(self) -> int:
        return self.values.size


def _computed(x: np.ndarray, values: np.ndarray, method: str) -> AttributionVector:
    """The attribution of finite ``values`` computed at x. Values whose arithmetic
    overflowed are a numeric failure (FloatingPointError), not a bad input."""
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"the {method} attribution overflowed to a non-finite value")
    return AttributionVector(x, values, method)


def saliency(model: ModelHandle, x_star) -> AttributionVector:
    """Plain gradient of the explained output at the point."""
    x = np.asarray(x_star, dtype=float)
    return AttributionVector(x, gradient(model, x), "saliency")


def input_x_gradient(model: ModelHandle, x_star) -> AttributionVector:
    """Gradient multiplied coordinatewise by the input."""
    x = np.asarray(x_star, dtype=float)
    g = gradient(model, x)
    with np.errstate(over="ignore", invalid="ignore"):
        values = x * g
    return _computed(x, values, "input-x-gradient")


def integrated_gradients(model: ModelHandle, x_star, baseline=None,
                         steps: int = 64) -> AttributionVector:
    """Path integral of gradients from a baseline, midpoint Riemann sum.

    a_i = (x*_i - b_i) * (1/steps) * sum_t df/dx_i(b + (t - 1/2)/steps * (x* - b)).
    The midpoint rule avoids gradient evaluations at the endpoints.
    """
    x = np.asarray(x_star, dtype=float)
    b = np.zeros_like(x) if baseline is None else np.asarray(baseline, dtype=float)
    if b.shape != x.shape:
        raise ContractViolation("baseline must have the same arity as the point")
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    target = explained_class(model, x)
    grads = [gradient(model, b + (t + 0.5) / steps * (x - b), target=target)
             for t in range(steps)]
    acc = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for g in grads:
            acc += g
        values = (x - b) * acc / steps
    return _computed(x, values, "integrated-gradients")


def random_attribution(x_star, seed: int) -> AttributionVector:
    """I.i.d. uniform [-1, 1] attributions with exact zeros resampled away."""
    x = np.asarray(x_star, dtype=float)
    if x.size < 1:
        raise ContractViolation("arity must be >= 1")
    rng = np.random.default_rng([seed, 21])
    values = rng.uniform(-1.0, 1.0, size=x.size)
    while np.any(values == 0.0):
        zeros = values == 0.0
        values[zeros] = rng.uniform(-1.0, 1.0, size=int(zeros.sum()))
    return AttributionVector(x, values, "random")


def compute_attribution(method: str, model: ModelHandle, x_star,
                        seed: int = 0, steps: int = 64) -> AttributionVector:
    """Dispatch by method name; 'random' ignores the model."""
    if method == "saliency":
        return saliency(model, x_star)
    if method == "inpxgrad":
        return input_x_gradient(model, x_star)
    if method == "intgrad":
        return integrated_gradients(model, x_star, steps=steps)
    if method == "random":
        return random_attribution(x_star, seed)
    raise ContractViolation(f"unknown attribution method {method!r}")
