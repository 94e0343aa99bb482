"""Shared domain types: tabular datasets, black-box model handles, losses, sampling.

Everything here is immutable after construction and safe to share across
threads. Stochastic operations never touch global RNG state; they take an
explicit seed or a ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

OutputKind = Literal["scalar", "probs", "label"]
GradientCapability = Literal["exact", "finite-difference", "none"]

PROB_SUM_TOL = 1e-6
CROSS_ENTROPY_CLIP = 1e-12


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


class UnsupportedOperation(RuntimeError):
    """The model lacks a capability required by the operation."""


class UndefinedCorrelation(ArithmeticError):
    """A rank correlation is undefined (a rank vector is constant)."""


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TabularDataset:
    """Fixed-width real-valued samples with optional integer class labels."""

    features: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[1] < 1 or feats.shape[0] < 1:
            raise ContractViolation("features must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(feats)):
            raise ContractViolation("features contain non-finite values")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64)
            if labels.shape != (feats.shape[0],):
                raise ContractViolation("labels must be one integer per sample")
            if labels.min() < 0:
                raise ContractViolation("labels must be nonnegative class indices")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)
        if self.feature_names is not None:
            names = tuple(str(n) for n in self.feature_names)
            if len(names) != feats.shape[1]:
                raise ContractViolation("feature_names length must match width")
            object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ContractViolation("dataset has no labels")
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class ModelHandle:
    """A black-box predictor plus its declared capabilities.

    ``predict_fn`` maps an ``(n, arity)`` matrix of rows to n predictions
    whose form depends on ``output_kind``: floats for ``scalar``, an
    ``(n, classes)`` matrix of probability rows for ``probs``, integer class
    indices for ``label``. It is the one way the model is evaluated; a single
    point is a one-row batch. ``gradient_fn``, when present, takes
    ``(x, target)`` and returns the exact gradient of the scalar output (or of
    the target-class probability).
    """

    arity: int
    output_kind: OutputKind
    predict_fn: Callable
    gradient_fn: Callable | None = None
    gradient_capability: GradientCapability = "none"
    name: str = "model"

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.arity,):
            raise ContractViolation(
                f"model {self.name!r} takes {self.arity} inputs, got shape {x.shape}"
            )
        return x

    def _check_finite(self, y):
        if not np.isfinite(y).all():
            raise FloatingPointError(f"model {self.name!r} returned a non-finite output")

    def predict(self, x):
        y = self.predict_batch(self._check_point(x)[None, :])[0]
        if self.output_kind == "scalar":
            return float(y)
        return y if self.output_kind == "probs" else int(y)

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.arity:
            raise ContractViolation("batch must be (n, arity)")
        out = np.asarray(self.predict_fn(X))
        self._check_finite(out)
        ndim = 2 if self.output_kind == "probs" else 1
        if out.ndim != ndim or len(out) != len(X):
            raise ContractViolation(f"model {self.name!r} returned shape {out.shape} "
                                    f"for {len(X)} rows of {self.output_kind!r} output")
        if self.output_kind == "probs":
            if np.any(out < -PROB_SUM_TOL) or np.any(np.abs(out.sum(axis=1) - 1.0) > PROB_SUM_TOL):
                raise ContractViolation("class-probability rows must be nonnegative and sum to 1")
        return out

    def predict_labels(self, X) -> np.ndarray:
        out = self.predict_batch(X)
        if self.output_kind == "label":
            return out.astype(np.int64)
        if self.output_kind == "probs":
            return np.argmax(out, axis=1).astype(np.int64)  # ties resolve to the lowest index
        raise ContractViolation("scalar models have no class labels")


@dataclass(frozen=True)
class LossFunction:
    """Pointwise performance measure between a reference prediction and another."""

    kind: Literal["zero-one", "squared-error", "cross-entropy"]


ZERO_ONE = LossFunction("zero-one")
SQUARED_ERROR = LossFunction("squared-error")
CROSS_ENTROPY = LossFunction("cross-entropy")

_LOSSES = {l.kind: l for l in (ZERO_ONE, SQUARED_ERROR, CROSS_ENTROPY)}


def loss_by_name(kind: str) -> LossFunction:
    try:
        return _LOSSES[kind]
    except KeyError:
        raise ContractViolation(f"unknown loss kind {kind!r}") from None


def _is_vector(y) -> bool:
    return isinstance(y, np.ndarray) and y.ndim == 1 and y.size > 1


def evaluate_loss(loss: LossFunction, y_ref, y) -> float:
    """Pointwise loss l(y_ref, y); both predictions must share a representation.

    The reference form of ``evaluate_loss_batch``, which the metrics use.
    """
    if loss.kind == "zero-one":
        if _is_vector(y_ref) != _is_vector(y):
            raise ContractViolation("zero-one loss needs predictions of the same kind")
        if _is_vector(y_ref):
            y_ref, y = int(np.argmax(y_ref)), int(np.argmax(y))
        return 0.0 if int(y_ref) == int(y) else 1.0
    if loss.kind == "squared-error":
        if _is_vector(y_ref) != _is_vector(y):
            raise ContractViolation("squared-error loss needs predictions of the same kind")
        if _is_vector(y_ref):
            d = np.asarray(y_ref, float) - np.asarray(y, float)
            return float(d @ d)
        return float(y_ref - y) ** 2
    if loss.kind == "cross-entropy":
        if not (_is_vector(y_ref) and _is_vector(y)):
            raise ContractViolation("cross-entropy needs probability vectors on both sides")
        q = np.clip(np.asarray(y, float), CROSS_ENTROPY_CLIP, None)
        return float(-(np.asarray(y_ref, float) * np.log(q)).sum())
    raise ContractViolation(f"unknown loss kind {loss.kind!r}")


def batch_predictions(model: ModelHandle, X, loss: LossFunction) -> np.ndarray:
    """One batch call, in the representation the loss consumes: labels for zero-one."""
    if loss.kind == "zero-one":
        return model.predict_labels(X)
    return model.predict_batch(X)


def evaluate_loss_batch(loss: LossFunction, y_ref, batch: np.ndarray) -> np.ndarray:
    """Vectorized loss of a batch of predictions against one reference."""
    batch = np.asarray(batch)
    if loss.kind == "zero-one":
        if batch.ndim == 2:
            batch = np.argmax(batch, axis=1)
            y_ref = int(np.argmax(y_ref)) if _is_vector(y_ref) else int(y_ref)
        return (batch != y_ref).astype(float)
    if loss.kind == "squared-error":
        if batch.ndim == 2:
            d = batch - np.asarray(y_ref, float)[None, :]
            return np.einsum("ij,ij->i", d, d)
        return (batch.astype(float) - float(y_ref)) ** 2
    if loss.kind == "cross-entropy":
        if batch.ndim != 2:
            raise ContractViolation("cross-entropy needs probability vectors on both sides")
        q = np.clip(batch.astype(float), CROSS_ENTROPY_CLIP, None)
        return -(np.asarray(y_ref, float)[None, :] * np.log(q)).sum(axis=1)
    raise ContractViolation(f"unknown loss kind {loss.kind!r}")


@dataclass(frozen=True)
class FeatureDistribution:
    """Independent per-feature (marginal) sampling used by expectation estimates.

    ``uniform`` draws every column over the half-open interval ``bounds``;
    ``empirical`` resamples each column, with replacement, from the rows of
    ``data``. Exactly one of the two is set.
    """

    arity: int
    bounds: tuple[float, float] | None = None
    data: np.ndarray | None = None

    @classmethod
    def uniform(cls, arity: int, low: float = 0.0, high: float = 1.0) -> "FeatureDistribution":
        if not (high > low and np.isfinite(high - low)):
            raise ContractViolation("uniform sampling needs finite bounds with high > low")
        return cls(arity, bounds=(low, high))

    @classmethod
    def empirical(cls, data) -> "FeatureDistribution":
        feats = data.features if isinstance(data, TabularDataset) else _frozen_array(data)
        if feats.ndim != 2 or feats.size == 0:
            raise ContractViolation("empirical sampling needs a non-empty 2-D matrix")
        return cls(feats.shape[1], data=feats)

    def sample_matrix(self, indices: Sequence[int], n: int, rng: np.random.Generator) -> np.ndarray:
        """Independent joint draws for the given columns, shape (n, len(indices)):
        one ``rng`` call per column, in the order given."""
        if self.data is None:
            return np.column_stack([rng.uniform(*self.bounds, size=n) for _ in indices])
        rows = len(self.data)
        return np.column_stack([self.data[rng.integers(0, rows, size=n), i] for i in indices])


def finite_difference_gradient(model: ModelHandle, x, target: int | None = None) -> np.ndarray:
    """Central finite differences with per-coordinate step 1e-5 * max(1, |x_i|).

    All 2 * arity points go to the model as one batch, in the order
    x + h_0 e_0, x - h_0 e_0, x + h_1 e_1, ... A ``probs`` model needs the
    target class; ``gradient`` resolves it.
    """
    x = np.array(x, dtype=float)
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)
    y = model.predict_batch(x + np.stack([steps, -steps], axis=1).reshape(-1, x.size))
    if model.output_kind == "probs":
        y = y[:, target]
    return (y[0::2] - y[1::2]) / (2 * h)


def gradient(model: ModelHandle, x, target: int | None = None) -> np.ndarray:
    """Gradient of the model's scalar output (or target-class probability) at x."""
    if model.gradient_capability == "none":
        raise UnsupportedOperation(f"model {model.name!r} does not support gradients")
    if model.output_kind == "label":
        raise UnsupportedOperation("label-only outputs are not differentiable")
    x = model._check_point(x)
    if model.output_kind == "probs" and target is None:
        target = int(np.argmax(model.predict(x)))
    if model.gradient_capability == "exact" and model.gradient_fn is not None:
        g = np.asarray(model.gradient_fn(x, target), dtype=float)
        model._check_finite(g)
        return g
    return finite_difference_gradient(model, x, target)
