"""Shared domain types: tabular datasets, black-box model handles, losses, sampling.

Everything here is immutable after construction and safe to share across
threads. Stochastic operations never touch global RNG state; they take an
explicit seed or a ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

# the model handle lives in its own module, which the exec: server loads
# without the rest of core; core re-exports it with the tolerance it checks
from .handle import PROB_SUM_TOL, ContractViolation, ModelHandle

CROSS_ENTROPY_CLIP = 1e-12
# Entries in one block of an n²-sized pass (512 KB of doubles): the pairwise
# distances of the MI estimators and of example-eval, the split search's prefix
# class counts and the k-medoids pricing each hold a few such blocks at a time.
BLOCK = 1 << 16


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
        with np.errstate(over="ignore"):
            d = batch.astype(float) - np.asarray(y_ref, float)
            losses = np.einsum("ij,ij->i", d, d) if d.ndim == 2 else d * d
        if not np.isfinite(losses).all():
            raise FloatingPointError("the squared-error loss overflowed to a non-finite value")
        return losses
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
    x + h_0 e_0, x - h_0 e_0, x + h_1 e_1, ...; a step that overflows is a
    FloatingPointError naming its coordinate. A ``probs`` model needs the
    target class; ``gradient`` resolves it.
    """
    x = np.array(x, dtype=float)
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    with np.errstate(over="ignore"):
        out = np.flatnonzero(np.abs(x) + h == np.inf)
    if out.size:
        raise FloatingPointError(f"the finite-difference step at coordinate {out[0]} overflows")
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
