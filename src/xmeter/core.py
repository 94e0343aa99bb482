"""Shared domain types: tabular datasets, black-box model handles, losses, sampling.

Everything here is immutable after construction and safe to share across
threads. Stochastic operations never touch global RNG state; they take an
explicit seed or a ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .handle import ContractViolation, ModelHandle

CROSS_ENTROPY_CLIP = 1e-12
# Entries in one block of an n²-sized pass (512 KB of doubles): the pairwise
# distances of the MI estimators and of example-eval, the split search's prefix
# class counts and the k-medoids pricing each hold a few such blocks at a time.
BLOCK = 1 << 16
# Rows per model request over exec: (cli.ExternalModel) and per chunk of an
# integrated-gradients path, which holds one chunk of its gradients at a time.
BATCH_ROWS = 1000


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


def batch_predictions(model: ModelHandle, X, loss: LossFunction) -> np.ndarray:
    """One batch call, in the representation the loss consumes: labels for zero-one."""
    if loss.kind == "zero-one":
        return model.predict_labels(X)
    return model.predict_batch(X)


def evaluate_loss_batch(loss: LossFunction, y_ref, batch: np.ndarray) -> np.ndarray:
    """Vectorized loss of a batch of predictions against one reference; zero-one
    loss takes class labels (``batch_predictions`` gives them)."""
    batch = np.asarray(batch)
    if loss.kind == "zero-one":
        if batch.ndim != 1 or np.ndim(y_ref) != 0:
            raise ContractViolation("zero-one loss takes class labels")
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


def explained_class(model: ModelHandle, x: np.ndarray) -> int | None:
    """The class a gradient at x explains: x's label for ``probs`` output, else None."""
    return int(model.predict_labels(x[None])[0]) if model.output_kind == "probs" else None


def gradient(model: ModelHandle, x, target: int | None = None) -> np.ndarray:
    """Gradient of the model's scalar output (or of the target-class probability) at
    the point x, or at each row of an ``(n, arity)`` matrix x: finite floats of x's
    shape, else FloatingPointError. A point's target is by default its class; the
    rows of a ``probs`` model need one. Each row's gradient is bit for bit the one
    of that row alone.

    Without an exact gradient, central finite differences with per-coordinate
    step h_i = 1e-5 * max(1, |x_i|): the 2 * arity points of each row, in the order
    x + h_0 e_0, x - h_0 e_0, x + h_1 e_1, ..., go to the model as one batch per
    row; a step that overflows, at any row, is a FloatingPointError naming its
    coordinate before any model call.
    """
    if model.gradient_capability == "none":
        raise UnsupportedOperation(f"model {model.name!r} does not support gradients")
    if model.output_kind == "label":
        raise UnsupportedOperation("label-only outputs are not differentiable")
    point = np.ndim(x) != 2
    X = model._check_point(x)[None] if point else model._check_rows(x)
    if target is None and model.output_kind == "probs":
        if not point:
            raise ContractViolation("gradients at many rows of a probs model need a target")
        target = explained_class(model, X[0])
    if model.gradient_capability == "exact":
        G = model.gradient_fn(X, target)
    else:
        G = _finite_differences(model, X, target)
    G = model.checked_gradients(G, len(X))
    return G[0] if point else G


def _finite_differences(model: ModelHandle, X: np.ndarray, target: int | None) -> np.ndarray:
    """The central-difference gradients of ``gradient`` at the rows of X."""
    n, d = X.shape
    H = 1e-5 * np.maximum(1.0, np.abs(X))
    with np.errstate(over="ignore"):
        out = np.argwhere(np.abs(X) + H == np.inf)
    if out.size:
        row = f" of row {out[0, 0]}" if n > 1 else ""
        raise FloatingPointError(f"the finite-difference step at coordinate {out[0, 1]}{row} "
                                 "overflows")
    G = np.empty_like(X)
    for i, (x, h) in enumerate(zip(X, H)):
        steps = np.diag(h)
        y = model.predict_batch(x + np.stack([steps, -steps], axis=1).reshape(-1, d))
        if model.output_kind == "probs":
            y = y[:, target]
        with np.errstate(over="ignore"):
            G[i] = (y[0::2] - y[1::2]) / (2 * h)
    return G
