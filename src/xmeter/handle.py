"""The black-box model handle and the contract checks its predictions pass.

Kept apart from ``core`` so that a process that only serves a model (the
reference ``exec:`` server) loads this much and not the datasets, losses and
sampling of ``core``, which re-exports every name here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

OutputKind = Literal["scalar", "probs", "label"]
GradientCapability = Literal["exact", "finite-difference", "none"]

PROB_SUM_TOL = 1e-6


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


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
