"""The black-box model handle and the one output rule, which its predictions
and the replies of an ``exec:`` child (``protocol.read_reply``) both pass.

Kept apart from ``core`` so that a process that only serves a model (the
reference ``exec:`` server) loads this much and not the datasets, losses and
sampling of ``core``, which re-exports the handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, get_args

import numpy as np

OutputKind = Literal["scalar", "probs", "label"]
GradientCapability = Literal["exact", "finite-difference", "none"]

PROB_SUM_TOL = 1e-6
INT64_MAX = np.int64(2 ** 63 - 1)  # not a Python int, which a bool array cannot compare with


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


def check_outputs(Y: np.ndarray, kind: str, who: str, error: type[Exception]) -> None:
    """The output rule for n predictions ``Y`` of ``kind``, of their shape: all finite; a
    ``label`` a nonnegative integer that int64 can hold; a ``probs`` row nonnegative and
    summing to 1, both within ``PROB_SUM_TOL``; values of another kind, such as the rows
    of an ``exec:`` gradient reply, only finite. At the first row that breaks it, raises
    FloatingPointError for a non-finite value, else ``error``, naming ``who`` and the row."""
    nonfinite = ~np.isfinite(Y)
    bad = nonfinite  # per entry; a probs row that does not sum to 1 marks all of its entries
    if kind == "probs":
        with np.errstate(all="ignore"):  # a row may sum beyond the range or to nan
            off = np.abs(Y.sum(axis=1, keepdims=True) - 1.0) > PROB_SUM_TOL
        bad = nonfinite | (Y < -PROB_SUM_TOL) | off
    elif kind == "label":  # a float label must be whole and below 2^63
        whole = (Y == np.floor(Y)) & (Y < 2.0 ** 63) if Y.dtype.kind == "f" else Y <= INT64_MAX
        bad = nonfinite | (Y < 0) | ~whole
    if not bad.any():  # the accepted path tests whole arrays, never row by row
        return
    i = int(np.argmax(bad.reshape(len(Y), -1).any(axis=1)))
    shown = f"at row {i}: {Y[i].tolist()!r:.200}"
    if nonfinite[i].any():
        raise FloatingPointError(f"{who} returned a non-finite output {shown}")
    fault = ("a negative class probability or a row that does not sum to 1" if kind == "probs"
             else "a negative class index" if Y[i] < 0
             else "a class index that is not an integer int64 can hold")
    raise error(f"{who} returned {fault} {shown}")


@dataclass(frozen=True)
class ModelHandle:
    """A black-box predictor plus its declared capabilities.

    ``predict_fn`` maps an ``(n, arity)`` matrix of rows to n predictions
    whose form depends on ``output_kind``: floats for ``scalar``, an
    ``(n, classes)`` matrix of probability rows for ``probs``, integer class
    indices for ``label``. It is the one way the model is evaluated; a single
    point is a one-row batch. ``gradient_fn``, which ``exact`` gradients need,
    takes ``(X, target)``, an ``(n, arity)`` matrix of rows and a class or None,
    and returns the ``(n, arity)`` matrix of the exact gradients of the scalar
    output (or of the target-class probability) at those rows, as ``predict_fn``
    takes rows. Other declarations are refused.
    """

    arity: int
    output_kind: OutputKind
    predict_fn: Callable
    gradient_fn: Callable | None = None
    gradient_capability: GradientCapability = "none"
    name: str = "model"

    def __post_init__(self):
        for field, allowed in (("output_kind", get_args(OutputKind)),
                               ("gradient_capability", get_args(GradientCapability))):
            if getattr(self, field) not in allowed:
                raise ContractViolation(f"model {self.name!r}: {field} must be one of "
                                        f"{allowed}, got {getattr(self, field)!r}")
        if self.gradient_capability == "exact" and self.gradient_fn is None:
            raise ContractViolation(f"model {self.name!r}: gradient_capability 'exact' "
                                    "needs a gradient_fn")

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.arity,):
            raise ContractViolation(
                f"model {self.name!r} takes {self.arity} inputs, got shape {x.shape}"
            )
        return x

    def _check_rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.arity:
            raise ContractViolation("batch must be (n, arity)")
        return X

    def checked_gradients(self, G, n: int) -> np.ndarray:
        """``G`` as this model's gradients at n rows: an ``(n, arity)`` matrix, all finite."""
        G = np.asarray(G, dtype=float)
        if G.shape != (n, self.arity):
            raise ContractViolation(f"model {self.name!r} returned gradients of shape "
                                    f"{G.shape} for {n} rows of {self.arity} inputs")
        if not np.isfinite(G).all():
            raise FloatingPointError(f"model {self.name!r} has a non-finite gradient")
        return G

    def predict(self, x):
        y = self.predict_batch(self._check_point(x)[None, :])[0]
        if self.output_kind == "scalar":
            return float(y)
        return y if self.output_kind == "probs" else int(y)

    def predict_batch(self, X) -> np.ndarray:
        X = self._check_rows(X)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below as non-finite
            out = np.asarray(self.predict_fn(X))
        # n predictions of the kind's shape; n > 0 probability rows have classes
        if out.ndim != (2 if self.output_kind == "probs" else 1) or len(out) != len(X) \
                or out.size == 0 < len(X):
            raise ContractViolation(f"model {self.name!r} returned shape {out.shape} "
                                    f"for {len(X)} rows of {self.output_kind!r} output")
        check_outputs(out, self.output_kind, f"model {self.name!r}", ContractViolation)
        return out

    def predict_labels(self, X) -> np.ndarray:
        """The label rule: the class index of each row's prediction, a ``label``
        model's own or the argmax of a ``probs`` row (lowest index on a tie)."""
        out = self.predict_batch(X)
        if self.output_kind == "label":
            return out.astype(np.int64)
        if self.output_kind == "probs":
            return np.argmax(out, axis=1).astype(np.int64)
        raise ContractViolation("scalar models have no class labels")
