"""Built-in benchmark assets: analytic test function, Gini decision tree, generators.

The generators are bit-reproducible per seed and small enough to run on a
laptop; they stand in for large-scale image/text corpora while exhibiting the
same metric phenomena.

One split search, ``_best_split``, serves the tree (Gini) and the entropy
discretizer in ``mi``, with one tolerance rule: it scores every midpoint cut
of every column at once from prefix class counts, as the impurity gain per
row (parent minus count-weighted child impurity, divided by the row count),
and keeps the lowest (feature, threshold) whose gain exceeds 2e-12 and beats
every earlier cut by more than 1e-12. Measured per row, the rounding noise of
a zero-gain cut stays far below 2e-12 at any node size.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import ContractViolation, ModelHandle, TabularDataset

PARK_ARITY = 6
# The evaluation point used throughout the attribution benchmarks.
PARK_POINT = (0.24, 0.48, 0.56, 0.99, 0.68, 0.86)


class DomainWarning(UserWarning):
    """Evaluation outside a model's declared domain (result still returned)."""


def park_value(x) -> float:
    """f(x) = (2/3) e^(x0+x1) - x3 sin(x2) + x2, defined on [0, 1)^6.

    Coordinates x4 and x5 are inert: the function has no dependence on them.
    """
    x = np.asarray(x, dtype=float)
    return float((2.0 / 3.0) * np.exp(x[0] + x[1]) - x[3] * np.sin(x[2]) + x[2])


def park_batch(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return (2.0 / 3.0) * np.exp(X[:, 0] + X[:, 1]) - X[:, 3] * np.sin(X[:, 2]) + X[:, 2]


def park_gradient(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    e = (2.0 / 3.0) * np.exp(x[0] + x[1])
    return np.array([e, e, 1.0 - x[3] * np.cos(x[2]), -np.sin(x[2]), 0.0, 0.0])


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
        gradient_fn=lambda x, target=None: park_gradient(x),
        gradient_capability="exact",
        name="park",
    )


# ---------------------------------------------------------------------------
# CART decision tree (Gini impurity, midpoint thresholds, deterministic ties)
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    distribution: np.ndarray | None = None  # leaf class distribution, sums to 1

    @property
    def is_leaf(self) -> bool:
        return self.distribution is not None


def _impurity(counts: np.ndarray, kind: str) -> np.ndarray:
    """Gini or entropy (nats) of each row of nonempty class counts."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    if kind == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    return -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=-1)


def _best_split(X, y, n_classes, impurity):
    """Best (feature, midpoint threshold) by impurity gain, or None.

    Every cut between consecutive distinct values of every column is scored
    at once from prefix class counts, then scanned in (feature, threshold)
    order: a cut replaces the running best only when its gain is higher by
    more than 1e-12, so ties keep the lowest pair. The gain is the impurity
    gain per row, which must exceed 2e-12 (the scan starts at 1e-12).
    """
    n = len(y)
    onehot = np.eye(n_classes)[y]
    parent = _impurity(onehot.sum(axis=0), impurity)
    children, features, thresholds = [], [], []
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        vals = X[order, f]
        cuts = np.nonzero(np.diff(vals) > 0)[0]
        prefix = np.cumsum(onehot[order], axis=0)
        left = prefix[cuts]
        right = prefix[-1] - left
        n_left = cuts + 1.0
        children.append(_impurity(left, impurity) * n_left
                        + _impurity(right, impurity) * (n - n_left))
        features.append(np.full(cuts.size, f))
        thresholds.append((vals[cuts] + vals[cuts + 1]) / 2.0)
    best, best_gain = None, 1e-12
    for i, g in enumerate((parent - np.concatenate(children) / n).tolist()):
        if g > best_gain + 1e-12:
            best, best_gain = i, g
    if best is None:
        return None
    return int(np.concatenate(features)[best]), float(np.concatenate(thresholds)[best])


@dataclass
class DecisionTreeModel:
    """Binary CART tree with class-distribution leaves."""

    root: TreeNode
    max_depth: int
    n_features: int
    n_classes: int

    def _leaf(self, x) -> TreeNode:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, x) -> np.ndarray:
        return self._leaf(np.asarray(x, dtype=float)).distribution.copy()

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.stack([self._leaf(row).distribution for row in X])

    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def as_model_handle(self) -> ModelHandle:
        return ModelHandle(
            arity=self.n_features,
            output_kind="probs",
            predict_fn=self.predict_proba_batch,
            gradient_capability="none",
            name=f"tree(depth<={self.max_depth})",
        )


def fit_decision_tree(data: TabularDataset, max_depth: int) -> DecisionTreeModel:
    """Greedy top-down CART on labeled data.

    Splits minimize weighted Gini impurity over midpoint thresholds between
    consecutive distinct values; recursion stops at max_depth, purity, or
    fewer than 2 samples. All tie-breaks are deterministic (lowest feature,
    lowest threshold), so the fit is invariant to sample order.
    """
    if data.labels is None:
        raise ContractViolation("decision tree needs labeled data")
    if max_depth < 0:
        raise ContractViolation("max_depth must be >= 0")
    X, y = data.features, data.labels
    n_classes = data.n_classes

    def leaf(idx) -> TreeNode:
        counts = np.bincount(y[idx], minlength=n_classes).astype(float)
        return TreeNode(distribution=counts / counts.sum())

    def build(idx, depth) -> TreeNode:
        if depth >= max_depth or len(idx) < 2 or len(np.unique(y[idx])) == 1:
            return leaf(idx)
        split = _best_split(X[idx], y[idx], n_classes, "gini")
        if split is None:
            return leaf(idx)
        f, t = split
        mask = X[idx, f] <= t
        return TreeNode(
            feature=f,
            threshold=t,
            left=build(idx[mask], depth + 1),
            right=build(idx[~mask], depth + 1),
        )

    root = build(np.arange(data.n_samples), 0)
    return DecisionTreeModel(root=root, max_depth=max_depth, n_features=data.n_features,
                             n_classes=n_classes)


# ---------------------------------------------------------------------------
# Synthetic tabular generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Gaussian-cluster classification data with optional inert noise features.

    ``layout="spread"`` draws class centers at distance ``separation`` from the
    origin in the informative subspace; ``layout="ring"`` places them evenly on
    a circle of radius ``separation`` in the first two features. A nonzero
    ``quantize_step`` snaps features to a grid, producing repeated rows like
    digitized measurements.
    """

    n_samples: int
    n_features: int
    n_classes: int
    separation: float
    n_noise_features: int = 0
    layout: Literal["spread", "ring"] = "spread"
    quantize_step: float | None = None

    def __post_init__(self):
        if self.n_samples < self.n_classes or self.n_classes < 1:
            raise ContractViolation("need at least one sample per class")
        if self.n_noise_features < 0 or self.n_noise_features >= self.n_features:
            raise ContractViolation("noise features must leave at least one informative feature")
        if self.separation < 0:
            raise ContractViolation("separation must be nonnegative")
        if self.layout == "ring" and self.n_features - self.n_noise_features < 2:
            raise ContractViolation("ring layout needs at least two informative features")
        if self.quantize_step is not None and self.quantize_step <= 0:
            raise ContractViolation("quantize_step must be positive")


def synth_tabular(spec: SynthSpec, seed: int) -> TabularDataset:
    """Deterministic Gaussian clusters; noise features carry no label information."""
    rng = np.random.default_rng([seed, 101])
    d_inf = spec.n_features - spec.n_noise_features
    if spec.layout == "ring":
        ang = np.linspace(0.0, 2.0 * np.pi, spec.n_classes, endpoint=False)
        centers = np.zeros((spec.n_classes, d_inf))
        centers[:, 0] = spec.separation * np.cos(ang)
        centers[:, 1] = spec.separation * np.sin(ang)
    else:
        raw = rng.standard_normal((spec.n_classes, d_inf))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        centers = spec.separation * raw / norms
    per = np.full(spec.n_classes, spec.n_samples // spec.n_classes)
    per[: spec.n_samples % spec.n_classes] += 1
    blocks, labels = [], []
    for c in range(spec.n_classes):
        pts = centers[c] + rng.standard_normal((per[c], d_inf))
        noise = rng.standard_normal((per[c], spec.n_noise_features))
        blocks.append(np.hstack([pts, noise]))
        labels.extend([c] * per[c])
    feats = np.vstack(blocks)
    if spec.quantize_step is not None:
        feats = np.round(feats / spec.quantize_step) * spec.quantize_step
    names = tuple(
        f"x{i}" if i < d_inf else f"noise{i - d_inf}" for i in range(spec.n_features)
    )
    return TabularDataset(feats, np.array(labels), names)


# Canonical desk-scale configurations used by the CLI presets and experiments.
CLUSTER_BENCH_SPEC = SynthSpec(
    n_samples=300, n_features=2, n_classes=5, separation=2.4,
    layout="ring", quantize_step=1.0,
)
MI_BENCH_SPEC = SynthSpec(
    n_samples=1000, n_features=10, n_classes=3, separation=5.0, n_noise_features=3,
)


# ---------------------------------------------------------------------------
# Token-count benchmark with a trained linear-softmax classifier
# ---------------------------------------------------------------------------

TOKEN_VOCAB = 30
TOKEN_CLASSES = 3
_CORE_PER_CLASS = 6
_RARE_PER_CLASS = 3
_N_CORE = TOKEN_CLASSES * _CORE_PER_CLASS            # tokens 0..17
_N_RARE = TOKEN_CLASSES * _RARE_PER_CLASS            # tokens 18..26
_COMMON = list(range(_N_CORE + _N_RARE, TOKEN_VOCAB))  # tokens 27..29


def _token_feature_names() -> tuple[str, ...]:
    names = []
    for c in range(TOKEN_CLASSES):
        names += [f"core{c}_{j}" for j in range(_CORE_PER_CLASS)]
    for c in range(TOKEN_CLASSES):
        names += [f"rare{c}_{j}" for j in range(_RARE_PER_CLASS)]
    names += [f"common{j}" for j in range(len(_COMMON))]
    return tuple(names)


def _sample_token_docs(seed: int, n_docs: int = 450, doc_len: int = 16,
                       hard_frac: float = 0.2):
    """Bag-of-token counts over a 30-word vocabulary, three topics.

    Most documents carry their topic's core tokens; a fraction are "hard"
    documents made of common tokens plus a single rare topic marker, which
    forces the classifier to learn large weights on the rare markers.
    """
    rng = np.random.default_rng([seed, 211])
    y = rng.integers(0, TOKEN_CLASSES, n_docs)
    X = np.zeros((n_docs, TOKEN_VOCAB))
    for i in range(n_docs):
        c = int(y[i])
        if rng.random() < hard_frac:
            toks = rng.choice(_COMMON, size=doc_len - 1)
            X[i] = np.bincount(toks, minlength=TOKEN_VOCAB)
            marker = _N_CORE + c * _RARE_PER_CLASS + int(rng.integers(0, _RARE_PER_CLASS))
            X[i, marker] += 1
        else:
            core = np.arange(c * _CORE_PER_CLASS, (c + 1) * _CORE_PER_CLASS)
            probs = np.zeros(TOKEN_VOCAB)
            probs[core] = 0.55 / len(core)
            probs[_COMMON] = 0.30 / len(_COMMON)
            other = np.setdiff1d(np.arange(_N_CORE), core)
            probs[other] = 0.15 / len(other)
            toks = rng.choice(TOKEN_VOCAB, size=doc_len, p=probs / probs.sum())
            X[i] = np.bincount(toks, minlength=TOKEN_VOCAB)
    return X, y


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _train_softmax(X, y, n_classes, seed, lr=1.0, epochs=2000, reg=1e-5):
    rng = np.random.default_rng([seed, 223])
    n, d = X.shape
    W = 0.01 * rng.standard_normal((n_classes, d))
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[y]
    for _ in range(epochs):
        P = _softmax(X @ W.T + b)
        G = (P - onehot) / n
        W -= lr * (G.T @ X + reg * W)
        b -= lr * G.sum(axis=0)
    return W, b


def softmax_model(W: np.ndarray, b: np.ndarray, name: str = "softmax") -> ModelHandle:
    """Linear-softmax classifier handle with the exact probability gradient."""
    W = np.array(W, dtype=float)
    b = np.array(b, dtype=float)
    arity = W.shape[1]

    def predict(X):
        return _softmax(X @ W.T + b)

    def grad(x, target=None):
        p = _softmax(np.asarray(x, dtype=float) @ W.T + b)
        t = int(np.argmax(p)) if target is None else int(target)
        return p[t] * (W[t] - p @ W)

    return ModelHandle(
        arity=arity,
        output_kind="probs",
        predict_fn=predict,
        gradient_fn=grad,
        gradient_capability="exact",
        name=name,
    )


TOKEN_HOLDOUT_FRACTION = 0.2


@functools.lru_cache(maxsize=1)
def token_benchmark(seed: int) -> tuple[TabularDataset, ModelHandle]:
    """Token-count dataset plus a linear-softmax model with >= 0.9 holdout accuracy.

    The last 20% of rows are the holdout split used for the accuracy gate.
    If a seed trains below the gate, the generation is retried with shifted
    seeds, so the result is still a deterministic function of ``seed``. The
    last result is cached (the dataset and handle are immutable), so a command
    that names the same seed as dataset and model trains once.
    """
    for attempt in range(5):
        s = seed + 1_000_003 * attempt
        X, y = _sample_token_docs(s)
        n_train = int(round((1.0 - TOKEN_HOLDOUT_FRACTION) * len(X)))
        W, b = _train_softmax(X[:n_train], y[:n_train], TOKEN_CLASSES, s)
        holdout_acc = float(
            np.mean(_softmax(X[n_train:] @ W.T + b).argmax(axis=1) == y[n_train:])
        )
        if holdout_acc >= 0.9:
            data = TabularDataset(X, y, _token_feature_names())
            return data, softmax_model(W, b, name=f"token-softmax(seed={seed})")
    raise RuntimeError("token benchmark failed to reach 0.9 holdout accuracy in 5 attempts")


def token_holdout_slice(data: TabularDataset) -> slice:
    """Rows of a token benchmark dataset reserved as the holdout split."""
    n_train = int(round((1.0 - TOKEN_HOLDOUT_FRACTION) * data.n_samples))
    return slice(n_train, data.n_samples)


def choose_explained_point(data: TabularDataset, model: ModelHandle,
                           min_confidence: float = 0.9) -> int:
    """First holdout row that is confidently and correctly classified.

    Rows with nonzero counts in 'rare*' marker columns are skipped so the
    explained document is a typical one.
    """
    rare_cols = [
        i for i, name in enumerate(data.feature_names or ())
        if name.startswith("rare")
    ]
    start = token_holdout_slice(data).start
    for i in range(start, data.n_samples):
        x = data.features[i]
        if rare_cols and x[rare_cols].sum() > 0:
            continue
        p = model.predict(x)
        if int(np.argmax(p)) == int(data.labels[i]) and float(np.max(p)) >= min_confidence:
            return i
    raise ContractViolation("no confidently classified holdout row found")
