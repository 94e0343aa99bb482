"""Built-in benchmark assets: Gini decision tree, generators, token benchmark.

The analytic test function lives in ``park``.

The generators are bit-reproducible per seed and small enough to run on a
laptop; they stand in for large-scale image/text corpora while exhibiting the
same metric phenomena.

One presorted grower, ``_grow_forest``, grows the CART tree (Gini) and the
entropy discretizer's one-column trees in ``mi``, level by level, so only
``max_depth`` limits the depth. Each level scores every cut between
consecutive distinct values of every column of every open node from prefix
class counts, in column blocks of ``BLOCK`` entries, as the impurity gain per
row (``_gains``), and each node keeps the lowest (feature, threshold) whose
gain exceeds 2e-12 and beats every earlier cut by more than 1e-12 (``_scan``).
Measured per row, the rounding noise of a zero-gain cut stays far below 2e-12
at any node size. A cut's threshold is the midpoint of its two values unless
that fails to separate them (``_threshold``), so every cut sends a row each way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import BLOCK, ContractViolation, ModelHandle, TabularDataset


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


def _impurity(counts: np.ndarray, n, kind: str) -> np.ndarray:
    """Gini or entropy (nats) of class counts (classes first) summing to n; the class
    sum rounds as numpy sums a row: in order below 8 classes, pairwise from 8."""
    p = counts / n
    terms = p * p if kind == "gini" else p * np.log(p, out=np.zeros_like(p), where=p > 0)
    total = terms.sum(axis=0) if len(p) < 8 else np.ascontiguousarray(terms.T).sum(axis=-1)
    return 1.0 - total if kind == "gini" else -total


def _gains(parent, left, total, n_left, m, kind):
    """Impurity gain per row of each cut of a node of ``m`` rows with impurity
    ``parent`` and class counts ``total``: ``n_left`` rows with class counts
    ``left`` (classes first) go left. The arguments broadcast, one entry per cut."""
    return parent - (_impurity(left, n_left, kind) * n_left
                     + _impurity(total - left, m - n_left, kind) * (m - n_left)) / m


def _scan(gains, best_gain, peak, tol=1e-12):
    """(Last index whose gain beats the running best by more than ``tol``, or None; new best;
    new peak.) Only a gain above the peak and every earlier gain can, so only those are seen.
    This is the one greedy rule of the tree growers and the prototype selectors: the lowest
    index wins ties."""
    earlier = np.maximum.accumulate(np.concatenate(([peak], gains[:-1])))
    hit, records = None, np.flatnonzero(gains > earlier)
    for i, g in zip(records.tolist(), gains[records].tolist()):
        if g > best_gain + tol:
            hit, best_gain = i, g
    return hit, best_gain, max(peak, gains.max())


def _threshold(a, b) -> float:
    """A cut between sorted neighbours a < b that sends a left and b right: their
    midpoint; a / 2 + b / 2 where a + b overflows; a where the midpoint rounds onto b."""
    a, b = float(a), float(b)
    t = (a + b) / 2.0
    if math.isinf(t):
        t = a / 2.0 + b / 2.0
    return t if a <= t < b else a


def _grow_forest(X, y, n_classes, max_depth, kind, per_column=False) -> list[TreeNode]:
    """Greedy top-down trees, level by level: one over all columns of X, or with
    ``per_column`` one per column (split features are X's columns). Each column
    is sorted once; a node is a run ``lo:hi`` of every column of its tree, its
    class counts exact integer differences of prefix counts. Each level scores
    every cut of every open node in one ``_gains`` call per column block, and
    ``_scan`` reads each node's cuts in (feature, position) order, its best
    carried over the blocks. A split partitions the node's run stably in every
    column of its tree (a one-column tree's cut already does). A node is a leaf
    at max_depth, pure, or without a cut."""
    Xt = np.ascontiguousarray(X.T, dtype=float)
    (d, n), classes = Xt.shape, np.arange(n_classes)[:, None, None]
    order = np.argsort(Xt, axis=1, kind="stable")
    n_trees = d if per_column else 1
    roots = [TreeNode() for _ in range(n_trees)]
    # the nodes of a level: their trees, runs lo:hi and class counts (classes first)
    nodes, tree, lo, hi = roots, np.arange(n_trees), np.zeros(n_trees, dtype=np.intp), \
        np.full(n_trees, n)
    counts = np.repeat(np.bincount(y, minlength=n_classes)[:, None], n_trees, axis=1)
    step = max(1, BLOCK // (n * n_classes))
    for depth in range(max_depth + 1):
        m = hi - lo
        # cut q of a column leaves its first q positions left; node_at[t, q]: its open node
        node_at = np.full((n_trees, n + 1), -1)
        for k in np.flatnonzero((counts.max(axis=0) < m) & (depth < max_depth)).tolist():
            node_at[tree[k], lo[k] + 1:hi[k]] = k
        parent = _impurity(counts, m, kind)
        best, best_gain, peak = [None] * len(nodes), [1e-12] * len(nodes), [-np.inf] * len(nodes)
        for first in range(0, d, step):
            cols = slice(first, first + step)
            trees = cols if per_column else slice(0, 1)
            v = np.take_along_axis(Xt[cols], order[cols], axis=1)
            cut = np.zeros((len(v), n + 1), dtype=bool)
            np.greater(v[:, 1:], v[:, :-1], out=cut[:, 1:n])
            at = np.flatnonzero(cut & (node_at[trees] >= 0))  # column * (n + 1) + q
            if not at.size:
                continue
            q = at % (n + 1)
            j = np.take(node_at[trees], at if per_column else q)
            if not per_column:  # group the cuts by node, each node's in (feature, position) order
                s = np.argsort(j, kind="stable")
                at, q, j = at[s], q[s], j[s]
            bounds = np.searchsorted(j, np.arange(len(nodes) + 1))
            size = np.diff(bounds)
            # prefix counts, K x columns x (n + 1), from a class mask (np.eye(K)[y] would
            # take K x K, K = max label + 1); a cut's left counts are its prefix less the
            # prefix at its node's run start
            prefix = np.zeros((n_classes, len(v), n + 1))
            np.cumsum(y[order[cols]] == classes, axis=2, out=prefix[:, :, 1:])
            prefix = prefix.reshape(n_classes, -1)
            n_left = q - np.repeat(lo, size)
            left = np.take(prefix, at, axis=1) - np.take(prefix, at - n_left, axis=1)
            del prefix  # the scoring's temporaries are as large; hold one fewer
            gains = _gains(np.repeat(parent, size), left, np.repeat(counts, size, axis=1),
                           n_left.astype(float), np.repeat(m, size), kind)
            for k in np.flatnonzero(size).tolist():
                a, b = bounds[k], bounds[k + 1]
                i, best_gain[k], peak[k] = _scan(gains[a:b], best_gain[k], peak[k])
                if i is not None:  # feature, cut, the left child's counts
                    best[k] = (first + int(at[a + i]) // (n + 1), int(q[a + i]),
                               left[:, a + i].copy())
        goes_left, children = np.zeros(n, dtype=bool), []
        for k, node in enumerate(nodes):
            if best[k] is None:
                node.distribution = counts[:, k] / m[k]
                continue
            f, c, left = best[k]
            t, a, b = int(tree[k]), int(lo[k]), int(hi[k])
            node.feature, node.threshold = f, _threshold(*Xt[f, order[f, c - 1:c + 1]])
            node.left, node.right = TreeNode(), TreeNode()
            children += [(node.left, t, a, c, left), (node.right, t, c, b, counts[:, k] - left)]
            if not per_column:
                # rows at or below the threshold go left: the cut column's positions a..c - 1
                goes_left[order[f, a:c]] = True
                run = order[:, a:b]
                side = np.take(goes_left, run)
                run[:] = np.hstack((run[side].reshape(d, -1), run[~side].reshape(d, -1)))
        if not children:
            break
        nodes, tree, lo, hi, counts = zip(*children)
        tree, lo, hi, counts = np.array(tree), np.array(lo), np.array(hi), np.stack(counts, 1)
    return roots


@dataclass
class DecisionTreeModel:
    """Binary CART tree with class-distribution leaves."""

    root: TreeNode
    max_depth: int
    n_features: int
    n_classes: int

    def predict_proba(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.distribution.copy()

    def predict_proba_batch(self, X) -> np.ndarray:
        """Rows routed down as index sets (ties go left; empty branches are skipped)."""
        X = np.asarray(X, dtype=float)
        out = np.empty((len(X), self.n_classes))
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.distribution
                continue
            left = X[rows, node.feature] <= node.threshold
            stack += [(child, part) for child, part in
                      ((node.left, rows[left]), (node.right, rows[~left])) if part.size]
        return out

    def as_model_handle(self) -> ModelHandle:
        return ModelHandle(
            arity=self.n_features,
            output_kind="probs",
            predict_fn=self.predict_proba_batch,
            gradient_capability="none",
            name=f"tree(depth<={self.max_depth})",
        )


def fit_decision_tree(data: TabularDataset, max_depth: int) -> DecisionTreeModel:
    """Greedy top-down CART on labeled data, one tree over all features.

    Splits minimize weighted Gini impurity over midpoint thresholds between
    consecutive distinct values; growth stops at max_depth, purity, or when
    no cut gains (see the module docstring). The tree grows level by level
    (``_grow_forest``). All tie-breaks are deterministic (lowest feature,
    lowest threshold), so the fit is invariant to sample order.
    """
    if data.labels is None:
        raise ContractViolation("decision tree needs labeled data")
    if max_depth < 0:
        raise ContractViolation("max_depth must be >= 0")
    root, = _grow_forest(data.features, data.labels, data.n_classes, max_depth, "gini")
    return DecisionTreeModel(root, max_depth, data.n_features, data.n_classes)


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
        if not 0 <= self.separation < math.inf:
            raise ContractViolation("separation must be finite and nonnegative")
        if self.layout not in ("spread", "ring"):
            raise ContractViolation(f"layout must be 'spread' or 'ring', got {self.layout!r}")
        if self.layout == "ring" and self.n_features - self.n_noise_features < 2:
            raise ContractViolation("ring layout needs at least two informative features")
        if self.quantize_step is not None and not 0 < self.quantize_step < math.inf:
            raise ContractViolation("quantize_step must be finite and positive")


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
        with np.errstate(over="ignore"):  # refused below
            grid = np.round(feats / spec.quantize_step)
        if not np.isfinite(grid).all():
            raise ContractViolation(f"quantize_step {spec.quantize_step!r} is too small: "
                                    "the features divided by it overflow")
        feats = grid * spec.quantize_step
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


EXPLAINED_MIN_CONFIDENCE = 0.9


def choose_explained_point(data: TabularDataset, model: ModelHandle) -> int:
    """First holdout row that is confidently (``EXPLAINED_MIN_CONFIDENCE``) and
    correctly classified.

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
        if int(np.argmax(p)) == int(data.labels[i]) and p.max() >= EXPLAINED_MIN_CONFIDENCE:
            return i
    raise ContractViolation("no confidently classified holdout row found")
