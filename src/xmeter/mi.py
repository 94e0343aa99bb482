"""Mutual-information estimation and the feature extractors it monitors.

Estimator selection follows the column types: Kraskov-style k-NN (estimator 1,
Chebyshev metric) for continuous/continuous, the nearest-neighbor mixed
estimator for continuous/discrete, and the plug-in estimator on joint
frequencies for discrete/discrete. All values are in nats. The estimates of
one ``extractor_table`` run share one Chebyshev distance pass per distinct
jittered point set (``_sweep``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import digamma

from .bench import _grow_forest
from .core import BLOCK, ContractViolation, TabularDataset

JITTER_SCALE = 1e-10

ExtractorKind = str  # "identity" | "random-ood" | "entropy-discretizer"


@dataclass(frozen=True)
class FeatureExtractor:
    """A map from the original feature space to an interpretable representation."""

    kind: ExtractorKind
    replaced_indices: tuple[int, ...] = ()
    replacement_value: float = -10.0
    bin_edges: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("identity", "random-ood", "entropy-discretizer"):
            raise ContractViolation(f"unknown extractor kind {self.kind!r}")
        if self.kind == "random-ood" and len(set(self.replaced_indices)) != len(self.replaced_indices):
            raise ContractViolation("replaced indices must be distinct")
        if self.kind == "entropy-discretizer":
            for edges in self.bin_edges:
                if any(b <= a for a, b in zip(edges, edges[1:])):
                    raise ContractViolation("bin edges must be strictly increasing")

    @property
    def output_discrete(self) -> bool:
        return self.kind == "entropy-discretizer"


def identity_extractor() -> FeatureExtractor:
    return FeatureExtractor("identity")


def random_ood_extractor(indices, value: float = -10.0) -> FeatureExtractor:
    return FeatureExtractor("random-ood", replaced_indices=tuple(int(i) for i in indices),
                            replacement_value=float(value))


def draw_random_ood_extractor(arity: int, n_replaced: int, seed: int,
                              value: float = -10.0) -> FeatureExtractor:
    """Replacement indices drawn uniformly without replacement."""
    if not 0 < n_replaced <= arity:
        raise ContractViolation("n_replaced must be in 1..arity")
    rng = np.random.default_rng([seed, 31])
    idx = rng.choice(arity, size=n_replaced, replace=False)
    return random_ood_extractor(sorted(int(i) for i in idx), value)


def fit_entropy_discretizer(data: TabularDataset, max_depth: int) -> FeatureExtractor:
    """Per-feature entropy trees against the labels; split thresholds become bin edges.

    Each feature is discretized independently by an information-gain tree of
    depth ``max_depth``, grown by the decision tree's grower and rule
    (``bench``), one tree per column: each split takes the lowest midpoint whose
    gain per row exceeds 2e-12 and beats every lower one by more than 1e-12.
    Constant or uninformative features end up with no edges (a single bin).
    """
    if data.labels is None:
        raise ContractViolation("discretizer needs labeled data")
    if max_depth < 1:
        raise ContractViolation("max_depth must be >= 1")
    edges = []
    for root in _grow_forest(data.features, data.labels, data.n_classes, max_depth, "entropy",
                             per_column=True):
        stack, column = [root], []
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                column.append(node.threshold)
                stack += [node.left, node.right]
        edges.append(tuple(sorted(column)))
    return FeatureExtractor("entropy-discretizer", bin_edges=tuple(edges))


def apply_extractor(g: FeatureExtractor, data: TabularDataset) -> TabularDataset:
    """Z = g(X) as a new dataset (labels and names carried through)."""
    X = data.features
    if g.kind == "identity":
        return data
    if g.kind == "random-ood":
        for i in g.replaced_indices:
            if not 0 <= i < data.n_features:
                raise ContractViolation(f"replaced index {i} out of range")
        Z = X.copy()
        Z[:, list(g.replaced_indices)] = g.replacement_value
        return TabularDataset(Z, data.labels, data.feature_names)
    if len(g.bin_edges) != data.n_features:
        raise ContractViolation("discretizer arity does not match data width")
    Z = np.zeros_like(X)
    for f, edges in enumerate(g.bin_edges):
        if edges:
            # value <= edge goes to the lower bin, matching the tree's split rule
            Z[:, f] = np.searchsorted(np.asarray(edges), X[:, f], side="left")
    return TabularDataset(Z, data.labels, data.feature_names)


@dataclass(frozen=True)
class MIEstimate:
    """A mutual-information estimate in nats; ``value`` is clamped at zero."""

    value: float
    raw_value: float
    estimator: str  # "ksg-continuous" | "mixed-discrete" | "plugin-discrete"
    k_neighbors: int
    n_samples: int


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim == 1:
        return a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ContractViolation("columns must be 1-D or 2-D with at least one column")
    return a


def _jitter(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return a.astype(float) + JITTER_SCALE * rng.random(a.shape)


def _distance_blocks(points: np.ndarray):
    """Exact Chebyshev distances from the rows of ``points`` to all of its
    rows, as ``(rows, matrix)`` pairs of about ``BLOCK`` entries in row order.

    Each entry is ``max |x_i - y_i|`` in doubles. A plain scan rather than a
    k-d tree, because in the 10 dimensions the extractors see a tree prunes
    almost nothing.
    """
    n = len(points)
    step = max(1, BLOCK // n)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        yield rows, cdist(points[rows], points, "chebyshev")


def _kth_distance(points: np.ndarray, k: int) -> np.ndarray:
    """For each row, the k-th smallest Chebyshev distance to the rows of
    ``points``, counting from 0, so the row itself is the 0-th."""
    out = np.empty(len(points))
    for rows, d in _distance_blocks(points):
        d.partition(k, axis=1)
        out[rows] = d[:, k]
    return out


def _intern(sets: list, points: np.ndarray) -> int:
    """The index of ``points`` in ``sets``, appended unless an equal set is
    there. Each estimate jitters its own copy of its columns, so sets are
    compared by content."""
    for i, other in enumerate(sets):
        if np.array_equal(points, other):
            return i
    sets.append(points)
    return len(sets) - 1


def _sweep(sets: list, estimates) -> None:
    """The distance passes of ``estimates`` over the point sets ``sets``.

    Walks each distinct set's rows in ``_distance_blocks``' blocks, computes
    the block once and hands it to every estimate that reads the set (its
    ``reads`` indices, in that order, to its ``take``). Blocks are shared, so
    readers must not write to them. Sets of one size are walked together:
    memory is one block per distinct set, never an n x n matrix.
    """
    for n in dict.fromkeys(len(points) for points in sets):
        members = [i for i, points in enumerate(sets) if len(points) == n]
        readers = [e for e in estimates if e.reads and e.reads[0] in members]
        step = max(1, BLOCK // n)
        # one reused buffer per set: a fresh array for every block, one alive
        # per set, page-faulted away the whole saving
        buffers = {i: np.empty((min(step, n), n)) for i in members}
        for lo in range(0, n, step):
            rows = slice(lo, min(lo + step, n))
            blocks = {i: cdist(sets[i][rows], sets[i], "chebyshev",
                               out=buffers[i][:rows.stop - lo]) for i in members}
            for e in readers:
                e.take(rows, *(blocks[i] for i in e.reads))


class _Ksg:
    """Kraskov's estimator 1 for two continuous sides, on jittered copies."""

    estimator = "ksg-continuous"

    def __init__(self, sets: list, a: np.ndarray, b: np.ndarray, k: int,
                 rng: np.random.Generator):
        a = _jitter(a, rng)
        b = _jitter(b, rng)
        self.reads = (_intern(sets, a), _intern(sets, b))
        self.k, self.n = k, len(a)
        self.nx = np.empty(self.n, dtype=np.intp)
        self.ny = np.empty(self.n, dtype=np.intp)

    def take(self, rows: slice, da: np.ndarray, db: np.ndarray) -> None:
        # the joint Chebyshev distance is the larger of the two sides'
        # distances; partitioned as a fresh array, since da and db are shared
        joint = np.maximum(da, db)
        joint.partition(self.k, axis=1)
        eps = joint[:, self.k, None]
        self.nx[rows] = (da < eps).sum(axis=1) - 1
        self.ny[rows] = (db < eps).sum(axis=1) - 1

    def raw(self) -> float:
        return float(digamma(self.k) + digamma(self.n)
                     - np.mean(digamma(self.nx + 1) + digamma(self.ny + 1)))


class _RadiusCount:
    """For each row of ``points``, the number of rows strictly closer than
    its radius ``eps`` in the Chebyshev metric, the row itself included."""

    def __init__(self, sets: list, points: np.ndarray, eps: np.ndarray):
        self.reads = (_intern(sets, points),)
        self.eps = eps
        self.within = np.empty(len(points), dtype=np.intp)

    def take(self, rows: slice, d: np.ndarray) -> None:
        self.within[rows] = (d < self.eps[rows, None]).sum(axis=1)


def _discrete_codes(d: np.ndarray) -> np.ndarray:
    """Each row's rank among the distinct rows of ``d`` in lexicographic order,
    the inverse ``np.unique(d, axis=0)`` returns: one lexsort, then a scan for
    the rows that differ from the row before them."""
    order = np.lexsort(d.T[::-1])
    ordered = d[order]
    new = np.ones(len(d), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    codes = np.empty(len(d), dtype=np.intp)
    codes[order] = np.cumsum(new) - 1
    return codes


class _Mixed(_RadiusCount):
    """Nearest-neighbor estimator for one continuous and one discrete variable.

    For each point, the k-th neighbor distance among same-value points defines
    a radius; counting neighbors within it in the full sample yields the
    digamma correction terms. Values occurring once carry no neighborhood
    information and are dropped.
    """

    estimator = "mixed-discrete"

    def __init__(self, sets: list, cont: np.ndarray, disc: np.ndarray, k: int,
                 rng: np.random.Generator):
        c = _jitter(cont, rng)
        codes = _discrete_codes(disc)
        n = len(c)
        eps = np.zeros(n)
        k_eff = np.zeros(n)
        sizes = np.bincount(codes)
        counts = sizes[codes]
        # one stable sort groups the rows of each value in their original order
        order = np.argsort(codes, kind="stable")
        starts = np.cumsum(sizes) - sizes
        for code in np.flatnonzero(sizes > 1):
            m = int(sizes[code])
            rows = order[starts[code]:starts[code] + m]
            kk = min(k, m - 1)
            eps[rows] = _kth_distance(c[rows], kk)
            k_eff[rows] = kk
        keep = counts > 1
        if keep.sum() < 2:
            raise ContractViolation("mixed estimator needs repeated discrete values")
        super().__init__(sets, c[keep], eps[keep])
        self.k, self.n = k, n
        self.k_eff, self.value_counts = k_eff[keep], counts[keep]

    def raw(self) -> float:
        return float(
            digamma(len(self.within))
            + np.mean(digamma(self.k_eff))
            - np.mean(digamma(self.value_counts))
            - np.mean(digamma(self.within))
        )


def _plugin_mi(da: np.ndarray, db: np.ndarray) -> float:
    ca = _discrete_codes(da)
    cb = _discrete_codes(db)
    n = len(ca)
    na = ca.max() + 1
    nb = cb.max() + 1
    joint = np.bincount(ca * nb + cb, minlength=na * nb).reshape(na, nb) / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / np.outer(pa, pb)[nz]
    return float((joint[nz] * np.log(ratio)).sum())


class _Plugin:
    """Plug-in estimator on the joint frequencies of two discrete sides."""

    estimator = "plugin-discrete"
    reads = ()

    def __init__(self, da: np.ndarray, db: np.ndarray, k: int):
        self.k, self.n = k, len(da)
        self.value = _plugin_mi(da, db)

    def raw(self) -> float:
        return self.value


def _prepare(sets: list, a, b, k: int, seed: int, a_discrete: bool | None,
             b_discrete: bool | None):
    """Checks the columns of one ``estimate_mi`` call and builds its estimate,
    whose point sets go to ``sets``; its value is ready after ``_sweep``."""
    A = _as_matrix(a)
    B = _as_matrix(b)
    if len(A) != len(B):
        raise ContractViolation("column blocks must have equal sample counts")
    n = len(A)
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if n < max(20, k + 2):
        raise ContractViolation(f"need at least max(20, k+2) samples, got {n}")
    if k >= n:
        raise ContractViolation("k must be smaller than the sample count")
    for side, M in (("a", A), ("b", B)):
        if M.dtype.kind == "f" and not np.isfinite(M).all():
            raise ContractViolation(f"column block {side} holds a NaN or infinite value")
    if a_discrete is None:
        a_discrete = np.issubdtype(A.dtype, np.integer)
    if b_discrete is None:
        b_discrete = np.issubdtype(B.dtype, np.integer)
    rng = np.random.default_rng([seed, 41])
    if a_discrete and b_discrete:
        return _Plugin(A, B, k)
    if not a_discrete and not b_discrete:
        return _Ksg(sets, A.astype(float), B.astype(float), k, rng)
    cont, disc = (A, B) if not a_discrete else (B, A)
    return _Mixed(sets, cont.astype(float), disc, k, rng)


def _result(est) -> MIEstimate:
    raw = est.raw()
    return MIEstimate(value=max(raw, 0.0), raw_value=raw, estimator=est.estimator,
                      k_neighbors=est.k, n_samples=est.n)


def estimate_mi(a, b, k: int = 3, seed: int = 0,
                a_discrete: bool | None = None, b_discrete: bool | None = None) -> MIEstimate:
    """Mutual information between two column blocks of equal sample count.

    Multi-column sides are treated as one joint variable (Chebyshev metric for
    continuous blocks, value tuples for discrete ones). Discreteness defaults
    to the dtype: integer columns are discrete, floats continuous.
    """
    sets: list = []
    est = _prepare(sets, a, b, k, seed, a_discrete, b_discrete)
    _sweep(sets, [est])
    return _result(est)


def _report(sets: list, data: TabularDataset, g: FeatureExtractor, y, k: int, seed: int):
    """The feature and target estimates of ``extractor_report``, prepared."""
    y = data.labels if y is None else y
    if y is None:
        raise ContractViolation("need target labels or a labeled dataset")
    X = data.features
    Z = apply_extractor(g, data).features
    z_disc = g.output_discrete
    return (_prepare(sets, X, Z, k, seed, False, z_disc),
            _prepare(sets, Z, y, k, seed, z_disc, True))


def extractor_report(data: TabularDataset, g: FeatureExtractor,
                     y: np.ndarray | None = None, k: int = 3,
                     seed: int = 0) -> tuple[MIEstimate, MIEstimate]:
    """The estimates of feature MI(X, Z) and target MI(Z, Y), in that order.

    Y is the given target labels, one per sample (for example a model's
    predicted labels), otherwise the dataset labels.
    """
    sets: list = []
    feature, target = _report(sets, data, g, y, k, seed)
    _sweep(sets, [feature, target])
    return _result(feature), _result(target)


EXTRACTORS = ("identity", "random-ood", "entropy")


def extractor_table(data: TabularDataset, names, y: np.ndarray | None, runs: int, k: int,
                    seed: int, ood_count: int, ood_value: float,
                    max_depth: int) -> dict[str, dict]:
    """Mean feature and target MI of each named extractor over ``runs`` runs.

    Run r estimates with seed ``seed + r`` and, for ``random-ood``, draws a
    fresh set of ``ood_count`` replaced features from that seed; the entropy
    discretizer is fitted once. The estimates of one run share one distance
    pass per distinct point set. Returns ``{name: {"feature_mi", "target_mi",
    "runs"}}``.
    """
    for name in names:
        if name not in EXTRACTORS:
            raise ContractViolation(f"unknown extractor {name!r}")
    if runs < 1:
        raise ContractViolation(f"runs must be >= 1, got {runs}")
    discretizer = fit_entropy_discretizer(data, max_depth) if "entropy" in names else None
    values = {name: ([], []) for name in names}
    for run_seed in range(seed, seed + runs):
        sets: list = []
        reports = {}
        for name in values:
            if name == "identity":
                extractor = identity_extractor()
            elif name == "random-ood":
                extractor = draw_random_ood_extractor(data.n_features, ood_count, run_seed,
                                                      value=ood_value)
            else:
                extractor = discretizer
            reports[name] = _report(sets, data, extractor, y, k, run_seed)
        _sweep(sets, [est for pair in reports.values() for est in pair])
        for name, pair in reports.items():
            for vals, est in zip(values[name], pair):
                vals.append(_result(est).value)
    return {name: {"feature_mi": float(np.mean(feature_vals)),
                   "target_mi": float(np.mean(target_vals)), "runs": runs}
            for name, (feature_vals, target_vals) in values.items()}
