"""Mutual-information estimation and the feature extractors it monitors.

Estimator selection follows the column types: Kraskov-style k-NN (estimator 1,
Chebyshev metric) for continuous/continuous, the nearest-neighbor mixed
estimator for continuous/discrete, and the plug-in estimator on joint
frequencies for discrete/discrete. All values are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .bench import _best_split
from .core import ContractViolation, TabularDataset

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
    """Per-feature shallow trees against the labels; split thresholds become bin edges.

    Each feature is discretized independently with an information-gain stump
    grown to ``max_depth``, split by the tree's sweep (``bench._best_split``):
    the lowest midpoint whose gain per row exceeds 2e-12 and beats every lower
    one by more than 1e-12. Constant or uninformative features end up with no
    edges (a single bin).
    """
    if data.labels is None:
        raise ContractViolation("discretizer needs labeled data")
    if max_depth < 1:
        raise ContractViolation("max_depth must be >= 1")
    n_classes = data.n_classes

    def collect(values, labels, depth, out):
        if depth >= max_depth or len(values) < 2:
            return
        split = _best_split(values[:, None], labels, n_classes, "entropy")
        if split is None:
            return
        t = split[1]
        out.append(t)
        mask = values <= t
        collect(values[mask], labels[mask], depth + 1, out)
        collect(values[~mask], labels[~mask], depth + 1, out)

    all_edges = []
    for f in range(data.n_features):
        edges: list[float] = []
        collect(data.features[:, f], data.labels, 0, edges)
        all_edges.append(tuple(sorted(edges)))
    return FeatureExtractor("entropy-discretizer", bin_edges=tuple(all_edges))


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
    if a.ndim != 2:
        raise ContractViolation("columns must be 1-D or 2-D")
    return a


def _jitter(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return a.astype(float) + JITTER_SCALE * rng.random(a.shape)


def _ksg_mi(a: np.ndarray, b: np.ndarray, k: int, rng: np.random.Generator) -> float:
    a = _jitter(a, rng)
    b = _jitter(b, rng)
    n = len(a)
    joint = np.hstack([a, b])
    eps = cKDTree(joint).query(joint, k=k + 1, p=np.inf)[0][:, k]
    # strictly-closer marginal counts: shrink the radius below the k-th distance
    radius = np.nextafter(eps, -np.inf)
    nx = cKDTree(a).query_ball_point(a, radius, p=np.inf, return_length=True) - 1
    ny = cKDTree(b).query_ball_point(b, radius, p=np.inf, return_length=True) - 1
    return float(digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1)))


def _discrete_codes(d: np.ndarray) -> np.ndarray:
    _, inv = np.unique(d, axis=0, return_inverse=True)
    return inv.reshape(-1)


def _mixed_mi(cont: np.ndarray, disc: np.ndarray, k: int, rng: np.random.Generator) -> float:
    """Nearest-neighbor estimator for one continuous and one discrete variable.

    For each point, the k-th neighbor distance among same-value points defines
    a radius; counting neighbors within it in the full sample yields the
    digamma correction terms. Values occurring once carry no neighborhood
    information and are dropped.
    """
    c = _jitter(cont, rng)
    codes = _discrete_codes(disc)
    n = len(c)
    radius = np.zeros(n)
    k_eff = np.zeros(n)
    counts = np.zeros(n)
    keep = np.ones(n, dtype=bool)
    for code in np.unique(codes):
        mask = codes == code
        m = int(mask.sum())
        counts[mask] = m
        if m == 1:
            keep[mask] = False
            continue
        kk = min(k, m - 1)
        sub = c[mask]
        dist = cKDTree(sub).query(sub, k=kk + 1, p=np.inf)[0][:, kk]
        radius[mask] = np.nextafter(dist, -np.inf)
        k_eff[mask] = kk
    if keep.sum() < 2:
        raise ContractViolation("mixed estimator needs repeated discrete values")
    c2, r2 = c[keep], radius[keep]
    m_all = cKDTree(c2).query_ball_point(c2, r2, p=np.inf, return_length=True)
    return float(
        digamma(keep.sum())
        + np.mean(digamma(k_eff[keep]))
        - np.mean(digamma(counts[keep]))
        - np.mean(digamma(m_all))
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


def estimate_mi(a, b, k: int = 3, seed: int = 0,
                a_discrete: bool | None = None, b_discrete: bool | None = None) -> MIEstimate:
    """Mutual information between two column blocks of equal sample count.

    Multi-column sides are treated as one joint variable (Chebyshev metric for
    continuous blocks, value tuples for discrete ones). Discreteness defaults
    to the dtype: integer columns are discrete, floats continuous.
    """
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
    if a_discrete is None:
        a_discrete = np.issubdtype(A.dtype, np.integer)
    if b_discrete is None:
        b_discrete = np.issubdtype(B.dtype, np.integer)
    rng = np.random.default_rng([seed, 41])
    if a_discrete and b_discrete:
        raw = _plugin_mi(A, B)
        estimator = "plugin-discrete"
    elif not a_discrete and not b_discrete:
        raw = _ksg_mi(A.astype(float), B.astype(float), k, rng)
        estimator = "ksg-continuous"
    else:
        cont, disc = (A, B) if not a_discrete else (B, A)
        raw = _mixed_mi(cont.astype(float), disc, k, rng)
        estimator = "mixed-discrete"
    return MIEstimate(value=max(raw, 0.0), raw_value=raw, estimator=estimator,
                      k_neighbors=k, n_samples=n)


def extractor_report(data: TabularDataset, g: FeatureExtractor,
                     y: np.ndarray | None = None, k: int = 3,
                     seed: int = 0) -> tuple[MIEstimate, MIEstimate]:
    """The estimates of feature MI(X, Z) and target MI(Z, Y), in that order.

    Y is the given target labels, one per sample (for example a model's
    predicted labels), otherwise the dataset labels.
    """
    y = data.labels if y is None else y
    if y is None:
        raise ContractViolation("need target labels or a labeled dataset")
    X = data.features
    Z = apply_extractor(g, data).features
    z_disc = g.output_discrete
    return (estimate_mi(X, Z, k=k, seed=seed, a_discrete=False, b_discrete=z_disc),
            estimate_mi(Z, y, k=k, seed=seed, a_discrete=z_disc, b_discrete=True))
