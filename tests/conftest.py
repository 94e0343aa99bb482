import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import digamma

from xmeter import park as park_module
from xmeter.core import (
    BLOCK,
    CROSS_ENTROPY_CLIP,
    ContractViolation,
    FeatureDistribution,
    SQUARED_ERROR,
    TabularDataset,
    batch_predictions,
    evaluate_loss_batch,
)
from xmeter.bench import _scan
from xmeter.example_based import _project_nonnegative_ls
from xmeter.attr_metrics import (
    ExpectationConfig,
    complexity,
    importance_order,
    monotonicity,
    non_sensitivity,
    restriction_loss_vector,
)
from xmeter.mi import (
    EXTRACTORS,
    FeatureExtractor,
    MIEstimate,
    _as_matrix,
    _discrete_codes,
    _jitter,
    apply_extractor,
    draw_random_ood_extractor,
    fit_entropy_discretizer,
    identity_extractor,
)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands(seed: int, prefix: str, section: str | None = None) -> list:
    """(comment, argv) of each ``xmeter`` command in README.md's fenced blocks, or
    in those under the heading ``## section``: its ``\\``-continued lines joined,
    ``S`` replaced by ``seed`` and ``PREFIX`` by ``prefix``. The comment is the first
    line of the ``#`` lines above the command, "" if there are none."""
    text = README.read_text(encoding="utf-8")
    if section:
        text = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        comment = ""
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("#"):
                comment = comment or line.lstrip("# ")
            elif line.startswith("xmeter "):
                argv = [re.sub(r"\bS\b", str(seed), word).replace("PREFIX", prefix)
                        for word in shlex.split(line)[1:]]
                commands.append((comment, argv))
                comment = ""
            elif not line.strip():
                comment = ""
    return commands


def readme_tables(seed: int, prefix: str) -> dict:
    """The argv of each command of README's "Experiment tables", by the name its
    comment starts with (attr-park, attr-tokens, mi, selectors, sweep)."""
    return {comment.split(":")[0]: argv
            for comment, argv in readme_commands(seed, prefix, "Experiment tables")}


@pytest.fixture(scope="session")
def park():
    return park_module.park_model()


@pytest.fixture(scope="session")
def park_point():
    return np.asarray(park_module.PARK_POINT)


@pytest.fixture
def park_cfg():
    return ExpectationConfig(
        distribution=FeatureDistribution.uniform(6),
        loss=SQUARED_ERROR,
        n_mc_samples=5000,
        seed=0,
    )


def constant_model(arity, value=2.5):
    from xmeter.core import ModelHandle

    return ModelHandle(
        arity=arity,
        output_kind="scalar",
        predict_fn=lambda X: np.full(len(X), value),
        gradient_fn=lambda X, target=None: np.zeros((len(X), arity)),
        gradient_capability="exact",
        name="constant",
    )


def linear_model(weights):
    from xmeter.core import ModelHandle

    w = np.asarray(weights, dtype=float)
    return ModelHandle(
        arity=w.size,
        output_kind="scalar",
        predict_fn=lambda X: X @ w,
        gradient_fn=lambda X, target=None: np.tile(w, (len(X), 1)),
        gradient_capability="exact",
        name="linear",
    )


def _is_vector(y) -> bool:
    return isinstance(y, np.ndarray) and y.ndim == 1 and y.size > 1


def evaluate_loss(loss, y_ref, y) -> float:
    """Reference pointwise loss l(y_ref, y); both predictions must share a
    representation. ``core.evaluate_loss_batch`` is the form the metrics use."""
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


def park_value(x) -> float:
    """Reference f(x) = (2/3) e^(x0+x1) - x3 sin(x2) + x2 at one point of [0, 1)^6.

    Coordinates x4 and x5 are inert: the function has no dependence on them.
    """
    x = np.asarray(x, dtype=float)
    return float((2.0 / 3.0) * np.exp(x[0] + x[1]) - x[3] * np.sin(x[2]) + x[2])


def mmd_squared(prototypes, data_points, bandwidth: float) -> float:
    """Reference biased (V-statistic) squared maximum mean discrepancy with a
    Gaussian RBF kernel of the given bandwidth."""
    P = np.asarray(prototypes, dtype=float)
    X = np.asarray(data_points, dtype=float)

    def kernel(A, B):
        sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-sq / (2.0 * bandwidth ** 2))

    return float(kernel(P, P).mean() - 2.0 * kernel(P, X).mean() + kernel(X, X).mean())


def reference_pairwise_distances(X) -> np.ndarray:
    """Reference Euclidean distance matrix, reduced from the whole m x m x d
    tensor of row differences."""
    X = np.asarray(X, dtype=float)
    diff = X[:, None, :] - X[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def reference_median_bandwidth(D) -> float:
    """Reference median bandwidth: the median of a copy of the upper triangle,
    or 1 when there is none or it is not positive."""
    if len(D) < 2:
        return 1.0
    med = float(np.median(D[np.triu_indices(len(D), k=1)]))
    return med if med > 0.0 else 1.0


def reference_full_matrix_kmedoids(D, n: int) -> list[int]:
    """Reference PAM that prices every BUILD and SWAP candidate from one m x m
    temporary: the rows the blocked selector must sum the same way."""
    m = len(D)
    if n == m:
        return list(range(m))
    medoids = [int(np.argmin(D.sum(axis=1)))]
    while len(medoids) < n:
        nearest = D[:, medoids].min(axis=1)
        savings = np.maximum(nearest[None, :] - D, 0.0).sum(axis=1)
        savings[medoids] = -np.inf
        medoids.append(int(np.argmax(savings)))
    for _ in range(100):
        cost = D[:, medoids].min(axis=1).sum()
        best_swap = None
        best_cost = cost - 1e-12
        for pos in range(len(medoids)):
            others = medoids[:pos] + medoids[pos + 1:]
            r = D[others].min(axis=0) if others else np.full(m, np.inf)
            for cand, c in enumerate(np.minimum(D, r).sum(axis=1).tolist()):
                if cand not in medoids and c < best_cost - 1e-12:
                    best_cost = c
                    best_swap = (pos, cand)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
    return sorted(medoids)


def reference_kmedoids(D, n: int) -> list[int]:
    """Reference PAM: the selector's BUILD, then best-improvement SWAP passes
    that price every (medoid, candidate) exchange one at a time."""
    m = len(D)
    if n == m:
        return list(range(m))
    medoids = [int(np.argmin(D.sum(axis=1)))]
    while len(medoids) < n:
        nearest = D[:, medoids].min(axis=1)
        savings = np.maximum(nearest[None, :] - D, 0.0).sum(axis=1)
        savings[medoids] = -np.inf
        medoids.append(int(np.argmax(savings)))
    for _ in range(100):
        cost = D[:, medoids].min(axis=1).sum()
        best_swap = None
        best_cost = cost - 1e-12
        for pos in range(len(medoids)):
            for cand in range(m):
                if cand in medoids:
                    continue
                trial = list(medoids)
                trial[pos] = cand
                c = D[:, trial].min(axis=1).sum()
                if c < best_cost - 1e-12:
                    best_cost = c
                    best_swap = (pos, cand)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
    return sorted(medoids)


def reference_mmd_critic(K, n: int) -> list[int]:
    """Reference MMD-critic greedy: the objective of each candidate set, one
    candidate at a time."""
    m = len(K)
    colmean = K.mean(axis=1)
    chosen: list[int] = []
    for _ in range(n):
        best_j = None
        best_val = np.inf
        for j in range(m):
            if j in chosen:
                continue
            P = chosen + [j]
            val = K[np.ix_(P, P)].mean() - 2.0 * colmean[P].mean()
            if val < best_val - 1e-15:
                best_val = val
                best_j = j
        chosen.append(best_j)
    return chosen


def reference_dense_mmd_critic(K: np.ndarray, n: int) -> list[int]:
    """Reference MMD-critic greedy on a dense kernel matrix, as the selector
    was before it read kernels by rows: each step gathers every candidate's
    kernel block from K by one fancy index."""
    m = len(K)
    colmean = K.mean(axis=1)
    chosen: list[int] = []
    for _ in range(n):
        # row j of P is chosen + [j]; each row's kernel block is reduced as
        # one contiguous run, as K[np.ix_(P[j], P[j])].mean() would be
        size = len(chosen) + 1
        P = np.empty((m, size), dtype=np.intp)
        P[:, :-1] = chosen
        P[:, -1] = np.arange(m)
        # biased MMD^2 between P and the whole sample, up to the data-data term
        vals = (K[P[:, :, None], P[:, None, :]].reshape(m, size * size).mean(axis=1)
                - 2.0 * colmean[P].mean(axis=1))
        vals[chosen] = np.inf  # a chosen row never improves on the start value
        # a value must undercut the best by more than 1e-15; ties go to the lowest index
        chosen.append(_scan(-vals, -np.inf, -np.inf, tol=1e-15)[0])
    return chosen


def reference_dense_protodash(K: np.ndarray, n: int) -> tuple[list[int], np.ndarray]:
    """Reference ProtoDash on a dense kernel matrix, as the selector was before
    it read kernels by rows: gradients from ``K[:, chosen]`` and weights from
    ``K[np.ix_(chosen, chosen)]``."""
    m = len(K)
    mu = K.mean(axis=1)
    chosen: list[int] = []
    w = np.zeros(0)
    for _ in range(n):
        grad = mu - (K[:, chosen] @ w if chosen else np.zeros(m))
        grad_masked = grad.copy()
        grad_masked[chosen] = -np.inf
        j = int(np.argmax(grad_masked))  # argmax takes the lowest index on ties
        chosen.append(j)
        Ks = K[np.ix_(chosen, chosen)]
        w = _project_nonnegative_ls(Ks, mu[chosen], np.concatenate([w, [0.0]]))
    return chosen, w


def chebyshev_distances(P) -> np.ndarray:
    """Reference (n, n) matrix of Chebyshev (max-coordinate) distances."""
    P = np.asarray(P, dtype=float)
    return np.abs(P[:, None] - P[None]).max(2)


def reference_count_within(P, eps) -> np.ndarray:
    """Reference count, for each row i, of the rows strictly closer than
    eps[i] in the Chebyshev metric, row i itself included."""
    return (chebyshev_distances(P) < np.asarray(eps)[:, None]).sum(1)


def reference_sample_matrix(columns, indices, n: int, rng) -> np.ndarray:
    """Reference for ``FeatureDistribution.sample_matrix``: the draws of the
    former per-feature samplers, one call per requested column in order. A
    column is a ``(low, high)`` pair (uniform over [low, high)) or a 1-D array
    of recorded values (resampled with replacement)."""
    draws = []
    for i in indices:
        column = columns[i]
        if isinstance(column, tuple):
            draws.append(rng.uniform(column[0], column[1], size=n))
        else:
            draws.append(column[rng.integers(0, column.size, size=n)])
    return np.column_stack(draws)


def reference_perturbation_test(attr, model, k: int, corpus, n_perturbations: int,
                                seed: int) -> float:
    """Reference perturbation test: the top-k features by |attribution| stay
    clamped, every other column is filled from the corpus column one at a time
    on stream ``[seed, 11]``, and the score is the share of perturbed rows
    whose label equals the explained point's."""
    rest = sorted(importance_order(attr.values)[k:])
    X = np.tile(attr.point, (n_perturbations, 1))
    if rest:
        rng = np.random.default_rng([seed, 11])
        for j in rest:
            col = corpus.features[:, j]
            X[:, j] = col[rng.integers(0, col.size, size=n_perturbations)]
    label_star = model.predict_labels(attr.point[None, :])[0]
    return float(np.mean(model.predict_labels(X) == label_star))


def reference_attribution_report(attrs, model, epsilon: float, cfg) -> list[dict]:
    """Reference report without shared passes: one e-vector, then each
    attribution's effective-complexity search on its own, predicting its own
    f(x*) and running every prefix pass (top-k clamped, the rest resampled
    jointly on stream ``[seed, 7, k]``) even where another search ran it."""
    e = restriction_loss_vector(model, attrs[0].point, cfg)
    entries = []
    for attr in attrs:
        y_ref = batch_predictions(model, attr.point[None, :], cfg.loss)[0]
        order = importance_order(attr.values)
        for k in range(1, attr.arity + 1):
            rest = sorted(order[k:])
            loss = 0.0
            if rest:
                X = np.tile(attr.point, (cfg.n_mc_samples, 1))
                X[:, rest] = cfg.distribution.sample_matrix(
                    rest, cfg.n_mc_samples, np.random.default_rng([cfg.seed, 7, k]))
                loss = float(np.mean(evaluate_loss_batch(
                    cfg.loss, y_ref, batch_predictions(model, X, cfg.loss))))
            if loss < epsilon:
                break
        entries.append({
            "method": attr.method,
            "complexity": complexity(attr),
            "monotonicity": monotonicity(attr, e),
            "non_sensitivity": non_sensitivity(attr, e, cfg.zero_tolerance),
            "effective_complexity": k,
            "ec_saturated": loss >= epsilon,
            "epsilon": epsilon,
            "e_vector": [float(v) for v in e],
            "n_mc_samples": cfg.n_mc_samples,
            "zero_tolerance": cfg.zero_tolerance,
            "loss": cfg.loss.kind,
            "seed": cfg.seed,
        })
    return entries

# Reference MI estimators: each estimate runs its own Chebyshev distance pass
# over its own jittered copy of its columns, and extractor_table runs one
# extractor_report per extractor and run. xmeter.mi shares one pass per
# distinct point set among the estimates of a run; it must give the same bits.


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


def _count_within(points: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """For each row, the number of rows strictly closer than its ``eps`` in the
    Chebyshev metric, the row itself included."""
    counts = np.empty(len(points), dtype=np.intp)
    for rows, d in _distance_blocks(points):
        counts[rows] = (d < eps[rows, None]).sum(axis=1)
    return counts


def _ksg_mi(a: np.ndarray, b: np.ndarray, k: int, rng: np.random.Generator) -> float:
    a = _jitter(a, rng)
    b = _jitter(b, rng)
    n = len(a)
    nx = np.empty(n, dtype=np.intp)
    ny = np.empty(n, dtype=np.intp)
    # the joint Chebyshev distance is the larger of the two sides' distances
    for (rows, da), (_, db) in zip(_distance_blocks(a), _distance_blocks(b)):
        joint = np.maximum(da, db)
        joint.partition(k, axis=1)
        eps = joint[:, k, None]
        nx[rows] = (da < eps).sum(axis=1) - 1
        ny[rows] = (db < eps).sum(axis=1) - 1
    return float(digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1)))


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
    m_all = _count_within(c[keep], eps[keep])
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


def reference_estimate_mi(a, b, k: int = 3, seed: int = 0, a_discrete: bool | None = None,
                          b_discrete: bool | None = None) -> MIEstimate:
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
    for side, M in (("a", A), ("b", B)):
        if M.dtype.kind == "f" and not np.isfinite(M).all():
            raise ContractViolation(f"column block {side} holds a NaN or infinite value")
    if a_discrete is None:
        a_discrete = np.issubdtype(A.dtype, np.integer)
    if b_discrete is None:
        b_discrete = np.issubdtype(B.dtype, np.integer)
    rng = np.random.default_rng([seed, 41])
    n_used = n
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
        # the rows whose discrete value repeats
        counts = np.unique(disc, axis=0, return_counts=True)[1]
        n_used = int(counts[counts > 1].sum())
    return MIEstimate(value=max(raw, 0.0), raw_value=raw, estimator=estimator,
                      k_neighbors=k, n_samples=n, n_used=n_used)


def reference_extractor_report(data: TabularDataset, g: FeatureExtractor,
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
    return (reference_estimate_mi(X, Z, k=k, seed=seed, a_discrete=False, b_discrete=z_disc),
            reference_estimate_mi(Z, y, k=k, seed=seed, a_discrete=z_disc, b_discrete=True))


def reference_extractor_table(data: TabularDataset, names, y: np.ndarray | None, runs: int,
                              k: int, seed: int, ood_count: int, ood_value: float,
                              max_depth: int) -> dict[str, dict]:
    """Mean feature and target MI of each named extractor over ``runs`` runs.

    Run r estimates with seed ``seed + r`` and, for ``random-ood``, draws a
    fresh set of ``ood_count`` replaced features from that seed; the entropy
    discretizer is fitted once. Returns ``{name: {"feature_mi", "target_mi",
    "runs"}}``.
    """
    for name in names:
        if name not in EXTRACTORS:
            raise ContractViolation(f"unknown extractor {name!r}")
    if runs < 1:
        raise ContractViolation(f"runs must be >= 1, got {runs}")
    discretizer = fit_entropy_discretizer(data, max_depth) if "entropy" in names else None
    table = {}
    for name in dict.fromkeys(names):
        feature_vals, target_vals = [], []
        for run_seed in range(seed, seed + runs):
            if name == "identity":
                extractor = identity_extractor()
            elif name == "random-ood":
                extractor = draw_random_ood_extractor(data.n_features, ood_count, run_seed,
                                                      value=ood_value)
            else:
                extractor = discretizer
            feature, target = reference_extractor_report(data, extractor, y, k=k,
                                                         seed=run_seed)
            feature_vals.append(feature.value)
            target_vals.append(target.value)
        table[name] = {"feature_mi": float(np.mean(feature_vals)),
                       "target_mi": float(np.mean(target_vals)), "runs": runs}
    return table


# Reference trees: the per-node split search, and trees grown node by node on a
# stack from it. xmeter.bench grows every node of a level at once; its trees and
# the discretizer's edges must be the same, bit for bit.


def node_impurity(counts, kind):
    """Reference Gini or entropy (nats) of class counts, classes last."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    if kind == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    return -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=-1)


def cut_thresholds(lower, upper):
    """Thresholds between sorted neighbours lower < upper: the midpoint; where
    the sum overflows, the sum of the halves; where that is not below upper
    (adjacent doubles), lower itself."""
    with np.errstate(over="ignore"):
        mid = (lower + upper) / 2.0
    mid = np.where(np.isinf(mid), lower / 2.0 + upper / 2.0, mid)
    return np.where((lower <= mid) & (mid < upper), mid, lower)


def node_split(X, y, n_classes, impurity):
    """Best (feature, threshold) of one node's rows, or None.

    Sorts every column of the node, scores every cut between distinct values
    from prefix class counts as the impurity gain per row, and scans all cuts
    in (feature, threshold) order: a cut replaces the running best only when
    its gain is higher by more than 1e-12, starting from 1e-12. The threshold
    is the midpoint where it separates the two values (``cut_thresholds``).
    """
    n = len(y)
    parent = node_impurity(np.bincount(y, minlength=n_classes), impurity)
    gains, features, thresholds = [], [], []
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        vals = X[order, f]
        cuts = np.nonzero(vals[1:] > vals[:-1])[0]
        prefix = np.zeros((n, n_classes))
        prefix[np.arange(n), y[order]] = 1.0
        prefix = np.cumsum(prefix, axis=0)
        left = prefix[cuts]
        n_left = cuts + 1.0
        children = (node_impurity(left, impurity) * n_left
                    + node_impurity(prefix[-1] - left, impurity) * (n - n_left))
        gains.append(parent - children / n)
        features.append(np.full(cuts.size, f))
        thresholds.append(cut_thresholds(vals[cuts], vals[cuts + 1]))
    best, best_gain = None, 1e-12
    for i, g in enumerate(np.concatenate(gains).tolist()):
        if g > best_gain + 1e-12:
            best, best_gain = i, g
    if best is None:
        return None
    return int(np.concatenate(features)[best]), float(np.concatenate(thresholds)[best])


def reference_tree(X, y, n_classes, max_depth, impurity, split=node_split):
    """Pre-order shape (see ``tree_shape``) of the tree grown by calling
    ``split`` on the rows of each node; a node is a leaf at max_depth, when
    pure, or when ``split`` finds no cut."""
    out, stack = [], [(np.arange(len(y)), 0)]
    while stack:
        idx, depth = stack.pop()
        found = None
        if depth < max_depth and len(np.unique(y[idx])) > 1:
            found = split(X[idx], y[idx], n_classes, impurity)
        if found is None:
            counts = np.bincount(y[idx], minlength=n_classes).astype(float)
            out.append((counts / counts.sum()).tolist())
            continue
        f, t = found
        out.append((f, t))
        mask = X[idx, f] <= t
        stack += [(idx[~mask], depth + 1), (idx[mask], depth + 1)]
    return out


def reference_edges(X, y, n_classes, max_depth, split=node_split):
    """Bin edges of the entropy discretizer grown with ``reference_tree``."""
    return tuple(tuple(sorted(node[1] for node in reference_tree(
        X[:, [f]], y, n_classes, max_depth, "entropy", split) if isinstance(node, tuple)))
        for f in range(X.shape[1]))


def tree_shape(root):
    """Pre-order list of a tree: (feature, threshold) for a split, the class
    distribution as a list for a leaf; walked on a stack, so any depth works."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.append(node.distribution.tolist())
        else:
            out.append((node.feature, node.threshold))
            stack += [node.right, node.left]
    return out



def reference_fit_entropy_discretizer(data: TabularDataset, max_depth: int) -> FeatureExtractor:
    """The entropy discretizer from the per-node search: one ``reference_tree``
    per feature, its thresholds the bin edges (``reference_edges``).
    ``mi.fit_entropy_discretizer`` grows all features level by level in one
    pass; it must give the same edges, bit for bit."""
    if data.labels is None:
        raise ContractViolation("discretizer needs labeled data")
    if max_depth < 1:
        raise ContractViolation("max_depth must be >= 1")
    return FeatureExtractor("entropy-discretizer", bin_edges=reference_edges(
        data.features, data.labels, data.n_classes, max_depth))
