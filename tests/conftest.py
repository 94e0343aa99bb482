import numpy as np
import pytest

from xmeter import park as park_module
from xmeter.core import FeatureDistribution, SQUARED_ERROR, batch_predictions, evaluate_loss_batch
from xmeter.attr_metrics import (
    ExpectationConfig,
    complexity,
    importance_order,
    monotonicity,
    non_sensitivity,
    restriction_loss_vector,
)


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
        gradient_fn=lambda x, target=None: np.zeros(arity),
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
        gradient_fn=lambda x, target=None: w.copy(),
        gradient_capability="exact",
        name="linear",
    )


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
