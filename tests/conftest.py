import numpy as np
import pytest

from xmeter import bench
from xmeter.core import FeatureDistribution, SQUARED_ERROR
from xmeter.attr_metrics import ExpectationConfig, importance_order


@pytest.fixture(scope="session")
def park():
    return bench.park_model()


@pytest.fixture(scope="session")
def park_point():
    return np.asarray(bench.PARK_POINT)


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
