"""Example-based explanation metrics and the prototype selectors they grade."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BLOCK,
    ZERO_ONE,
    ContractViolation,
    LossFunction,
    ModelHandle,
    TabularDataset,
    batch_predictions,
    evaluate_loss_batch,
)
from .bench import _scan

NNLS_ITERATIONS = 500
NNLS_TOLERANCE = 1e-8


@dataclass(frozen=True)
class ExampleSet:
    """Prototype samples explaining one prediction of interest."""

    examples: np.ndarray
    target_prediction: object

    def __post_init__(self):
        ex = np.array(self.examples, dtype=float)
        if ex.ndim != 2 or ex.shape[0] < 1:
            raise ContractViolation("an example set needs at least one example")
        ex.setflags(write=False)
        object.__setattr__(self, "examples", ex)


def pairwise_distances(X, out: np.ndarray | None = None) -> np.ndarray:
    """Dense Euclidean distance matrix between the rows of X, bitwise symmetric,
    written into ``out`` (an m x m array) if given.

    Row blocks of the upper triangle, each at most ``BLOCK`` difference entries
    (or one row), are reduced by ``einsum`` and copied, transposed, into the
    lower triangle, so memory is the m x m result plus one block whatever the
    width. An entry sums its squared differences in the same order as over a
    full m x m x d difference tensor, and (x - y)² = (y - x)² exactly, so the
    diagonal blocks are symmetric too.
    """
    X = np.asarray(X, dtype=float)
    m, d = X.shape
    D = np.empty((m, m)) if out is None else out
    lo = 0
    while lo < m:
        hi = min(m, lo + max(1, BLOCK // ((m - lo) * d)))
        diff = X[lo:hi, None, :] - X[None, lo:, :]
        block = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        D[lo:hi, lo:] = block
        D[lo:, lo:hi] = block.T
        lo = hi
    return D


def median_bandwidth(D: np.ndarray) -> float:
    """Median off-diagonal entry of a distance matrix; falls back to 1 on degenerate data.

    One partition of the entries above the diagonal at their middle index h
    puts the upper middle value at h and only smaller or equal values before
    it. An even count then takes the largest of those as the lower middle
    value and averages the two as ``np.median`` does, (a + b) / 2, bit for bit.
    """
    if len(D) < 2:
        return 1.0
    # the mask made a copy, which may be partitioned in place
    upper = D[np.arange(len(D))[:, None] < np.arange(len(D))]
    h = len(upper) // 2
    upper.partition(h)
    med = float(upper[h] if len(upper) % 2 else (upper[:h].max() + upper[h]) / 2.0)
    return med if med > 0.0 else 1.0


def rbf_kernel(D: np.ndarray, bandwidth: float, out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian RBF kernel exp(-D^2 / (2 bandwidth^2)) of a distance matrix,
    written into ``out`` (an array of D's shape) if given."""
    K = np.square(D, out=out)
    K /= -(2.0 * bandwidth ** 2)
    return np.exp(K, out=K)


def non_representativeness(examples: ExampleSet, model: ModelHandle,
                           loss: LossFunction) -> float:
    """Mean loss between the explained prediction and the model on each example."""
    if examples.examples.shape[1] != model.arity:
        raise ContractViolation("example width does not match the model")
    preds = batch_predictions(model, examples.examples, loss)
    return float(np.mean(evaluate_loss_batch(loss, examples.target_prediction, preds)))


def diversity(examples: ExampleSet) -> float:
    """Sum of pairwise distances over ordered pairs, divided by 2 * N_E.

    Singletons have diversity 0.
    """
    n = len(examples.examples)
    if n < 2:
        return 0.0
    D = pairwise_distances(examples.examples)
    total = float(D.sum())  # diagonal is zero; off-diagonal counts both orders
    return total / (2.0 * n)


def _row_sums(D: np.ndarray, fills, sums, buf: np.ndarray) -> None:
    """Row sums of elementwise functions of D into the rows ``sums``, one row
    block of ``buf``'s height at a time, every function taking its turn while
    the block is in cache: ``fills[j](rows, out)`` writes function j of the rows
    of D into ``out``, whose row sums go to ``sums[j]``. Each row is summed as a
    row of the whole m x m result would be."""
    for lo in range(0, len(D), len(buf)):
        rows = D[lo:lo + len(buf)]
        out = buf[:len(rows)]
        for fill, s in zip(fills, sums):
            fill(rows, out)
            out.sum(axis=1, out=s[lo:lo + len(rows)])


def select_kmedoids(D: np.ndarray, n: int) -> list[int]:
    """PAM on distance matrix D: greedy BUILD then best-improvement SWAP passes
    (at most 100); returns the sorted row indices of the n medoids.

    Deterministic: a swap must lower the cost by more than 1e-12 and ties
    resolve to the lowest (position, candidate), by ``bench._scan``'s rule on
    the negated costs (negation is exact). D must be bitwise symmetric, as
    ``pairwise_distances`` returns it: a swap's cost is summed over row
    ``cand`` rather than column ``cand``, which then adds the same floats in
    the same order. The n x m swap costs are carried between passes: a swap at
    one position leaves that position's other medoids, and so its costs, as
    they were, and only the other positions are priced again. Candidates are
    priced in row blocks of about ``BLOCK`` entries through one reused buffer,
    never an m x m temporary.
    """
    m = len(D)
    if n == m:
        return list(range(m))
    buf = np.empty((min(m, max(1, BLOCK // m)), m))

    # BUILD: start from the point with the lowest total distance, then add the
    # candidate with the largest reduction of assignment cost.
    medoids = [int(np.argmin(D.sum(axis=1)))]
    savings = np.empty(m)
    while len(medoids) < n:
        nearest = D[:, medoids].min(axis=1)
        _row_sums(D, [lambda rows, out: np.maximum(
            np.subtract(nearest, rows, out=out), 0.0, out=out)], [savings], buf)
        savings[medoids] = -np.inf
        medoids.append(int(np.argmax(savings)))

    # SWAP: apply the single best improving (medoid, candidate) exchange. With
    # r each point's distance to the other medoids of position pos, swapping in
    # cand there costs costs[pos, cand] = sum_i min(D[i, cand], r[i]), a row sum.
    costs, gains = np.empty((n, m)), np.empty((n, m))
    stale = range(n)
    for _ in range(100):
        fills = []
        for pos in stale:
            others = medoids[:pos] + medoids[pos + 1:]
            r = D[others].min(axis=0) if others else np.full(m, np.inf)
            fills.append(lambda rows, out, r=r: np.minimum(rows, r, out=out))
        _row_sums(D, fills, [costs[pos] for pos in stale], buf)
        np.negative(costs, out=gains)
        gains[:, medoids] = -np.inf  # a medoid is no candidate
        cost = D[:, medoids].min(axis=1).sum()
        hit = _scan(gains.reshape(-1), -(cost - 1e-12), -np.inf)[0]
        if hit is None:
            break
        pos, cand = divmod(hit, m)
        medoids[pos] = cand
        stale = [q for q in range(n) if q != pos]
    return sorted(medoids)


def select_mmd_critic(K: np.ndarray, n: int) -> list[int]:
    """Greedy forward selection minimizing the biased MMD^2 to the sample whose
    kernel matrix is K; returns row indices in the order chosen."""
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


def _project_nonnegative_ls(K: np.ndarray, mu: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Maximize w'mu - w'Kw/2 over w >= 0 by projected gradient ascent."""
    lam = float(np.linalg.eigvalsh(K)[-1])
    step = 1.0 / lam if lam > 0 else 1.0
    w = w0.copy()
    for _ in range(NNLS_ITERATIONS):
        w_next = np.maximum(0.0, w + step * (mu - K @ w))
        if np.max(np.abs(w_next - w)) < NNLS_TOLERANCE:
            return w_next
        w = w_next
    return w


def select_protodash(K: np.ndarray, n: int) -> tuple[list[int], np.ndarray]:
    """Weighted greedy prototype selection on kernel matrix K; returns the row
    indices in the order chosen and their weights.

    Maximizes l(w) = w'mu - w'Kw/2 over nonnegative weights: each step adds the
    candidate with the largest gradient component at the current weights, then
    refits all weights by projected-gradient nonnegative least squares.
    """
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


# Each selector's prototype rows from a class's distance matrix D and kernel K.
SELECTORS = {
    "kmedoids": lambda D, K, n: select_kmedoids(D, n),
    "mmd": lambda D, K, n: select_mmd_critic(K, n),
    "protodash": lambda D, K, n: select_protodash(K, n)[0],
}
# Greedy selectors: their rows at budget n are the first n at any larger budget.
NESTED = {"mmd", "protodash"}


def _class_metrics(X: np.ndarray, label: int, model: ModelHandle, names: list[str],
                   n_range: Sequence[int], bandwidth: float | None,
                   workspace: np.ndarray) -> list[tuple]:
    """(NR, D) of each selector at each budget, in that order, on one class's
    rows X. The class's distance matrix and kernel fill the first 2 m² entries
    of the flat array ``workspace`` and serve only this call; each greedy
    selector runs once, to the largest budget."""
    m = len(X)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        D = pairwise_distances(X, out=workspace[:m * m].reshape(m, m))
        K = rbf_kernel(D, median_bandwidth(D) if bandwidth is None else bandwidth,
                       out=workspace[m * m:2 * m * m].reshape(m, m))
    if not (np.isfinite(D).all() and np.isfinite(K).all()):
        raise FloatingPointError(f"the distances or RBF kernel of class {label} overflow "
                                 "or are undefined; rescale the features")
    out = []
    for name in names:
        select = SELECTORS[name]
        if name in NESTED:
            longest = select(D, K, max(n_range))
            picks = [longest[:n] for n in n_range]
        else:
            picks = [select(D, K, n) for n in n_range]
        for rows in picks:
            examples = ExampleSet(X[rows], label)
            out.append((non_representativeness(examples, model, ZERO_ONE),
                        diversity(examples)))
    return out


def metrics_vs_n(data: TabularDataset, model: ModelHandle, selectors: Sequence[str],
                 n_range: Sequence[int], bandwidth: float | None = None) -> dict[str, list[dict]]:
    """The example table: {selector: [row per budget]}, each row the
    class-averaged (NR, D) of that selector's prototypes at that budget.

    Each class's distance matrix, bandwidth (the median distance unless one is
    given) and RBF kernel are built once and serve every selector and budget.
    Every class's matrices fill one workspace sized for the largest class.
    """
    names = list(dict.fromkeys(selectors))
    for name in names:
        if name not in SELECTORS:
            raise ContractViolation(f"unknown selector {name!r}")
    # the kernel divides by 2 * bandwidth**2, which must be a positive finite float
    if bandwidth is not None and not 1e-150 <= bandwidth <= 1e150:
        raise ContractViolation("bandwidth must be in [1e-150, 1e150]")
    if data.labels is None:
        raise ContractViolation("per-class selection needs labels")
    present, counts = np.unique(data.labels, return_counts=True)
    if len(present) < data.n_classes:  # the first label missing from 0, 1, 2, ...
        gap = int(np.argmax(present != np.arange(len(present))))
        raise ContractViolation(f"no samples with label {gap}")
    for n in n_range:
        if not 1 <= n <= counts.min():
            raise ContractViolation(f"cannot select {n} examples from {counts.min()} samples")
    # a fresh m x m matrix per class above glibc's mmap threshold is a fresh
    # mapping, page-faulted in anew
    workspace = np.empty(2 * int(counts.max()) ** 2)
    # per (selector, budget) cell, in order, the (NR, D) pair of every class
    cells = iter(zip(*[_class_metrics(data.features[data.labels == c], c, model, names,
                                      n_range, bandwidth, workspace)
                       for c in range(data.n_classes)]))
    table = {name: [] for name in names}
    for name in names:
        for n in n_range:
            nr, d = zip(*next(cells))
            table[name].append({"selector": name, "n": n, "non_representativeness":
                                float(np.mean(nr)), "diversity": float(np.mean(d))})
    return table
