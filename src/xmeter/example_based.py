"""Example-based explanation metrics and the prototype selectors they grade."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ZERO_ONE,
    ContractViolation,
    LossFunction,
    ModelHandle,
    TabularDataset,
    batch_predictions,
    evaluate_loss_batch,
)

NNLS_ITERATIONS = 500
NNLS_TOLERANCE = 1e-8


@dataclass(frozen=True)
class ExampleSet:
    """Prototype samples explaining one prediction of interest."""

    examples: np.ndarray
    target_prediction: object
    source_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        ex = np.array(self.examples, dtype=float)
        if ex.ndim != 2 or ex.shape[0] < 1:
            raise ContractViolation("an example set needs at least one example")
        ex.setflags(write=False)
        object.__setattr__(self, "examples", ex)
        if self.source_indices is not None:
            object.__setattr__(self, "source_indices",
                               tuple(int(i) for i in self.source_indices))

    @property
    def size(self) -> int:
        return self.examples.shape[0]


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian RBF kernel; bandwidth None means the median pairwise heuristic."""

    bandwidth: float | None = None

    def __post_init__(self):
        # the kernel divides by 2 * bandwidth**2, which must be a positive finite float
        if self.bandwidth is not None and not 1e-150 <= self.bandwidth <= 1e150:
            raise ContractViolation("bandwidth must be in [1e-150, 1e150]")

    def resolve_bandwidth(self, X: np.ndarray) -> float:
        if self.bandwidth is not None:
            return self.bandwidth
        return median_bandwidth(X)


def pairwise_distances(X, Y=None) -> np.ndarray:
    """Dense Euclidean distance matrix."""
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    diff = X[:, None, :] - Y[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def median_bandwidth(X) -> float:
    """Median pairwise Euclidean distance; falls back to 1 on degenerate data."""
    D = pairwise_distances(X)
    iu = np.triu_indices(len(D), k=1)
    if iu[0].size == 0:
        return 1.0
    med = float(np.median(D[iu]))
    return med if med > 0.0 else 1.0


def rbf_kernel_matrix(X, Y=None, bandwidth: float = 1.0) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    d2 = pairwise_distances(X, Y) ** 2
    return np.exp(-d2 / (2.0 * bandwidth ** 2))


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
    if examples.size < 2:
        return 0.0
    D = pairwise_distances(examples.examples)
    total = float(D.sum())  # diagonal is zero; off-diagonal counts both orders
    return total / (2.0 * examples.size)


def _filtered(data: TabularDataset, class_label: int | None) -> tuple[TabularDataset, np.ndarray]:
    if class_label is None:
        return data, np.arange(data.n_samples)
    if data.labels is None:
        raise ContractViolation("class filtering needs labels")
    mask = data.labels == class_label
    if not mask.any():
        raise ContractViolation(f"no samples with label {class_label}")
    sub = TabularDataset(data.features[mask], data.labels[mask], data.feature_names)
    return sub, np.nonzero(mask)[0]


def _check_budget(n: int, available: int):
    if n < 1:
        raise ContractViolation("must select at least one example")
    if n > available:
        raise ContractViolation(f"cannot select {n} examples from {available} samples")


def select_kmedoids(data: TabularDataset, class_label: int | None, n: int) -> ExampleSet:
    """PAM: greedy BUILD then best-improvement SWAP passes (at most 100).

    Deterministic: ties always resolve to the lowest candidate index.
    """
    sub, orig_idx = _filtered(data, class_label)
    m = sub.n_samples
    _check_budget(n, m)
    target = class_label if class_label is not None else None
    if n == m:
        return ExampleSet(sub.features, target, tuple(orig_idx))
    D = pairwise_distances(sub.features)

    # BUILD: start from the point with the lowest total distance, then add the
    # candidate with the largest reduction of assignment cost.
    medoids = [int(np.argmin(D.sum(axis=1)))]
    while len(medoids) < n:
        nearest = D[:, medoids].min(axis=1)
        savings = np.maximum(nearest[None, :] - D, 0.0).sum(axis=1)
        savings[medoids] = -np.inf
        medoids.append(int(np.argmax(savings)))

    # SWAP: apply the single best improving (medoid, candidate) exchange.
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
    medoids = sorted(medoids)
    return ExampleSet(sub.features[medoids], target, tuple(orig_idx[medoids]))


def _mmd_objective(K: np.ndarray, colmean: np.ndarray, chosen: Sequence[int]) -> float:
    """Biased MMD^2 between the chosen prototypes and the full sample, up to
    the constant data-data term."""
    P = list(chosen)
    return float(K[np.ix_(P, P)].mean() - 2.0 * colmean[P].mean())


def mmd_squared(prototypes, data_points, bandwidth: float) -> float:
    """Biased (V-statistic) squared maximum mean discrepancy."""
    P = np.asarray(prototypes, dtype=float)
    Dm = np.asarray(data_points, dtype=float)
    return float(
        rbf_kernel_matrix(P, P, bandwidth).mean()
        - 2.0 * rbf_kernel_matrix(P, Dm, bandwidth).mean()
        + rbf_kernel_matrix(Dm, Dm, bandwidth).mean()
    )


def select_mmd_critic(data: TabularDataset, class_label: int | None, n: int,
                      kernel: KernelConfig = KernelConfig()) -> ExampleSet:
    """Greedy forward selection minimizing the biased MMD^2 to the filtered data."""
    sub, orig_idx = _filtered(data, class_label)
    m = sub.n_samples
    _check_budget(n, m)
    bw = kernel.resolve_bandwidth(sub.features)
    K = rbf_kernel_matrix(sub.features, bandwidth=bw)
    colmean = K.mean(axis=1)
    chosen: list[int] = []
    for _ in range(n):
        best_j = None
        best_val = np.inf
        for j in range(m):
            if j in chosen:
                continue
            val = _mmd_objective(K, colmean, chosen + [j])
            if val < best_val - 1e-15:  # strict improvement keeps ties at the lowest index
                best_val = val
                best_j = j
        chosen.append(best_j)
    target = class_label if class_label is not None else None
    return ExampleSet(sub.features[chosen], target, tuple(orig_idx[chosen]))


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


def select_protodash(data: TabularDataset, class_label: int | None, n: int,
                     kernel: KernelConfig = KernelConfig()) -> tuple[ExampleSet, np.ndarray]:
    """Weighted greedy prototype selection.

    Maximizes l(w) = w'mu - w'Kw/2 over nonnegative weights: each step adds the
    candidate with the largest gradient component at the current weights, then
    refits all weights by projected-gradient nonnegative least squares.
    """
    sub, orig_idx = _filtered(data, class_label)
    m = sub.n_samples
    _check_budget(n, m)
    bw = kernel.resolve_bandwidth(sub.features)
    K = rbf_kernel_matrix(sub.features, bandwidth=bw)
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
    target = class_label if class_label is not None else None
    return ExampleSet(sub.features[chosen], target, tuple(orig_idx[chosen])), w


SELECTORS = ("kmedoids", "mmd", "protodash")


def run_selector(name: str, data: TabularDataset, class_label: int | None, n: int,
                 kernel: KernelConfig = KernelConfig()) -> ExampleSet:
    if name == "kmedoids":
        return select_kmedoids(data, class_label, n)
    if name == "mmd":
        return select_mmd_critic(data, class_label, n, kernel=kernel)
    if name == "protodash":
        return select_protodash(data, class_label, n, kernel=kernel)[0]
    raise ContractViolation(f"unknown selector {name!r}")


def class_averaged_metrics(data: TabularDataset, model: ModelHandle, selector: str,
                           n: int, loss: LossFunction | None = None,
                           kernel: KernelConfig = KernelConfig()) -> tuple[float, float]:
    """(NR, D) for one selector at one prototype budget, averaged over classes."""
    loss = ZERO_ONE if loss is None else loss
    if data.labels is None:
        raise ContractViolation("per-class selection needs labels")
    nr_vals, d_vals = [], []
    for c in range(data.n_classes):
        examples = run_selector(selector, data, c, n, kernel=kernel)
        nr_vals.append(non_representativeness(examples, model, loss))
        d_vals.append(diversity(examples))
    return float(np.mean(nr_vals)), float(np.mean(d_vals))


def metrics_vs_n(data: TabularDataset, model: ModelHandle, selector: str,
                 n_range: Sequence[int], loss: LossFunction | None = None,
                 kernel: KernelConfig = KernelConfig()) -> list[dict]:
    """Class-averaged (NR, D) for each prototype budget, for curve plotting."""
    rows = []
    for n in n_range:
        nr, d = class_averaged_metrics(data, model, selector, int(n), loss=loss,
                                       kernel=kernel)
        rows.append({"selector": selector, "n": int(n),
                     "non_representativeness": nr, "diversity": d})
    return rows
