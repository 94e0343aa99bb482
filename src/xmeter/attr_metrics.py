"""Attribution metrics: restriction losses, monotonicity, non-sensitivity,
complexity, effective complexity, and the perturbation test.

The common primitive is the expected loss of the model under restriction:
clamp some coordinates at the explained point, resample the rest from a
feature distribution, and average a pointwise loss against the original
prediction. Attributions are then judged by how well their magnitudes track
those expected losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attr_methods import AttributionVector
from .core import (
    ContractViolation,
    FeatureDistribution,
    LossFunction,
    ModelHandle,
    TabularDataset,
    UndefinedCorrelation,
    batch_predictions,
    evaluate_loss_batch,
)

# Relative floor below which an attribution counts as zero. Exact-gradient
# methods produce true zeros for inert features; finite differences do not.
ZERO_ATTRIBUTION_REL = 1e-12


@dataclass(frozen=True)
class ExpectationConfig:
    """Settings for Monte Carlo restriction-loss estimates."""

    distribution: FeatureDistribution
    loss: LossFunction
    n_mc_samples: int = 5000
    zero_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.n_mc_samples < 100:
            raise ContractViolation("n_mc_samples must be >= 100")
        if self.zero_tolerance < 0:
            raise ContractViolation("zero_tolerance must be >= 0")


def _restriction_loss(model: ModelHandle, x_star: np.ndarray, y_ref, resample: list[int],
                      cfg: ExpectationConfig, rng: np.random.Generator) -> float:
    """Mean loss against y_ref = f(x*) after jointly resampling the given coordinates."""
    X = np.tile(x_star, (cfg.n_mc_samples, 1))
    X[:, resample] = cfg.distribution.sample_matrix(resample, cfg.n_mc_samples, rng)
    preds = batch_predictions(model, X, cfg.loss)
    return float(np.mean(evaluate_loss_batch(cfg.loss, y_ref, preds)))


def restriction_loss_vector(model: ModelHandle, x_star, cfg: ExpectationConfig) -> np.ndarray:
    """e_i = E[l(f(x*), f_i(X_i)) | x*_{-i}]: resample feature i (stream
    ``[seed, 3, i]``), clamp the rest at x*; f(x*) is predicted once."""
    x_star = np.asarray(x_star, dtype=float)
    if cfg.distribution.arity != model.arity:
        raise ContractViolation("distribution arity does not match the model")
    y_ref = batch_predictions(model, x_star[None, :], cfg.loss)[0]
    return np.array([_restriction_loss(model, x_star, y_ref, [i], cfg,
                                       np.random.default_rng([cfg.seed, 3, i]))
                     for i in range(model.arity)])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean of their covered positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman correlation: Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ContractViolation("spearman needs two equal-length vectors of size >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelation(
            "rank correlation undefined: "
            + ("first" if sx == 0.0 else "second") + " rank vector is constant"
        )
    return float((dx @ dy) / np.sqrt(sx * sy))


def zero_attribution_set(attr: AttributionVector) -> set[int]:
    """Features with |a_i| <= ZERO_ATTRIBUTION_REL * max |a| (or the bare
    floor when every attribution is zero)."""
    thresh = ZERO_ATTRIBUTION_REL * (float(np.abs(attr.values).max(initial=0.0)) or 1.0)
    return {i for i, v in enumerate(attr.values) if abs(v) <= thresh}


def complexity(attr: AttributionVector) -> int:
    """Number of non-zero attributions (relative-threshold zeros excluded)."""
    return attr.arity - len(zero_attribution_set(attr))


def monotonicity(attr: AttributionVector, e: np.ndarray) -> float:
    """Spearman correlation between |attributions| and the restriction losses e."""
    if attr.arity < 2:
        raise ContractViolation("monotonicity needs arity >= 2")
    return spearman(np.abs(attr.values), e)


def non_sensitivity(attr: AttributionVector, e: np.ndarray, zero_tolerance: float) -> int:
    """|A0 symmetric-difference X0|: zero-attributed features vs features whose
    restriction loss in e is at most zero_tolerance (functionally inert)."""
    a_zero = zero_attribution_set(attr)
    x_zero = {i for i, v in enumerate(e) if v <= zero_tolerance}
    return len(a_zero ^ x_zero)


def importance_order(values: np.ndarray) -> list[int]:
    """Feature indices by decreasing |value|; ties keep the lower index first."""
    return sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))


@dataclass(frozen=True)
class EffectiveComplexityResult:
    k: int
    saturated: bool
    losses: tuple[float, ...]  # estimate for each prefix size 1..k


def effective_complexity_detail(attr: AttributionVector, model: ModelHandle,
                                epsilon: float, cfg: ExpectationConfig) -> EffectiveComplexityResult:
    """Smallest k whose top-k clamp keeps the joint-resampling loss below epsilon.

    All non-top-k coordinates are resampled jointly (marginally independent
    draws), the top-k stay clamped at the explained point. If no prefix
    reaches the tolerance the result saturates at the full arity.
    """
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    if cfg.distribution.arity != model.arity:
        raise ContractViolation("distribution arity does not match the model")
    y_ref = batch_predictions(model, attr.point[None, :], cfg.loss)[0]
    order = importance_order(attr.values)
    losses: list[float] = []
    for k in range(1, attr.arity + 1):
        rest = sorted(order[k:])
        if rest:
            rng = np.random.default_rng([cfg.seed, 7, k])
            loss = _restriction_loss(model, attr.point, y_ref, rest, cfg, rng)
        else:
            loss = 0.0
        losses.append(loss)
        if loss < epsilon:
            return EffectiveComplexityResult(k=k, saturated=False, losses=tuple(losses))
    return EffectiveComplexityResult(k=attr.arity, saturated=True, losses=tuple(losses))


def perturbation_test(attr: AttributionVector, model: ModelHandle, k: int,
                      corpus: TabularDataset, n_perturbations: int, seed: int) -> float:
    """Fraction of perturbed samples keeping the explained point's class.

    The top-k features by |attribution| stay clamped; every other coordinate is
    replaced by a value drawn uniformly from the same column of the corpus.
    """
    if model.output_kind == "scalar":
        raise ContractViolation("perturbation test needs a classifier")
    if not 1 <= k <= attr.arity:
        raise ContractViolation("k must be in 1..arity")
    if corpus.n_features != model.arity:
        raise ContractViolation("corpus width does not match the model")
    if n_perturbations < 1:
        raise ContractViolation("n_perturbations must be >= 1")
    rest = sorted(importance_order(attr.values)[k:])
    X = np.tile(attr.point, (n_perturbations, 1))
    if rest:
        rng = np.random.default_rng([seed, 11])
        for j in rest:
            col = corpus.features[:, j]
            X[:, j] = col[rng.integers(0, col.size, size=n_perturbations)]
    label_star = model.predict_label(attr.point)
    return float(np.mean(model.predict_labels(X) == label_star))


def attribution_report(attrs: Sequence[AttributionVector], model: ModelHandle,
                       epsilon: float, cfg: ExpectationConfig) -> list[dict]:
    """JSON-ready metric entries for attributions of one explained point, in order.

    The restriction losses e depend only on the model, the point and the
    sampling distribution, so one e-vector serves every attribution.
    """
    if not attrs:
        return []
    x_star = attrs[0].point
    if any(not np.array_equal(attr.point, x_star) for attr in attrs):
        raise ContractViolation("the attributions explain different points")
    e = restriction_loss_vector(model, x_star, cfg)
    entries = []
    for attr in attrs:
        ec = effective_complexity_detail(attr, model, epsilon, cfg)
        entries.append({
            "method": attr.method,
            "complexity": complexity(attr),
            "monotonicity": monotonicity(attr, e),
            "non_sensitivity": non_sensitivity(attr, e, cfg.zero_tolerance),
            "effective_complexity": ec.k,
            "ec_saturated": ec.saturated,
            "epsilon": epsilon,
            "e_vector": [float(v) for v in e],
            "n_mc_samples": cfg.n_mc_samples,
            "zero_tolerance": cfg.zero_tolerance,
            "loss": cfg.loss.kind,
            "seed": cfg.seed,
        })
    return entries
