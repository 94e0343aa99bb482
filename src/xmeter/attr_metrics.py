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


def _reference_prediction(model: ModelHandle, x_star: np.ndarray, loss: LossFunction):
    """Prediction representation the loss consumes: labels for zero-one, raw otherwise."""
    if loss.kind == "zero-one":
        return model.predict_label(x_star)
    y = model.predict(x_star)
    if loss.kind == "cross-entropy" and model.output_kind != "probs":
        raise ContractViolation("cross-entropy needs a class-probability model")
    return y


def _restriction_loss(model: ModelHandle, x_star: np.ndarray, resample: list[int],
                      cfg: ExpectationConfig, rng: np.random.Generator) -> float:
    """Mean loss after jointly resampling the given coordinates."""
    X = np.tile(x_star, (cfg.n_mc_samples, 1))
    X[:, resample] = cfg.distribution.sample_matrix(resample, cfg.n_mc_samples, rng)
    y_ref = _reference_prediction(model, x_star, cfg.loss)
    preds = batch_predictions(model, X, cfg.loss)
    return float(np.mean(evaluate_loss_batch(cfg.loss, y_ref, preds)))


def expected_restriction_loss(model: ModelHandle, x_star, i: int,
                              cfg: ExpectationConfig) -> float:
    """E[l(y*, f_i(X_i)) | x*_{-i}]: resample feature i, clamp the rest at x*."""
    x_star = np.asarray(x_star, dtype=float)
    if not 0 <= i < model.arity:
        raise ContractViolation(f"feature index {i} out of range")
    if cfg.distribution.arity != model.arity:
        raise ContractViolation("distribution arity does not match the model")
    rng = np.random.default_rng([cfg.seed, 3, i])
    return _restriction_loss(model, x_star, [i], cfg, rng)


def restriction_loss_vector(model: ModelHandle, x_star, cfg: ExpectationConfig) -> np.ndarray:
    """The per-feature expected restriction losses e_i, one shared pass."""
    return np.array([expected_restriction_loss(model, x_star, i, cfg)
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


def attribution_zero_threshold(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return ZERO_ATTRIBUTION_REL * peak if peak > 0.0 else ZERO_ATTRIBUTION_REL


def zero_attribution_set(attr: AttributionVector) -> set[int]:
    thresh = attribution_zero_threshold(attr.values)
    return {i for i, v in enumerate(attr.values) if abs(v) <= thresh}


def complexity(attr: AttributionVector) -> int:
    """Number of non-zero attributions (relative-threshold zeros excluded)."""
    return attr.arity - len(zero_attribution_set(attr))


def monotonicity(attr: AttributionVector, model: ModelHandle, cfg: ExpectationConfig,
                 e_vector: np.ndarray | None = None) -> float:
    """Spearman correlation between |attributions| and expected restriction losses."""
    if attr.arity < 2:
        raise ContractViolation("monotonicity needs arity >= 2")
    e = restriction_loss_vector(model, attr.point, cfg) if e_vector is None else e_vector
    return spearman(np.abs(attr.values), e)


def non_sensitivity(attr: AttributionVector, model: ModelHandle, cfg: ExpectationConfig,
                    e_vector: np.ndarray | None = None) -> int:
    """|A0 symmetric-difference X0|: zero-attributed vs functionally inert features."""
    e = restriction_loss_vector(model, attr.point, cfg) if e_vector is None else e_vector
    a_zero = zero_attribution_set(attr)
    x_zero = {i for i, v in enumerate(e) if v <= cfg.zero_tolerance}
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
    order = importance_order(attr.values)
    losses: list[float] = []
    for k in range(1, attr.arity + 1):
        rest = sorted(order[k:])
        if rest:
            rng = np.random.default_rng([cfg.seed, 7, k])
            loss = _restriction_loss(model, attr.point, rest, cfg, rng)
        else:
            loss = 0.0
        losses.append(loss)
        if loss < epsilon:
            return EffectiveComplexityResult(k=k, saturated=False, losses=tuple(losses))
    return EffectiveComplexityResult(k=attr.arity, saturated=True, losses=tuple(losses))


def effective_complexity(attr: AttributionVector, model: ModelHandle,
                         epsilon: float, cfg: ExpectationConfig) -> int:
    return effective_complexity_detail(attr, model, epsilon, cfg).k


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


def attribution_report(attr: AttributionVector, model: ModelHandle, epsilon: float,
                       cfg: ExpectationConfig) -> dict:
    """All four metrics with one shared restriction-loss pass, as a JSON-ready entry."""
    e = restriction_loss_vector(model, attr.point, cfg)
    ec = effective_complexity_detail(attr, model, epsilon, cfg)
    return {
        "method": attr.method,
        "complexity": complexity(attr),
        "monotonicity": monotonicity(attr, model, cfg, e_vector=e),
        "non_sensitivity": non_sensitivity(attr, model, cfg, e_vector=e),
        "effective_complexity": ec.k,
        "ec_saturated": ec.saturated,
        "epsilon": epsilon,
        "e_vector": [float(v) for v in e],
        "n_mc_samples": cfg.n_mc_samples,
        "zero_tolerance": cfg.zero_tolerance,
        "loss": cfg.loss.kind,
        "seed": cfg.seed,
    }
