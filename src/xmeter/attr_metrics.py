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
    ZERO_ONE,
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


def _restriction_losses(model: ModelHandle, x_star: np.ndarray, y_ref, resample: list[int],
                        distribution: FeatureDistribution, loss: LossFunction, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Per-row losses against y_ref = f(x*) over n copies of x* whose
    ``resample`` coordinates are drawn jointly from ``distribution``, predicted
    in one batch."""
    X = np.tile(x_star, (n, 1))
    if resample:
        X[:, resample] = distribution.sample_matrix(resample, n, rng)
    return evaluate_loss_batch(loss, y_ref, batch_predictions(model, X, loss))


class _RestrictionPasses:
    """The restriction passes of one explained point under one configuration.

    f(x*) is predicted once, and each joint-resampling prefix loss is computed
    once per ``(k, resampled set)``: with the model, x*, distribution, loss and
    sample count fixed, an equal key draws the same rows from the same stream
    ``[seed, 7, k]`` and gives the same mean.
    """

    def __init__(self, model: ModelHandle, x_star: np.ndarray, cfg: ExpectationConfig):
        if cfg.distribution.arity != model.arity:
            raise ContractViolation("distribution arity does not match the model")
        self.model, self.x_star, self.cfg = model, x_star, cfg
        self.y_ref = batch_predictions(model, x_star[None, :], cfg.loss)[0]
        self._prefix_losses: dict[tuple[int, tuple[int, ...]], float] = {}

    def mean_loss(self, resample: list[int], stream: tuple[int, ...]) -> float:
        """Mean loss of n rows resampling ``resample`` from stream ``[seed, *stream]``."""
        cfg = self.cfg
        return float(np.mean(_restriction_losses(
            self.model, self.x_star, self.y_ref, resample, cfg.distribution, cfg.loss,
            cfg.n_mc_samples, np.random.default_rng([cfg.seed, *stream]))))

    def prefix_loss(self, k: int, rest: list[int]) -> float:
        """Loss with the top-k clamped and ``rest`` resampled jointly (stream ``[seed, 7, k]``)."""
        key = (k, tuple(rest))
        if key not in self._prefix_losses:
            self._prefix_losses[key] = self.mean_loss(rest, (7, k))
        return self._prefix_losses[key]


def restriction_loss_vector(model: ModelHandle, x_star, cfg: ExpectationConfig,
                            _passes: _RestrictionPasses | None = None) -> np.ndarray:
    """e_i = E[l(f(x*), f_i(X_i)) | x*_{-i}]: resample feature i (stream
    ``[seed, 3, i]``), clamp the rest at x*; f(x*) is predicted once, or taken
    from ``_passes``, the report's shared passes at this point."""
    passes = _passes or _RestrictionPasses(model, np.asarray(x_star, dtype=float), cfg)
    return np.array([passes.mean_loss([i], (3, i)) for i in range(model.arity)])


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
    losses: tuple[float, ...]  # estimate for each prefix size 1..k


def effective_complexity_detail(attr: AttributionVector, model: ModelHandle,
                                epsilon: float, cfg: ExpectationConfig,
                                _passes: _RestrictionPasses | None = None
                                ) -> EffectiveComplexityResult:
    """Smallest k whose top-k clamp keeps the joint-resampling loss below epsilon.

    All non-top-k coordinates are resampled jointly (marginally independent
    draws), the top-k stay clamped at the explained point. The full prefix
    resamples nothing, so its loss is 0 and k never exceeds the arity.
    ``_passes``, the report's shared passes at this point, supplies f(x*) and
    the prefix losses other attributions of the point already computed.
    """
    if not epsilon > 0:  # NaN too, which no loss is below
        raise ContractViolation("epsilon must be positive")
    passes = _passes or _RestrictionPasses(model, attr.point, cfg)
    order = importance_order(attr.values)
    losses: list[float] = []
    for k in range(1, attr.arity + 1):
        rest = sorted(order[k:])
        losses.append(passes.prefix_loss(k, rest) if rest else 0.0)
        if losses[-1] < epsilon:
            break
    return EffectiveComplexityResult(k=len(losses), losses=tuple(losses))


def perturbation_test(attr: AttributionVector, model: ModelHandle, k: int,
                      corpus: TabularDataset, n_perturbations: int, seed: int) -> float:
    """Fraction of perturbed samples keeping the explained point's class.

    The top-k features by |attribution| stay clamped; every other coordinate is
    drawn uniformly from the rows of the same corpus column: a restriction pass
    over the corpus's empirical distribution under zero-one loss, stream
    ``[seed, 11]``, scored as the share of rows with zero loss.
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
    y_ref = batch_predictions(model, attr.point[None, :], ZERO_ONE)[0]
    losses = _restriction_losses(model, attr.point, y_ref, rest,
                                 FeatureDistribution.empirical(corpus), ZERO_ONE,
                                 n_perturbations, np.random.default_rng([seed, 11]))
    return float(np.mean(losses == 0))


def attribution_report(attrs: Sequence[AttributionVector], model: ModelHandle,
                       epsilon: float, cfg: ExpectationConfig) -> list[dict]:
    """JSON-ready metric entries for attributions of one explained point, in order.

    The restriction losses e depend only on the model, the point and the
    sampling distribution, so one e-vector serves every attribution. One set
    of passes serves them all: f(x*) is predicted once, and a prefix that two
    attributions share (same k, same resampled set) is estimated once.
    """
    if not attrs:
        return []
    x_star = attrs[0].point
    if any(not np.array_equal(attr.point, x_star) for attr in attrs):
        raise ContractViolation("the attributions explain different points")
    passes = _RestrictionPasses(model, x_star, cfg)
    e = restriction_loss_vector(model, x_star, cfg, passes)
    entries = []
    for attr in attrs:
        ec = effective_complexity_detail(attr, model, epsilon, cfg, passes)
        entries.append({
            "method": attr.method,
            "complexity": complexity(attr),
            "monotonicity": monotonicity(attr, e),
            "non_sensitivity": non_sensitivity(attr, e, cfg.zero_tolerance),
            "effective_complexity": ec.k,
            "ec_saturated": False,  # kept so reports keep their bytes; k stops at the arity
            "epsilon": epsilon,
            "e_vector": [float(v) for v in e],
            "n_mc_samples": cfg.n_mc_samples,
            "zero_tolerance": cfg.zero_tolerance,
            "loss": cfg.loss.kind,
            "seed": cfg.seed,
        })
    return entries
