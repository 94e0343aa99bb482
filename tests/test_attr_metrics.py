import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from xmeter import bench
from xmeter.attr_methods import (
    AttributionVector,
    compute_attribution,
    random_attribution,
    saliency,
)
from xmeter.attr_metrics import (
    ExpectationConfig,
    attribution_report,
    complexity,
    effective_complexity_detail,
    importance_order,
    monotonicity,
    non_sensitivity,
    perturbation_test,
    restriction_loss_vector,
    spearman,
)
from xmeter.core import (
    ContractViolation,
    FeatureDistribution,
    SQUARED_ERROR,
    TabularDataset,
    UndefinedCorrelation,
    ZERO_ONE,
)
from conftest import constant_model, park_value, reference_perturbation_test


def quad_restriction_loss(i, point=bench.PARK_POINT):
    """Independent 1-D quadrature of E[(f_i(t) - f(x*))^2] over [0, 1)."""
    f_star = park_value(point)

    def integrand(t):
        x = np.array(point)
        x[i] = t
        return (park_value(x) - f_star) ** 2

    value, _ = quad(integrand, 0.0, 1.0, limit=200)
    return value


class TestExpectedRestrictionLoss:
    def test_inert_coordinates_are_exactly_zero(self, park, park_point, park_cfg):
        e = restriction_loss_vector(park, park_point, park_cfg)
        assert e[4] == 0.0 and e[5] == 0.0

    def test_constant_model_is_zero(self, park_cfg):
        m = constant_model(6)
        assert restriction_loss_vector(m, np.zeros(6), park_cfg)[0] == 0.0

    def test_matches_quadrature_within_three_standard_errors(self, park, park_point):
        cfg = ExpectationConfig(FeatureDistribution.uniform(6), SQUARED_ERROR,
                                n_mc_samples=10000, seed=0)
        e = restriction_loss_vector(park, park_point, cfg)
        for i in (0, 2, 3):
            oracle = quad_restriction_loss(i)
            rng = np.random.default_rng([cfg.seed, 3, i])
            draws = cfg.distribution.sample_matrix([i], cfg.n_mc_samples, rng)[:, 0]
            X = np.tile(np.asarray(park_point), (cfg.n_mc_samples, 1))
            X[:, i] = draws
            losses = (park.predict_batch(X) - park.predict(park_point)) ** 2
            stderr = losses.std(ddof=1) / np.sqrt(cfg.n_mc_samples)
            assert abs(e[i] - oracle) <= 3 * stderr

    def test_doubling_samples_is_consistent(self, park, park_point):
        base = ExpectationConfig(FeatureDistribution.uniform(6), SQUARED_ERROR,
                                 n_mc_samples=4000, seed=5)
        double = ExpectationConfig(FeatureDistribution.uniform(6), SQUARED_ERROR,
                                   n_mc_samples=8000, seed=6)
        e_base = restriction_loss_vector(park, park_point, base)
        e_double = restriction_loss_vector(park, park_point, double)
        for i in (0, 3):
            a, b = e_base[i], e_double[i]
            rng = np.random.default_rng([5, 3, i])
            draws = base.distribution.sample_matrix([i], base.n_mc_samples, rng)[:, 0]
            X = np.tile(np.asarray(park_point), (base.n_mc_samples, 1))
            X[:, i] = draws
            losses = (park.predict_batch(X) - park.predict(park_point)) ** 2
            se = losses.std(ddof=1) / np.sqrt(base.n_mc_samples)
            assert abs(a - b) < 3 * np.hypot(se, se / np.sqrt(2))

    def test_arity_mismatch_rejected(self, park, park_point):
        cfg = ExpectationConfig(FeatureDistribution.uniform(4), SQUARED_ERROR, seed=0)
        with pytest.raises(ContractViolation):
            restriction_loss_vector(park, park_point, cfg)


# Frozen reference values for the rank correlation, including tied ranks.
SPEARMAN_CASES = [
    ([1, 2, 3], [10, 20, 30], 1.0),
    ([3, 2, 1], [10, 20, 30], -1.0),
    ([1, 2, 3, 4], [1, 3, 2, 4], 0.7999999999999999),
    ([1, 1, 2, 3], [4, 3, 2, 1], -0.9486832980505139),
    ([1, 2, 2, 3], [1, 2, 3, 4], 0.9486832980505139),
    ([1, 2, 3, 4], [2, 2, 3, 3], 0.8944271909999159),
    ([1, 1, 2, 2], [1, 1, 2, 2], 1.0),
    ([1, 1, 2, 2], [2, 2, 1, 1], -1.0),
    ([5, 1, 4, 2, 3], [10, 6, 9, 7, 8], 0.9999999999999999),
    ([1, 2, 3, 4, 5], [1, 2, 3, 5, 4], 0.8999999999999998),
    ([1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], -1.0),
    ([0.5, 0.5, 0.5, 1.0], [1, 2, 3, 4], 0.7745966692414834),
    ([1, 2, 3, 4, 4, 4], [1, 2, 3, 4, 5, 6], 0.9411239481143202),
    ([2, 2, 3, 3, 1, 1], [1, 2, 3, 4, 5, 6], -0.4780914437337575),
    ([1, 4, 2, 8, 5, 7], [2, 3, 1, 9, 4, 6], 0.942857142857143),
    ([10, 20, 30, 40], [40, 10, 30, 20], -0.39999999999999997),
    ([1, 2], [2, 1], -0.9999999999999999),
    ([1, 2], [1, 2], 0.9999999999999999),
    ([3, 1, 2, 5, 4, 7, 6], [1, 3, 2, 4, 6, 5, 7], 0.6785714285714287),
    ([5.5, 5.5, 3, 4, 1.5, 1.5], [6, 5, 3, 4, 1.5, 1.5], 0.985184366143778),
]


class TestSpearman:
    @pytest.mark.parametrize("x,y,expected", SPEARMAN_CASES)
    def test_frozen_reference_values(self, x, y, expected):
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_constant_vector_raises(self):
        with pytest.raises(UndefinedCorrelation):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelation):
            spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


class TestMonotonicity:
    def test_identical_ordering(self, park, park_cfg):
        attr = AttributionVector(np.zeros(3), [1.0, 2.0, 3.0], "probe")
        assert spearman(np.abs(attr.values), [10.0, 20.0, 30.0]) == 1.0

    def test_reversed_ordering(self):
        assert spearman([3.0, 2.0, 1.0], [10.0, 20.0, 30.0]) == -1.0

    def test_park_method_values(self, park, park_point, park_cfg):
        # expected correlations computed from |a| and the quadrature e-vector ranks
        expected = {"saliency": 0.985184366143778,
                    "inpxgrad": 0.823529411764706,
                    "intgrad": 0.5882352941176471}
        e = restriction_loss_vector(park, park_point, park_cfg)
        for method, value in expected.items():
            attr = compute_attribution(method, park, park_point)
            assert monotonicity(attr, e) == pytest.approx(value, abs=1e-9)

    def test_saliency_beats_random(self, park, park_point, park_cfg):
        e = restriction_loss_vector(park, park_point, park_cfg)
        sal = monotonicity(saliency(park, park_point), e)
        rnd = monotonicity(compute_attribution("random", park, park_point, seed=0), e)
        assert sal >= 0.8 and sal > rnd

    def test_constant_model_raises_undefined(self, park_cfg):
        m = constant_model(6)
        attr = AttributionVector(np.zeros(6), [1, 2, 3, 4, 5, 6], "probe")
        with pytest.raises(UndefinedCorrelation):
            monotonicity(attr, restriction_loss_vector(m, attr.point, park_cfg))


class TestNonSensitivityAndComplexity:
    def test_saliency_on_park(self, park, park_point, park_cfg):
        attr = saliency(park, park_point)
        e = restriction_loss_vector(park, park_point, park_cfg)
        assert non_sensitivity(attr, e, park_cfg.zero_tolerance) == 0
        assert complexity(attr) == 4

    def test_random_on_park(self, park, park_point, park_cfg):
        attr = compute_attribution("random", park, park_point, seed=0)
        e = restriction_loss_vector(park, park_point, park_cfg)
        assert non_sensitivity(attr, e, park_cfg.zero_tolerance) == 2
        assert complexity(attr) == 6

    def test_all_zero_attribution_on_constant_model(self, park_cfg):
        m = constant_model(6)
        attr = AttributionVector(np.zeros(6), np.zeros(6), "zeros")
        e = restriction_loss_vector(m, attr.point, park_cfg)
        assert non_sensitivity(attr, e, park_cfg.zero_tolerance) == 0
        assert complexity(attr) == 0


class TestEffectiveComplexity:
    def test_gradient_methods_on_park(self, park, park_point, park_cfg):
        assert effective_complexity_detail(
            saliency(park, park_point), park, 0.01, park_cfg).k == 3
        assert effective_complexity_detail(
            compute_attribution("inpxgrad", park, park_point), park, 0.01, park_cfg).k == 3
        assert effective_complexity_detail(
            compute_attribution("intgrad", park, park_point), park, 0.01, park_cfg).k == 4

    def test_random_majority_six_over_ten_seeds(self, park, park_point, park_cfg):
        values = [effective_complexity_detail(
            compute_attribution("random", park, park_point, seed=s), park, 0.01, park_cfg).k
            for s in range(10)]
        assert sum(1 for v in values if v == 6) > 5

    def test_constant_model_is_one(self, park_cfg):
        m = constant_model(6)
        attr = AttributionVector(np.zeros(6), [1, 2, 3, 4, 5, 6], "probe")
        assert effective_complexity_detail(attr, m, 0.01, park_cfg).k == 1

    def test_non_increasing_in_epsilon(self, park, park_point, park_cfg):
        attr = compute_attribution("intgrad", park, park_point)
        ks = [effective_complexity_detail(attr, park, eps, park_cfg).k
              for eps in (1e-4, 1e-3, 0.01, 0.1, 1.0)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_worst_ordering_caps_at_arity(self, park, park_point):
        # an ordering that ranks the inert features first forces k all the way
        # up; the empty complement at k=arity is exactly lossless, so the
        # result caps at 6 without saturating
        cfg = ExpectationConfig(FeatureDistribution.uniform(6), SQUARED_ERROR,
                                n_mc_samples=500, seed=0)
        attr = AttributionVector(np.asarray(park_point), [1.0, 1.0, 1.0, 1.0, 2.0, 2.0],
                                 "probe")
        detail = effective_complexity_detail(attr, park, 1e-12, cfg)
        assert detail.k == 6
        assert detail.saturated is False
        assert detail.losses[-1] == 0.0

    def test_tie_breaking_prefers_lower_index(self):
        assert importance_order(np.array([1.0, -1.0, 0.5])) == [0, 1, 2]

    def test_epsilon_must_be_positive(self, park, park_point, park_cfg):
        with pytest.raises(ContractViolation):
            effective_complexity_detail(saliency(park, park_point), park, 0.0, park_cfg).k


class TestScaleInvariance:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_metrics_unchanged_under_positive_scaling(self, park, park_point, scale):
        cfg = ExpectationConfig(FeatureDistribution.uniform(6), SQUARED_ERROR,
                                n_mc_samples=500, seed=1)
        base = compute_attribution("inpxgrad", park, park_point)
        scaled = AttributionVector(base.point, base.values * scale, "scaled")
        e = restriction_loss_vector(park, park_point, cfg)
        assert complexity(scaled) == complexity(base)
        assert monotonicity(scaled, e) == pytest.approx(monotonicity(base, e))
        assert non_sensitivity(scaled, e, cfg.zero_tolerance) == \
            non_sensitivity(base, e, cfg.zero_tolerance)
        assert effective_complexity_detail(scaled, park, 0.01, cfg).k == \
            effective_complexity_detail(base, park, 0.01, cfg).k


def _token_setup():
    data, model = bench.token_benchmark(0)
    idx = bench.choose_explained_point(data, model)
    return data, model, data.features[idx]


class TestPerturbationTest:
    def test_full_clamp_returns_one(self):
        data, model, x_star = _token_setup()
        attr = saliency(model, x_star)
        for seed in range(3):
            assert perturbation_test(attr, model, model.arity, data, 200, seed) == 1.0

    def test_constant_class_model_returns_one(self):
        probs = np.array([0.1, 0.9])
        from xmeter.core import ModelHandle

        m = ModelHandle(3, "probs", lambda X: np.tile(probs, (len(X), 1)))
        corpus = TabularDataset(np.random.default_rng(0).uniform(0, 1, (30, 3)))
        attr = AttributionVector(np.zeros(3), [0.5, -0.2, 0.1], "probe")
        assert perturbation_test(attr, m, 1, corpus, 300, seed=4) == 1.0

    def test_scalar_model_rejected(self, park, park_point):
        attr = saliency(park, park_point)
        corpus = TabularDataset(np.random.default_rng(0).uniform(0, 1, (10, 6)))
        with pytest.raises(ContractViolation):
            perturbation_test(attr, park, 2, corpus, 10, seed=0)

    def test_k_bounds_checked(self):
        data, model, x_star = _token_setup()
        attr = saliency(model, x_star)
        with pytest.raises(ContractViolation):
            perturbation_test(attr, model, model.arity + 1, data, 10, seed=0)

    def test_deterministic_per_seed(self):
        data, model, x_star = _token_setup()
        attr = saliency(model, x_star)
        a = perturbation_test(attr, model, 5, data, 300, seed=7)
        b = perturbation_test(attr, model, 5, data, 300, seed=7)
        assert a == b

    @pytest.mark.parametrize("token_seed", [0, 1, 2])
    def test_equals_the_per_column_reference(self, token_seed):
        data, model = bench.token_benchmark(token_seed)
        x_star = data.features[bench.choose_explained_point(data, model)]
        for method in ("saliency", "inpxgrad", "intgrad", "random"):
            attr = compute_attribution(method, model, x_star, seed=token_seed)
            for k in range(1, model.arity + 1):
                for n in (1, 7, 500):
                    assert perturbation_test(attr, model, k, data, n, token_seed) == \
                        reference_perturbation_test(attr, model, k, data, n, token_seed), \
                        (method, k, n)


class TestAttributionReport:
    def test_saliency_bundle(self, park, park_point, park_cfg):
        report = attribution_report([saliency(park, park_point)], park, 0.01, park_cfg)[0]
        assert report["complexity"] == 4
        assert report["non_sensitivity"] == 0
        assert report["effective_complexity"] == 3
        assert report["monotonicity"] >= 0.8
        assert report["e_vector"][4] == 0.0 and report["e_vector"][5] == 0.0

    def test_random_bundle(self, park, park_point, park_cfg):
        attr = compute_attribution("random", park, park_point, seed=0)
        report = attribution_report([attr], park, 0.01, park_cfg)[0]
        assert report["complexity"] == 6
        assert report["non_sensitivity"] == 2

    def test_intgrad_bundle(self, park, park_point, park_cfg):
        attr = compute_attribution("intgrad", park, park_point)
        report = attribution_report([attr], park, 0.01, park_cfg)[0]
        assert report["complexity"] == 4
        assert report["non_sensitivity"] == 0
        assert report["effective_complexity"] == 4

    def test_e_vector_matches_quadrature(self, park, park_point, park_cfg):
        report = attribution_report([saliency(park, park_point)], park, 0.01, park_cfg)[0]
        for i in range(4):
            assert report["e_vector"][i] == pytest.approx(quad_restriction_loss(i), rel=0.1)

    def test_round_trips_to_dict(self, park, park_point, park_cfg):
        report = attribution_report([saliency(park, park_point)], park, 0.01, park_cfg)[0]
        assert set(report) == {
            "method", "complexity", "monotonicity", "non_sensitivity",
            "effective_complexity", "ec_saturated", "epsilon", "e_vector",
            "n_mc_samples", "zero_tolerance", "loss", "seed"}
        assert report["method"] == "saliency"
        assert report["effective_complexity"] == 3

    def test_one_e_vector_serves_every_attribution(self, park, park_point, park_cfg,
                                                    monkeypatch):
        import xmeter.attr_metrics as attr_metrics

        attrs = [compute_attribution(m, park, park_point) for m in ("intgrad", "saliency")]
        attrs.append(random_attribution(park_point, seed=0))
        calls = []
        original = attr_metrics.restriction_loss_vector
        monkeypatch.setattr(attr_metrics, "restriction_loss_vector",
                            lambda *args: calls.append(args) or original(*args))
        entries = attribution_report(attrs, park, 0.01, park_cfg)
        assert len(calls) == 1
        assert [entry["method"] for entry in entries] == [
            "integrated-gradients", "saliency", "random"]
        assert [entry["effective_complexity"] for entry in entries] == [4, 3, 6]
        e = original(park, park_point, park_cfg)
        assert all(entry["e_vector"] == e.tolist() for entry in entries)
        assert attribution_report([], park, 0.01, park_cfg) == []

    def test_attributions_of_different_points_rejected(self, park, park_point, park_cfg):
        other = np.asarray(park_point) + 0.01
        with pytest.raises(ContractViolation):
            attribution_report([saliency(park, park_point), saliency(park, other)],
                               park, 0.01, park_cfg)
