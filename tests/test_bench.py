import numpy as np
import pytest

from xmeter import bench
from xmeter.core import ContractViolation, TabularDataset, gradient
from xmeter.mi import estimate_mi


class TestParkFunction:
    def test_value_at_origin(self):
        assert bench.park_value(np.zeros(6)) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_value_at_reference_point(self):
        assert bench.park_value(bench.PARK_POINT) == pytest.approx(1.4037478044875842, abs=1e-12)

    def test_against_string_parsed_expression(self):
        # independent implementation: parse the formula text and lambdify it
        sympy = pytest.importorskip("sympy")
        expr = sympy.sympify("2*exp(x0 + x1)/3 - x3*sin(x2) + x2")
        syms = sympy.symbols("x0 x1 x2 x3 x4 x5")
        f = sympy.lambdify(syms, expr, "numpy")
        rng = np.random.default_rng(101)
        X = rng.uniform(0, 1, size=(1000, 6))
        reference = f(*(X[:, i] for i in range(6)))
        np.testing.assert_allclose(bench.park_batch(X), reference, atol=1e-12, rtol=0)

    def test_gradient_matches_finite_differences(self, park):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x = rng.uniform(0.01, 0.99, size=6)
            exact = bench.park_gradient(x)
            fd = np.empty(6)
            for i in range(6):
                h = 1e-6
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (bench.park_value(xp) - bench.park_value(xm)) / (2 * h)
            assert np.max(np.abs(exact - fd)) < 1e-6

    def test_inert_coordinates(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform(0, 1, size=6)
            g = bench.park_gradient(x)
            assert g[4] == 0.0 and g[5] == 0.0

    def test_domain_warning_outside_unit_box(self, park):
        with pytest.warns(bench.DomainWarning):
            y = park.predict([1.5, 0, 0, 0, 0, 0])
        assert np.isfinite(y)


def _hand_split_dataset():
    # 1-D, two classes separated midway between 0.45 and 0.55
    x = np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95])
    y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    return TabularDataset(x.reshape(-1, 1), y)


class TestDecisionTree:
    def test_separable_single_split(self):
        data = _hand_split_dataset()
        tree = bench.fit_decision_tree(data, max_depth=1)
        assert tree.root.feature == 0
        assert tree.root.threshold == pytest.approx(0.5)
        preds = [tree.predict_label(x) for x in data.features]
        assert preds == list(data.labels)

    def test_depth_zero_is_majority_class(self):
        data = TabularDataset([[0.0], [1.0], [2.0]], labels=[1, 1, 0])
        tree = bench.fit_decision_tree(data, max_depth=0)
        assert tree.root.is_leaf
        assert tree.predict_label([5.0]) == 1

    def test_pure_data_is_constant(self):
        data = TabularDataset([[0.0], [1.0], [2.0]], labels=[2, 2, 2])
        tree = bench.fit_decision_tree(data, max_depth=5)
        assert tree.root.is_leaf
        assert tree.predict_label([9.0]) == 2

    def test_leaf_distributions_sum_to_one(self):
        data = bench.synth_tabular(
            bench.SynthSpec(n_samples=120, n_features=3, n_classes=3, separation=2.0), seed=3)
        tree = bench.fit_decision_tree(data, max_depth=4)
        for x in data.features[:20]:
            assert tree.predict_proba(x).sum() == pytest.approx(1.0)

    def test_depth_bound_respected(self):
        data = bench.synth_tabular(
            bench.SynthSpec(n_samples=200, n_features=4, n_classes=3, separation=1.0), seed=1)
        tree = bench.fit_decision_tree(data, max_depth=3)
        assert tree.depth() <= 3

    def test_invariant_to_sample_order(self):
        data = bench.synth_tabular(
            bench.SynthSpec(n_samples=150, n_features=3, n_classes=3, separation=2.0), seed=5)
        perm = np.random.default_rng(0).permutation(data.n_samples)
        shuffled = TabularDataset(data.features[perm], data.labels[perm])
        t1 = bench.fit_decision_tree(data, max_depth=5)
        t2 = bench.fit_decision_tree(shuffled, max_depth=5)
        grid = np.random.default_rng(1).uniform(-6, 6, size=(200, 3))
        np.testing.assert_array_equal(t1.predict_proba_batch(grid),
                                      t2.predict_proba_batch(grid))

    def test_unlabeled_data_rejected(self):
        with pytest.raises(ContractViolation):
            bench.fit_decision_tree(TabularDataset([[1.0], [2.0]]), max_depth=2)


class TestSynthTabular:
    def test_bit_reproducible(self):
        spec = bench.SynthSpec(n_samples=100, n_features=4, n_classes=2,
                               separation=3.0, n_noise_features=1)
        a = bench.synth_tabular(spec, seed=7)
        b = bench.synth_tabular(spec, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_separated_clusters_are_learnable(self):
        spec = bench.SynthSpec(n_samples=1000, n_features=5, n_classes=3,
                               separation=10.0, n_noise_features=1)
        data = bench.synth_tabular(spec, seed=0)
        tree = bench.fit_decision_tree(data, max_depth=5)
        preds = np.argmax(tree.predict_proba_batch(data.features), axis=1)
        assert np.mean(preds == data.labels) >= 0.95

    def test_noise_feature_carries_no_label_information(self):
        spec = bench.SynthSpec(n_samples=5000, n_features=3, n_classes=2,
                               separation=4.0, n_noise_features=1)
        data = bench.synth_tabular(spec, seed=2)
        noise = data.features[:, -1]
        est = estimate_mi(noise, data.labels, k=3, seed=0,
                          a_discrete=False, b_discrete=True)
        assert abs(est.raw_value) <= 0.02

    def test_quantization_creates_repeats(self):
        data = bench.synth_tabular(bench.CLUSTER_BENCH_SPEC, seed=0)
        n_unique = len(np.unique(data.features, axis=0))
        assert n_unique < data.n_samples

    def test_invalid_spec_rejected(self):
        with pytest.raises(ContractViolation):
            bench.SynthSpec(n_samples=10, n_features=2, n_classes=2,
                            separation=1.0, n_noise_features=2)


class TestTokenBenchmark:
    def test_holdout_accuracy_gate(self):
        data, model = bench.token_benchmark(0)
        rows = bench.token_holdout_slice(data)
        preds = model.predict_labels(data.features[rows])
        assert np.mean(preds == data.labels[rows]) >= 0.9

    def test_counts_are_integer_valued(self):
        data, _ = bench.token_benchmark(0)
        assert np.array_equal(data.features, np.round(data.features))
        assert data.features.min() >= 0

    def test_gradient_matches_finite_differences(self):
        data, model = bench.token_benchmark(0)
        x = data.features[0]
        target = model.predict_label(x)
        exact = gradient(model, x, target=target)
        fd = np.empty(model.arity)
        for i in range(model.arity):
            h = 1e-5 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (model.predict(xp)[target] - model.predict(xm)[target]) / (2 * h)
        assert np.max(np.abs(exact - fd)) < 1e-5

    def test_reproducible(self):
        d1, m1 = bench.token_benchmark(3)
        d2, m2 = bench.token_benchmark(3)
        np.testing.assert_array_equal(d1.features, d2.features)
        x = d1.features[5]
        np.testing.assert_array_equal(m1.predict(x), m2.predict(x))
