import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmeter import bench, mi
from xmeter.core import ContractViolation, TabularDataset, gradient
from xmeter.mi import estimate_mi
from conftest import park_value


class TestParkFunction:
    def test_value_at_origin(self):
        assert bench.park_batch(np.zeros((1, 6)))[0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_value_at_reference_point(self):
        assert bench.park_batch([bench.PARK_POINT])[0] == \
            pytest.approx(1.4037478044875842, abs=1e-12)

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
                fd[i] = (park_value(xp) - park_value(xm)) / (2 * h)
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
        handle = tree.as_model_handle()
        preds = handle.predict_labels(data.features).tolist()
        assert preds == list(data.labels)

    def test_depth_zero_is_majority_class(self):
        data = TabularDataset([[0.0], [1.0], [2.0]], labels=[1, 1, 0])
        tree = bench.fit_decision_tree(data, max_depth=0)
        assert tree.root.is_leaf
        assert tree.as_model_handle().predict_labels([[5.0]])[0] == 1

    def test_pure_data_is_constant(self):
        data = TabularDataset([[0.0], [1.0], [2.0]], labels=[2, 2, 2])
        tree = bench.fit_decision_tree(data, max_depth=5)
        assert tree.root.is_leaf
        assert tree.as_model_handle().predict_labels([[9.0]])[0] == 2

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


# Reference split searches: the per-cut scalar loops that bench._best_split replaced.

def _reference_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def reference_gini_split(X, y, idx, n_classes):
    parent = _reference_gini(np.bincount(y[idx], minlength=n_classes)) * len(idx)
    best = None
    best_impurity = np.inf
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sorted_vals = vals[order]
        sorted_y = y[idx][order]
        distinct = np.nonzero(np.diff(sorted_vals) > 0)[0]
        if distinct.size == 0:
            continue
        onehot = np.zeros((len(idx), n_classes))
        onehot[np.arange(len(idx)), sorted_y] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        total = prefix[-1]
        for cut in distinct:
            left = prefix[cut]
            right = total - left
            imp = _reference_gini(left) * left.sum() + _reference_gini(right) * right.sum()
            if imp < best_impurity - 1e-12:
                best_impurity = imp
                best = (f, float((sorted_vals[cut] + sorted_vals[cut + 1]) / 2.0))
    if best is None or best_impurity >= parent - 1e-12:
        return None
    return best


def _reference_entropy(counts):
    n = counts.sum()
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def reference_entropy_split(values, labels, n_classes):
    """Normalised information gain; a cut needs gain > 2e-12 and beats the best by 1e-12."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    lab = labels[order]
    cuts = np.nonzero(np.diff(v) > 0)[0]
    if cuts.size == 0:
        return None
    n = len(v)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), lab] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    total = prefix[-1]
    parent = _reference_entropy(total)
    best = None
    best_gain = 1e-12
    for cut in cuts:
        left = prefix[cut]
        right = total - left
        nl = left.sum()
        child = (nl * _reference_entropy(left) + (n - nl) * _reference_entropy(right)) / n
        gain = parent - child
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = float((v[cut] + v[cut + 1]) / 2.0)
    return best


def _reference_split(X, y, n_classes, impurity):
    if impurity == "gini":
        return reference_gini_split(X, y, np.arange(len(y)), n_classes)
    t = reference_entropy_split(X[:, 0], y, n_classes)
    return None if t is None else (0, t)


@st.composite
def _tie_heavy_split_input(draw, max_columns):
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, max_columns))
    n_values = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.integers(0, n_values - 1), min_size=n * d,
                               max_size=n * d)), dtype=float).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    return X, y, n_classes


def _tree_shape(node):
    if node.is_leaf:
        return node.distribution.tolist()
    return (node.feature, node.threshold, _tree_shape(node.left), _tree_shape(node.right))


class TestSplitSweep:
    @settings(max_examples=100, deadline=None)
    @given(_tie_heavy_split_input(max_columns=3))
    def test_gini_matches_reference(self, case):
        X, y, n_classes = case
        assert bench._best_split(X, y, n_classes, "gini") == _reference_split(
            X, y, n_classes, "gini")

    @settings(max_examples=100, deadline=None)
    @given(_tie_heavy_split_input(max_columns=1))
    def test_entropy_matches_reference(self, case):
        X, y, n_classes = case
        assert bench._best_split(X, y, n_classes, "entropy") == _reference_split(
            X, y, n_classes, "entropy")

    def test_entropy_ignores_rounding_noise_at_many_rows(self):
        # every cut leaves both classes in equal shares, so every gain is zero;
        # at 30,010 rows the Gini-style 1e-12 tolerance on weighted sums splits here
        values = np.repeat(np.arange(5.0), 6002)[:, None]
        labels = np.tile([0, 1], 15005)
        assert bench._best_split(values, labels, 2, "entropy") is None
        assert _reference_split(values, labels, 2, "entropy") is None

    def test_gini_ignores_rounding_noise_at_many_rows(self):
        # every value holds the classes in shares 1:2:3, so every gain is zero;
        # at 162,054 rows a 1e-12 tolerance on count-weighted Gini sums splits here
        values = np.repeat(np.arange(3.0), 54018)[:, None]
        labels = np.tile(np.repeat([0, 1, 2], [9003, 18006, 27009]), 3)
        assert bench._best_split(values, labels, 3, "gini") is None

    @pytest.mark.parametrize("spec", ["MI_BENCH_SPEC", "CLUSTER_BENCH_SPEC"])
    def test_fits_match_reference(self, spec, monkeypatch):
        datasets = [bench.synth_tabular(getattr(bench, spec), seed) for seed in range(3)]
        fits = [(_tree_shape(bench.fit_decision_tree(d, 5).root),
                 mi.fit_entropy_discretizer(d, 3).bin_edges) for d in datasets]
        monkeypatch.setattr(bench, "_best_split", _reference_split)
        monkeypatch.setattr(mi, "_best_split", _reference_split)
        for data, fit in zip(datasets, fits):
            assert fit == (_tree_shape(bench.fit_decision_tree(data, 5).root),
                           mi.fit_entropy_discretizer(data, 3).bin_edges)

    def test_fit_memory_is_linear_in_the_largest_label(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(60, 2))
        data = TabularDataset(X, np.where(X[:, 0] + 0.3 * X[:, 1] > 0.6, 3000, 0))
        tracemalloc.start()
        try:
            shape = _tree_shape(bench.fit_decision_tree(data, 3).root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6  # one K x K identity of 3001 classes takes 72 MB
        monkeypatch.setattr(bench, "_best_split", _reference_split)
        assert shape == _tree_shape(bench.fit_decision_tree(data, 3).root)


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
        target = int(model.predict_labels([x])[0])
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
        d2, m2 = bench.token_benchmark.__wrapped__(3)  # a fresh build, not the cached one
        np.testing.assert_array_equal(d1.features, d2.features)
        x = d1.features[5]
        np.testing.assert_array_equal(m1.predict(x), m2.predict(x))
