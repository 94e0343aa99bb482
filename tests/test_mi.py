import itertools

import numpy as np
import pytest

from xmeter import bench
from xmeter.core import ContractViolation, TabularDataset
from xmeter.mi import (
    apply_extractor,
    draw_random_ood_extractor,
    estimate_mi,
    extractor_report,
    fit_entropy_discretizer,
    identity_extractor,
    random_ood_extractor,
)


def entropy_of(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def brute_force_best_split(values, labels):
    """Exhaustive information-gain search over midpoints of distinct values."""
    vs = np.unique(values)
    best = None
    best_gain = 0.0
    for lo, hi in zip(vs, vs[1:]):
        t = (lo + hi) / 2.0
        left = labels[values <= t]
        right = labels[values > t]
        child = (len(left) * entropy_of(left) + len(right) * entropy_of(right)) / len(labels)
        gain = entropy_of(labels) - child
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = t
    return best, best_gain


class TestEntropyDiscretizer:
    def test_perfect_split_found(self):
        x = np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95])
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        data = TabularDataset(x.reshape(-1, 1), y)
        expected, gain = brute_force_best_split(x, y)
        assert expected == pytest.approx(0.5) and gain > 0
        g = fit_entropy_discretizer(data, max_depth=1)
        assert g.bin_edges == ((0.5,),)

    def test_constant_feature_has_no_edges(self):
        data = TabularDataset(np.ones((10, 1)), labels=[0, 1] * 5)
        g = fit_entropy_discretizer(data, max_depth=2)
        assert g.bin_edges == ((),)

    def test_uninformative_feature_has_no_edges(self):
        # every candidate split leaves identical label mixes on both sides
        x = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        y = np.array([0, 1, 0, 1, 0, 1])
        data = TabularDataset(x.reshape(-1, 1), y)
        for lo, hi in zip(np.unique(x), np.unique(x)[1:]):
            t = (lo + hi) / 2.0
            child = (np.sum(x <= t) * entropy_of(y[x <= t])
                     + np.sum(x > t) * entropy_of(y[x > t])) / len(y)
            assert abs(entropy_of(y) - child) <= 1e-12
        g = fit_entropy_discretizer(data, max_depth=3)
        assert g.bin_edges == ((),)

    def test_depth_two_recovers_nested_structure(self):
        x = np.concatenate([np.linspace(0, 0.24, 8), np.linspace(0.26, 0.5, 8),
                            np.linspace(0.52, 1.0, 8)])
        y = np.array([0] * 8 + [1] * 8 + [2] * 8)
        data = TabularDataset(x.reshape(-1, 1), y)
        g = fit_entropy_discretizer(data, max_depth=2)
        assert len(g.bin_edges[0]) == 2
        assert g.bin_edges[0][0] < g.bin_edges[0][1]

    def test_binning_is_idempotent_at_depth_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(60, 3))
        y = (x[:, 0] > 0.5).astype(int)
        data = TabularDataset(x, y)
        g = fit_entropy_discretizer(data, max_depth=1)
        once = apply_extractor(g, data)
        twice = apply_extractor(g, once)
        np.testing.assert_array_equal(once.features, twice.features)


class TestApplyExtractor:
    def test_identity_returns_equal_dataset(self):
        data = TabularDataset(np.arange(12.0).reshape(4, 3))
        out = apply_extractor(identity_extractor(), data)
        np.testing.assert_array_equal(out.features, data.features)

    def test_random_ood_replaces_exactly_the_configured_indices(self):
        data = TabularDataset([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        g = random_ood_extractor([0, 2, 4], value=-10.0)
        out = apply_extractor(g, data)
        assert list(out.features[0]) == [-10.0, 2.0, -10.0, 4.0, -10.0, 6.0]

    def test_discretizer_threshold_semantics(self):
        from xmeter.mi import FeatureExtractor

        g = FeatureExtractor("entropy-discretizer", bin_edges=((0.5,),))
        data = TabularDataset([[0.3], [0.7], [0.5]])
        out = apply_extractor(g, data)
        assert list(out.features[:, 0]) == [0.0, 1.0, 0.0]  # value <= edge -> lower bin

    def test_arity_mismatch_rejected(self):
        data = TabularDataset([[1.0, 2.0]])
        with pytest.raises(ContractViolation):
            apply_extractor(random_ood_extractor([5]), data)

    def test_draw_random_ood_is_seeded(self):
        a = draw_random_ood_extractor(10, 3, seed=4)
        b = draw_random_ood_extractor(10, 3, seed=4)
        assert a.replaced_indices == b.replaced_indices
        assert len(a.replaced_indices) == 3


class TestEstimateMI:
    def test_gaussian_calibration(self):
        rng = np.random.default_rng(18)
        rho = 0.8
        xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=3000)
        est = estimate_mi(xy[:, 0], xy[:, 1], k=3, seed=1)
        assert est.estimator == "ksg-continuous"
        assert est.value == pytest.approx(-0.5 * np.log(1 - rho ** 2), abs=0.05)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal(5000)
        y = rng.standard_normal(5000)
        est = estimate_mi(x, y, k=3, seed=1)
        assert abs(est.raw_value) <= 0.02

    def test_identity_of_discrete_variable_is_entropy(self):
        rng = np.random.default_rng(20)
        x = rng.integers(0, 4, size=500)
        est = estimate_mi(x, x.copy(), k=3, seed=0)
        assert est.estimator == "plugin-discrete"
        assert est.value == pytest.approx(entropy_of(x), abs=1e-12)

    def test_plugin_equals_entropy_decomposition(self):
        rng = np.random.default_rng(21)
        x = rng.integers(0, 3, size=400)
        y = (x + rng.integers(0, 2, size=400)) % 3
        est = estimate_mi(x, y, k=3, seed=0)
        joint = [f"{a}|{b}" for a, b in zip(x, y)]
        expected = entropy_of(x) + entropy_of(y) - entropy_of(np.array(joint))
        assert est.raw_value == pytest.approx(expected, abs=1e-12)

    def test_mixed_estimator_calibration(self):
        # X | Y=y ~ N(2y, 1) with balanced classes; MI from 1-D quadrature
        rng = np.random.default_rng(22)
        y = rng.integers(0, 2, size=4000)
        x = rng.standard_normal(4000) + 2.0 * y
        est = estimate_mi(x, y, k=3, seed=1, a_discrete=False, b_discrete=True)
        assert est.estimator == "mixed-discrete"
        assert est.value == pytest.approx(0.33683082034683154, abs=0.05)

    def test_mixed_estimator_deterministic_relation(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(4000)
        y = (x > 0).astype(int)
        est = estimate_mi(x, y, k=3, seed=1, a_discrete=False, b_discrete=True)
        assert est.value == pytest.approx(np.log(2), abs=0.05)

    def test_plugin_symmetry_exact(self):
        rng = np.random.default_rng(24)
        x = rng.integers(0, 3, size=200)
        y = rng.integers(0, 2, size=200)
        ab = estimate_mi(x, y, seed=5).raw_value
        ba = estimate_mi(y, x, seed=5).raw_value
        assert ab == pytest.approx(ba, abs=1e-9)

    def test_ksg_symmetry_within_tolerance(self):
        rng = np.random.default_rng(25)
        xy = rng.multivariate_normal([0, 0], [[1, 0.7], [0.7, 1]], size=1500)
        ab = estimate_mi(xy[:, 0], xy[:, 1], k=3, seed=5).raw_value
        ba = estimate_mi(xy[:, 1], xy[:, 0], k=3, seed=5).raw_value
        assert ab == pytest.approx(ba, abs=0.02)

    def test_sample_count_contracts(self):
        x = np.zeros(10)
        with pytest.raises(ContractViolation):
            estimate_mi(x, x, k=3, seed=0)
        x = np.arange(30.0)
        with pytest.raises(ContractViolation):
            estimate_mi(x, np.arange(29.0), k=3, seed=0)
        with pytest.raises(ContractViolation):
            estimate_mi(x, x, k=30, seed=0)

    def test_value_clamped_raw_preserved(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal(500)
        y = rng.standard_normal(500)
        est = estimate_mi(x, y, k=3, seed=2)
        assert est.value >= 0.0
        assert est.value == max(est.raw_value, 0.0)


def _mi_bench_setup(seed=0):
    data = bench.synth_tabular(bench.MI_BENCH_SPEC, seed=seed)
    model = bench.fit_decision_tree(data, max_depth=5).as_model_handle()
    return data, model.predict_labels(data.features)


class TestExtractorReport:
    def test_identity_feature_mi_is_maximal(self):
        data, y = _mi_bench_setup()
        reports = {
            "identity": extractor_report(data, identity_extractor(), y, seed=0),
            "random-ood": extractor_report(
                data, draw_random_ood_extractor(data.n_features, 3, seed=0), y, seed=0),
            "entropy": extractor_report(
                data, fit_entropy_discretizer(data, max_depth=3), y, seed=0),
        }
        feature_mis = {k: feature.value for k, (feature, _) in reports.items()}
        assert feature_mis["identity"] == max(feature_mis.values())
        assert feature_mis["entropy"] < feature_mis["identity"]

    def test_data_processing_inequality(self):
        data, y = _mi_bench_setup()
        baseline = estimate_mi(data.features, y, k=3, seed=0,
                               a_discrete=False, b_discrete=True).value
        for g in (identity_extractor(),
                  draw_random_ood_extractor(data.n_features, 3, seed=1),
                  fit_entropy_discretizer(data, max_depth=3)):
            _, target = extractor_report(data, g, y, seed=0)
            assert target.value <= baseline + 0.05

    def test_constant_extractor_carries_no_information(self):
        data, y = _mi_bench_setup()
        g = random_ood_extractor(range(data.n_features), value=-10.0)
        feature, target = extractor_report(data, g, y, seed=0)
        assert feature.value == pytest.approx(0.0, abs=0.05)
        assert target.value == pytest.approx(0.0, abs=0.05)

    def test_labels_used_when_no_model(self):
        data, _ = _mi_bench_setup()
        _, target = extractor_report(data, identity_extractor(), seed=0)
        from_labels = estimate_mi(data.features, data.labels, k=3, seed=0,
                                  a_discrete=False, b_discrete=True)
        assert target == from_labels
        assert target.value > 0.5
