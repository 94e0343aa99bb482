import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmeter.core import (
    CROSS_ENTROPY,
    ContractViolation,
    FeatureDistribution,
    ModelHandle,
    SQUARED_ERROR,
    TabularDataset,
    UnsupportedOperation,
    ZERO_ONE,
    evaluate_loss_batch,
    gradient,
)
from xmeter.attr_methods import saliency
from xmeter.bench import fit_decision_tree
from xmeter.park import park_model
from xmeter.attr_metrics import _restriction_losses
from xmeter import example_based
from conftest import constant_model, evaluate_loss, linear_model, reference_sample_matrix


class TestTabularDataset:
    def test_basic_shape(self):
        ds = TabularDataset([[1.0, 2.0], [3.0, 4.0]], labels=[0, 1])
        assert ds.n_samples == 2 and ds.n_features == 2 and ds.n_classes == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolation):
            TabularDataset([[1.0, np.nan]])

    def test_rejects_negative_labels(self):
        with pytest.raises(ContractViolation):
            TabularDataset([[1.0], [2.0]], labels=[-1, 0])

    def test_rejects_bad_names(self):
        with pytest.raises(ContractViolation):
            TabularDataset([[1.0, 2.0]], feature_names=("only-one",))

    def test_features_immutable(self):
        ds = TabularDataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_filter_class(self, monkeypatch):
        # the example table builds each class's distance matrix from that
        # class's rows; a label without rows is an error
        ds = TabularDataset([[0.0], [1.0], [2.0]], labels=[0, 1, 0])
        model = ModelHandle(1, "label", lambda X: np.zeros(len(X), dtype=int))
        rows_seen = []
        build = example_based.pairwise_distances

        def recording(X, out=None):
            rows_seen.append(list(X[:, 0]))
            return build(X, out=out)

        monkeypatch.setattr(example_based, "pairwise_distances", recording)
        example_based.metrics_vs_n(ds, model, ["kmedoids"], [1])
        assert rows_seen == [[0.0, 2.0], [1.0]]
        gap = TabularDataset([[0.0], [1.0]], labels=[0, 2])
        with pytest.raises(ContractViolation, match="no samples with label 1"):
            example_based.metrics_vs_n(gap, model, ["kmedoids"], [1])


class TestLosses:
    def test_zero_one_identical(self):
        assert evaluate_loss(ZERO_ONE, 3, 3) == 0.0

    def test_zero_one_different(self):
        assert evaluate_loss(ZERO_ONE, 3, 7) == 1.0

    def test_squared_error(self):
        assert evaluate_loss(SQUARED_ERROR, 1.5, 2.5) == pytest.approx(1.0)

    def test_cross_entropy_self_is_entropy(self):
        p = np.array([0.25, 0.75])
        expected = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
        assert evaluate_loss(CROSS_ENTROPY, p, p) == pytest.approx(expected)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            evaluate_loss(SQUARED_ERROR, 1.0, np.array([0.5, 0.5]))
        with pytest.raises(ContractViolation):
            evaluate_loss(CROSS_ENTROPY, 1.0, 2.0)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_squared_error_nonnegative_and_symmetric(self, a, b):
        assert evaluate_loss(SQUARED_ERROR, a, b) >= 0.0
        assert evaluate_loss(SQUARED_ERROR, a, b) == evaluate_loss(SQUARED_ERROR, b, a)
        assert evaluate_loss(SQUARED_ERROR, a, a) == 0.0

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_zero_one_is_indicator(self, a, b):
        loss = evaluate_loss(ZERO_ONE, a, b)
        assert loss in (0.0, 1.0)
        assert loss == evaluate_loss(ZERO_ONE, b, a)
        assert evaluate_loss(ZERO_ONE, a, a) == 0.0

    @settings(max_examples=25)
    @given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
           st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6))
    def test_cross_entropy_nonnegative(self, p_raw, q_raw):
        size = min(len(p_raw), len(q_raw))
        p = np.array(p_raw[:size]) / sum(p_raw[:size])
        q = np.array(q_raw[:size]) / sum(q_raw[:size])
        assert evaluate_loss(CROSS_ENTROPY, p, q) >= 0.0

    @pytest.mark.parametrize("y_ref,batch", [
        (1, np.array([[0.2, 0.8], [0.9, 0.1]])),
        (np.array([0.2, 0.8]), np.array([1, 0])),
    ], ids=["probability-rows", "probability-reference"])
    def test_zero_one_takes_labels_only(self, y_ref, batch):
        with pytest.raises(ContractViolation, match="zero-one loss takes class labels"):
            evaluate_loss_batch(ZERO_ONE, y_ref, batch)
        assert evaluate_loss_batch(ZERO_ONE, 1, np.array([1, 0, 1])).tolist() == [0.0, 1.0, 0.0]

    def test_batch_matches_pointwise(self):
        batch = np.array([1.0, 2.0, 4.0])
        expected = [evaluate_loss(SQUARED_ERROR, 2.0, v) for v in batch]
        assert evaluate_loss_batch(SQUARED_ERROR, 2.0, batch) == pytest.approx(expected)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("y_ref,batch", [
        (1.7e308, np.array([0.5, -0.5])),
        (np.array([1e308, 0.0]), np.array([[-1e308, 0.0], [0.0, 0.0]])),
        (np.array([1e155, 1e155]), np.array([[-1e155, -1e155]])),
    ], ids=["scalar", "vector-difference", "vector-sum"])
    def test_squared_error_overflow_is_numeric_failure(self, y_ref, batch):
        with pytest.raises(FloatingPointError, match="the squared-error loss overflowed"):
            evaluate_loss_batch(SQUARED_ERROR, y_ref, batch)

class TestModelHandle:
    def test_probs_must_sum_to_one(self):
        bad = ModelHandle(2, "probs", lambda X: np.tile([0.5, 0.2], (len(X), 1)), name="bad")
        with pytest.raises(ContractViolation):
            bad.predict([0.0, 0.0])

    def test_probability_rows_without_classes_rejected(self):
        m = ModelHandle(1, "probs", lambda X: np.empty((len(X), 0)), name="empty")
        with pytest.raises(ContractViolation, match=r"returned shape \(2, 0\) for 2 rows"):
            m.predict_batch(np.zeros((2, 1)))
        assert m.predict_batch(np.zeros((0, 1))).shape == (0, 0)

    def test_argmax_tie_takes_lowest_index(self):
        tie = ModelHandle(1, "probs", lambda X: np.full((len(X), 2), 0.5))
        assert tie.predict_labels([[0.0]])[0] == 0

    def test_wrong_arity_rejected(self):
        m = linear_model([1.0, 2.0])
        with pytest.raises(ContractViolation):
            m.predict([1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("labels,message", [
        ([0, 1, 2, -1], "negative class index at row 3: -1"),
        ([0.0, 1.7], "a class index that is not an integer int64 can hold at row 1: 1.7"),
        ([1e20, 0.0], "a class index that is not an integer int64 can hold at row 0: 1e+20"),
        (np.array([3, 2 ** 63], dtype=np.uint64), "int64 can hold at row 1: 9223372036854775808"),
    ], ids=["negative", "fraction", "beyond-int64", "unsigned-beyond-int64"])
    def test_label_outside_int64_class_indices_rejected(self, labels, message):
        m = ModelHandle(1, "label", lambda X: np.asarray(labels)[:len(X)], name="bad")
        with pytest.raises(ContractViolation, match="model 'bad' returned a "):
            m.predict_labels(np.zeros((len(labels), 1)))
        with pytest.raises(ContractViolation, match=re.escape(message)):
            m.predict_batch(np.zeros((len(labels), 1)))

    @pytest.mark.parametrize("labels", [[0, 3, 2 ** 63 - 1], [0.0, 3.0, 2.0 ** 62], [True, False],
                                        np.array([3, 2 ** 63 - 1], dtype=np.uint64)],
                             ids=["int64", "whole-floats", "bools", "unsigned"])
    def test_label_that_int64_holds_is_its_class(self, labels):
        m = ModelHandle(1, "label", lambda X: np.asarray(labels))
        got = m.predict_labels(np.zeros((len(labels), 1)))
        assert got.dtype == np.int64 and got.tolist() == [int(v) for v in labels]

    @pytest.mark.parametrize("kwargs,field", [
        (dict(output_kind="prob"), "output_kind"),
        (dict(gradient_capability="fd"), "gradient_capability"),
        (dict(gradient_capability="exact"), "gradient_fn"),
    ], ids=["output-kind", "capability", "exact-without-gradient"])
    def test_declaration_it_cannot_honour_is_refused(self, kwargs, field):
        declared = dict(arity=2, output_kind="scalar", predict_fn=lambda X: X[:, 0]) | kwargs
        with pytest.raises(ContractViolation, match=field):
            ModelHandle(**declared)

    @pytest.mark.parametrize("kind,bad", [("scalar", np.nan), ("scalar", np.inf),
                                          ("probs", [np.nan, 1.0]), ("label", np.nan)],
                             ids=["scalar-nan", "scalar-inf", "probs-nan", "label-nan"])
    def test_non_finite_output_rejected(self, kind, bad):
        m = ModelHandle(2, kind, lambda X: np.array([bad] * len(X)), name="bad")
        with pytest.raises(FloatingPointError):
            m.predict([0.0, 0.0])
        with pytest.raises(FloatingPointError):
            m.predict_batch(np.zeros((3, 2)))


class TestRestrictModel:
    """Restriction clamps every coordinate outside a set at the anchor and
    resamples the set; the metrics do it by tiling in ``_restriction_losses``."""

    def test_inert_coordinate_is_flat(self, park, park_point):
        # the test function has no dependence on coordinates 4 and 5
        rng = np.random.default_rng(0)
        y_ref = park.predict(park_point)
        losses = _restriction_losses(park, park_point, y_ref, [4, 5],
                                     FeatureDistribution.uniform(6), SQUARED_ERROR, 200, rng)
        assert np.mean(losses) == 0.0

    def test_constant_model_restriction(self):
        m = constant_model(3, value=7.0)
        rng = np.random.default_rng(0)
        losses = _restriction_losses(m, np.array([0.1, 0.2, 0.3]), 7.0, [1, 2],
                                     FeatureDistribution.uniform(3), SQUARED_ERROR, 200, rng)
        assert np.mean(losses) == 0.0


def _gradient_handles() -> dict:
    """Exact and finite-difference handles for the many-rows gradient property."""
    park = park_model()
    w = np.random.default_rng(3).normal(size=64)
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, (120, 3))
    tree = fit_decision_tree(TabularDataset(X, (X.sum(axis=1) * 3).astype(int) % 3), 4)
    fd = dict(gradient_capability="finite-difference")
    return {
        "park": park,
        "park-fd": ModelHandle(6, "scalar", park.predict_fn, **fd),
        "linear": linear_model(w[:5]),
        "linear-fd-wide": ModelHandle(64, "scalar", lambda X: X @ w, **fd),
        "tree-fd": ModelHandle(3, "probs", tree.predict_proba_batch, **fd),
    }


GRADIENT_HANDLES = _gradient_handles()


class TestGradient:
    def test_exact_park_gradient(self, park, park_point):
        g = gradient(park, park_point)
        assert g == pytest.approx(
            [1.3696221404292586, 1.3696221404292586, 0.161217440096718,
             -0.5311861979208834, 0.0, 0.0], abs=1e-12)

    def test_constant_model_gradient_is_zero(self):
        assert gradient(constant_model(4), [0.1] * 4) == pytest.approx([0.0] * 4)

    def test_linear_model_gradient_is_weights(self):
        w = [2.0, -1.0, 0.5]
        rng = np.random.default_rng(0)
        m = linear_model(w)
        for _ in range(5):
            assert gradient(m, rng.uniform(-1, 1, 3)) == pytest.approx(w)

    def test_finite_difference_matches_exact(self, park):
        fd_park = ModelHandle(6, "scalar", park.predict_fn,
                              gradient_capability="finite-difference", name="park-fd")
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(0.05, 0.95, size=6)
            exact = gradient(park, x)
            approx = gradient(fd_park, x)
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(approx - exact)) / scale < 1e-5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x,coordinate", [
        ([1.7976931348623157e308, 0.5, 0.0], 0), ([0.5, 0.0, -1.7976931348623157e308], 2),
    ], ids=["positive", "negative"])
    def test_finite_difference_step_beyond_the_range_is_numeric_failure(self, x, coordinate):
        calls = []
        model = ModelHandle(3, "scalar", lambda X: calls.append(len(X)) or X[:, 0],
                            gradient_capability="finite-difference")
        with pytest.raises(FloatingPointError,
                           match=f"finite-difference step at coordinate {coordinate} "):
            gradient(model, x)
        assert calls == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_difference_quotient_overflow_is_numeric_failure(self):
        # the outputs at x0 = +-h lie 2e308 apart, beyond the double range
        model = ModelHandle(1, "scalar", lambda X: 1e308 * np.tanh(1e6 * X[:, 0]),
                            gradient_capability="finite-difference", name="steep")
        with pytest.raises(FloatingPointError, match="model 'steep' has a non-finite gradient"):
            saliency(model, [0.0])

    @pytest.mark.parametrize("g,error", [([1.0, 2.0], ContractViolation),
                                         ([1.0, np.inf, 0.0], FloatingPointError)],
                             ids=["two-entries", "infinite"])
    def test_exact_gradient_must_be_arity_finite_floats(self, g, error):
        model = ModelHandle(3, "scalar", lambda X: X[:, 0], gradient_fn=lambda X, t: [g],
                            gradient_capability="exact")
        with pytest.raises(error):
            gradient(model, [0.0, 0.0, 0.0])

    def test_probs_target_defaults_to_the_label_of_the_point(self):
        # rows [0.5, 0.5] tie: the label rule takes class 0, whose gradient is -1
        model = ModelHandle(1, "probs", lambda X: np.stack([0.5 - X[:, 0], 0.5 + X[:, 0]], axis=1),
                            gradient_capability="finite-difference")
        assert gradient(model, [0.0]) == pytest.approx([-1.0])
        assert gradient(model, [0.0], target=1) == pytest.approx([1.0])

    def test_finite_difference_is_one_batch(self, park, park_point):
        calls = []

        def predict(X):
            calls.append(X.copy())
            return park.predict_fn(X)

        fd_park = ModelHandle(6, "scalar", predict,
                              gradient_capability="finite-difference", name="park-fd")
        g = gradient(fd_park, park_point)
        assert [len(X) for X in calls] == [12]
        # rows come in the order x + h0 e0, x - h0 e0, x + h1 e1, ...
        expected = []
        for i in range(6):
            for sign in (1.0, -1.0):
                row = park_point.copy()
                row[i] += sign * 1e-5 * max(1.0, abs(park_point[i]))
                expected.append(row)
        np.testing.assert_array_equal(calls[0], expected)
        assert g == pytest.approx(gradient(park, park_point), abs=1e-8)

    def test_no_capability_raises(self):
        m = ModelHandle(2, "scalar", lambda X: np.zeros(len(X)), gradient_capability="none")
        with pytest.raises(UnsupportedOperation):
            gradient(m, [0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(GRADIENT_HANDLES)), st.integers(1, 40),
           st.integers(0, 2 ** 32 - 1))
    def test_gradients_of_many_rows_are_the_gradients_of_each_row(self, name, n, seed):
        # bit for bit, for exact and finite-difference handles
        model = GRADIENT_HANDLES[name]
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (n, model.arity)) * rng.choice([1.0, 1e-3, 50.0], (n, 1))
        if name.startswith("park"):
            X = np.clip(X, 0.01, 0.9)  # its domain, with the steps, is [0, 1)^6
        target = int(rng.integers(3)) if model.output_kind == "probs" else None
        G = gradient(model, X, target)
        rows = np.array([gradient(model, x, target) for x in X])
        assert G.shape == X.shape
        assert G.tobytes() == rows.tobytes()

    def test_finite_differences_of_many_rows_are_one_batch_per_row(self, park, park_point):
        calls = []
        fd_park = ModelHandle(6, "scalar", lambda X: calls.append(len(X)) or park.predict_fn(X),
                              gradient_capability="finite-difference")
        gradient(fd_park, np.tile(park_point, (64, 1)))
        assert calls == [2 * 6] * 64

    def test_rows_of_a_probs_model_need_a_target(self):
        model = GRADIENT_HANDLES["tree-fd"]
        with pytest.raises(ContractViolation, match="need a target"):
            gradient(model, np.zeros((2, model.arity)))

    def test_finite_difference_step_names_its_row(self):
        calls = []
        model = ModelHandle(2, "scalar", lambda X: calls.append(len(X)) or X[:, 0],
                            gradient_capability="finite-difference")
        with pytest.raises(FloatingPointError, match="coordinate 1 of row 2 overflows"):
            gradient(model, [[0.0, 0.0], [1.0, 1.0], [0.5, -1.7976931348623157e308]])
        assert calls == []


class TestFeatureDistribution:
    def test_deterministic_per_seed(self):
        dist = FeatureDistribution.uniform(3, 0.0, 2.0)
        a = dist.sample_matrix([1], 50, np.random.default_rng(42))
        b = dist.sample_matrix([1], 50, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_uniform_support(self):
        dist = FeatureDistribution.uniform(1, -1.0, 1.0)
        x = dist.sample_matrix([0], 1000, np.random.default_rng(0))
        assert x.min() >= -1.0 and x.max() < 1.0

    def test_empirical_draws_recorded_values(self):
        data = TabularDataset([[1.0], [2.0], [5.0]])
        dist = FeatureDistribution.empirical(data)
        x = dist.sample_matrix([0], 200, np.random.default_rng(1))
        assert set(np.unique(x)) <= {1.0, 2.0, 5.0}

    def test_sample_matrix_shape(self):
        dist = FeatureDistribution.uniform(4)
        block = dist.sample_matrix([1, 3], 7, np.random.default_rng(0))
        assert block.shape == (7, 2)

    @pytest.mark.parametrize("kind", ["uniform", "empirical"])
    def test_equals_the_per_column_reference(self, kind):
        data = np.random.default_rng(3).normal(size=(40, 5))
        if kind == "uniform":
            dist, columns = FeatureDistribution.uniform(5, -2.0, 3.0), [(-2.0, 3.0)] * 5
        else:
            dist, columns = FeatureDistribution.empirical(data), list(data.T)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(5).tolist()
            for k in range(1, 6):
                for n in (1, 7, 500):
                    got = dist.sample_matrix(order[:k], n, np.random.default_rng([seed, k]))
                    want = reference_sample_matrix(columns, order[:k], n,
                                                   np.random.default_rng([seed, k]))
                    assert np.array_equal(got, want), (seed, k, n)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ContractViolation):
            FeatureDistribution.uniform(2, 1.0, 1.0)
        with pytest.raises(ContractViolation):
            FeatureDistribution.empirical(np.zeros(3))
