import numpy as np
import pytest

from xmeter.attr_methods import (
    compute_attribution,
    input_x_gradient,
    integrated_gradients,
    random_attribution,
    saliency,
)
from xmeter.core import ContractViolation, ModelHandle, UnsupportedOperation
from conftest import constant_model, linear_model

# hand-differentiated gradient of the test function at the reference point
PARK_GRAD = np.array([1.3696221404292586, 1.3696221404292586, 0.161217440096718,
                      -0.5311861979208834, 0.0, 0.0])


class TestSaliency:
    def test_park_reference_values(self, park, park_point):
        attr = saliency(park, park_point)
        assert attr.values == pytest.approx(PARK_GRAD, abs=1e-12)
        assert attr.prediction == pytest.approx(1.4037478044875842)

    def test_linear_model_gives_weights(self):
        w = [1.0, -2.0, 3.0]
        attr = saliency(linear_model(w), [0.5, 0.5, 0.5])
        assert attr.values == pytest.approx(w)

    def test_constant_model_gives_zeros(self):
        attr = saliency(constant_model(4), [0.1] * 4)
        assert attr.values == pytest.approx([0.0] * 4)

    def test_requires_gradient_capability(self):
        m = ModelHandle(2, "scalar", lambda X: np.ones(len(X)), gradient_capability="none")
        with pytest.raises(UnsupportedOperation):
            saliency(m, [0.0, 0.0])


class TestInputXGradient:
    def test_park_reference_values(self, park, park_point):
        attr = input_x_gradient(park, park_point)
        expected = [0.32870931370302203, 0.6574186274060441, 0.0902817664541621,
                    -0.5258743359416745, 0.0, 0.0]
        assert attr.values == pytest.approx(expected, abs=1e-12)

    def test_zero_point_gives_zero_vector(self, park):
        attr = input_x_gradient(park, np.zeros(6))
        assert attr.values == pytest.approx([0.0] * 6)

    def test_linear_model(self):
        w = np.array([2.0, 3.0])
        x = np.array([0.5, -1.0])
        attr = input_x_gradient(linear_model(w), x)
        assert attr.values == pytest.approx(w * x)

    def test_equals_saliency_times_input(self, park):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(0, 1, size=6)
            np.testing.assert_array_equal(input_x_gradient(park, x).values,
                                          saliency(park, x).values * x)


class TestIntegratedGradients:
    def test_completeness_on_park(self, park, park_point):
        attr = integrated_gradients(park, park_point, steps=256)
        gap = attr.values.sum() - (park.predict(park_point) - park.predict(np.zeros(6)))
        assert abs(gap) < 1e-3

    def test_completeness_on_random_pairs(self, park):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.uniform(0, 1, size=6)
            b = rng.uniform(0, 1, size=6)
            attr = integrated_gradients(park, x, baseline=b, steps=256)
            gap = attr.values.sum() - (park.predict(x) - park.predict(b))
            assert abs(gap) < 1e-3

    def test_baseline_equal_to_point_gives_zeros(self, park, park_point):
        attr = integrated_gradients(park, park_point, baseline=park_point, steps=16)
        assert attr.values == pytest.approx([0.0] * 6)

    def test_linear_model_single_step_is_exact(self):
        w = np.array([1.5, -0.5, 2.0])
        x = np.array([1.0, 2.0, 3.0])
        b = np.array([0.5, 0.0, -1.0])
        attr = integrated_gradients(linear_model(w), x, baseline=b, steps=1)
        assert attr.values == pytest.approx(w * (x - b), abs=1e-12)

    def test_inert_coordinates_exactly_zero(self, park, park_point):
        attr = integrated_gradients(park, park_point, steps=64)
        assert attr.values[4] == 0.0 and attr.values[5] == 0.0

    def test_exact_path_integral_reference(self, park, park_point):
        # midpoint sums converge to the closed-form path integrals
        attr = integrated_gradients(park, park_point, steps=1024)
        expected = [0.23431849125419726, 0.46863698250839453, 0.3041568070881791,
                    -0.2700311430298537, 0.0, 0.0]
        assert attr.values == pytest.approx(expected, abs=1e-5)

    def test_baseline_arity_checked(self, park, park_point):
        with pytest.raises(ContractViolation):
            integrated_gradients(park, park_point, baseline=np.zeros(3))


class TestRandomAttribution:
    def test_same_seed_is_identical(self):
        a = random_attribution(6, seed=9)
        b = random_attribution(6, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_entries_nonzero_and_bounded(self):
        for seed in range(20):
            attr = random_attribution(6, seed=seed)
            assert np.all(attr.values != 0.0)
            assert np.all(np.abs(attr.values) <= 1.0)

    def test_different_seeds_differ(self):
        a = random_attribution(6, seed=0)
        b = random_attribution(6, seed=1)
        assert np.any(a.values != b.values)

    def test_zero_attributions_tracked_at_inert_features(self, park, park_point):
        for method in ("saliency", "inpxgrad", "intgrad"):
            attr = compute_attribution(method, bench_model(park), park_point)
            assert attr.values[4] == 0.0 and attr.values[5] == 0.0


def bench_model(park):
    return park


class TestDispatch:
    def test_unknown_method_rejected(self, park, park_point):
        with pytest.raises(ContractViolation):
            compute_attribution("shapley", park, park_point)

    def test_random_records_prediction(self, park, park_point):
        attr = compute_attribution("random", park, park_point, seed=3)
        assert attr.prediction == pytest.approx(park.predict(park_point))
