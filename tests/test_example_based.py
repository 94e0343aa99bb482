import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmeter import bench
from xmeter.core import ContractViolation, TabularDataset, ZERO_ONE
from xmeter.example_based import (
    ExampleSet,
    KernelConfig,
    class_averaged_metrics,
    diversity,
    median_bandwidth,
    metrics_vs_n,
    mmd_squared,
    non_representativeness,
    pairwise_distances,
    rbf_kernel_matrix,
    select_kmedoids,
    select_mmd_critic,
    select_protodash,
)
from conftest import constant_model


def label_model(fn, arity):
    from xmeter.core import ModelHandle

    return ModelHandle(arity, "label", lambda X: np.array([int(fn(x)) for x in X]))


class TestNonRepresentativeness:
    def test_all_correct_is_zero(self):
        m = label_model(lambda x: 1, arity=2)
        E = ExampleSet([[0.0, 0.0], [1.0, 1.0]], target_prediction=1)
        assert non_representativeness(E, m, ZERO_ONE) == 0.0

    def test_half_mispredicted(self):
        m = label_model(lambda x: int(x[0] > 0.5), arity=1)
        E = ExampleSet([[0.0], [1.0]], target_prediction=1)
        assert non_representativeness(E, m, ZERO_ONE) == 0.5

    def test_duplicate_example_is_mean_of_identical_terms(self):
        m = label_model(lambda x: int(x[0] > 0.5), arity=1)
        single = ExampleSet([[0.0]], target_prediction=1)
        doubled = ExampleSet([[0.0], [0.0]], target_prediction=1)
        assert non_representativeness(single, m, ZERO_ONE) == \
            non_representativeness(doubled, m, ZERO_ONE)

    def test_examples_evaluated_in_one_batch(self):
        from xmeter.core import SQUARED_ERROR, ModelHandle

        batches = []

        def predict(X):
            batches.append(len(X))
            return X[:, 0]

        m = ModelHandle(1, "scalar", predict)
        E = ExampleSet([[0.0], [1.0], [3.0]], target_prediction=1.0)
        assert non_representativeness(E, m, SQUARED_ERROR) == pytest.approx(5.0 / 3.0)
        assert batches == [3]


class TestDiversity:
    def test_hand_computed_pair(self):
        # ordered pairs: d((0,0),(3,4)) twice → (5 + 5) / (2 * 2)
        E = ExampleSet([[0.0, 0.0], [3.0, 4.0]], target_prediction=0)
        assert diversity(E) == pytest.approx(2.5)

    def test_singleton_is_zero(self):
        assert diversity(ExampleSet([[1.0, 2.0]], target_prediction=0)) == 0.0

    def test_identical_examples_are_zero(self):
        E = ExampleSet([[1.0, 1.0]] * 4, target_prediction=0)
        assert diversity(E) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(range(5)))
    def test_permutation_invariance(self, perm):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(5, 3))
        base = diversity(ExampleSet(pts, 0))
        shuffled = diversity(ExampleSet(pts[list(perm)], 0))
        assert shuffled == pytest.approx(base, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(range(4)))
    def test_feature_relabeling_invariance(self, perm):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(6, 4))
        base = diversity(ExampleSet(pts, 0))
        relabeled = diversity(ExampleSet(pts[:, list(perm)], 0))
        assert relabeled == pytest.approx(base, rel=1e-12)


class TestKernel:
    def test_gram_matrices_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            X = rng.uniform(-2, 2, size=(20, 3))
            K = rbf_kernel_matrix(X, bandwidth=0.5 + trial * 0.2)
            eigs = np.linalg.eigvalsh((K + K.T) / 2)
            assert eigs.min() >= -1e-8

    def test_median_bandwidth_positive(self):
        rng = np.random.default_rng(9)
        assert median_bandwidth(rng.uniform(0, 1, size=(15, 2))) > 0
        assert median_bandwidth(np.ones((4, 2))) == 1.0  # degenerate fallback


def brute_force_medoids(X, n):
    D = pairwise_distances(X)
    best, best_cost = None, np.inf
    for combo in itertools.combinations(range(len(X)), n):
        cost = D[:, list(combo)].min(axis=1).sum()
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = combo
    return set(best), best_cost


class TestKMedoids:
    def test_full_budget_returns_dataset(self):
        data = TabularDataset(np.random.default_rng(0).uniform(0, 1, (8, 2)))
        E = select_kmedoids(data, None, 8)
        np.testing.assert_array_equal(np.sort(E.examples, axis=0),
                                      np.sort(data.features, axis=0))

    def test_single_medoid_matches_brute_force_1d(self):
        data = TabularDataset(np.array([[0.0], [1.0], [2.0], [10.0]]))
        E = select_kmedoids(data, None, 1)
        expected, _ = brute_force_medoids(data.features, 1)
        assert set(E.source_indices) == expected
        assert E.examples[0, 0] in (1.0, 2.0)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(12)
        cluster_a = rng.normal(0.0, 0.3, size=(5, 2))
        cluster_b = rng.normal(8.0, 0.3, size=(5, 2))
        data = TabularDataset(np.vstack([cluster_a, cluster_b]))
        E = select_kmedoids(data, None, 2)
        expected, expected_cost = brute_force_medoids(data.features, 2)
        assert set(E.source_indices) == expected

    @pytest.mark.parametrize("size,seed", [(30, 0), (50, 1), (45, 2)])
    def test_single_medoid_matches_brute_force(self, size, seed):
        # the BUILD step's first pick is the exact 1-medoid optimum
        rng = np.random.default_rng(seed)
        data = TabularDataset(rng.uniform(0, 1, size=(size, 2)))
        E = select_kmedoids(data, None, 1)
        D = pairwise_distances(data.features)
        pam_cost = D[:, list(E.source_indices)].min(axis=1).sum()
        _, best_cost = brute_force_medoids(data.features, 1)
        assert pam_cost == pytest.approx(best_cost, abs=1e-9)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_two_medoids_match_brute_force_on_clustered_sets(self, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(0.0, 0.5, size=(20, 2)),
                       rng.normal(6.0, 0.5, size=(20, 2))])
        data = TabularDataset(X)
        E = select_kmedoids(data, None, 2)
        D = pairwise_distances(X)
        pam_cost = D[:, list(E.source_indices)].min(axis=1).sum()
        _, best_cost = brute_force_medoids(X, 2)
        assert pam_cost == pytest.approx(best_cost, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 10, 21, 77])
    def test_result_is_single_swap_optimal(self, seed):
        # the algorithm's contract: no single medoid exchange lowers the cost
        # (the global optimum can require a simultaneous double swap)
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(40, 2))
        data = TabularDataset(X)
        E = select_kmedoids(data, None, 2)
        D = pairwise_distances(X)
        meds = list(E.source_indices)
        cost = D[:, meds].min(axis=1).sum()
        for pos in range(len(meds)):
            for cand in range(len(X)):
                if cand in meds:
                    continue
                trial = list(meds)
                trial[pos] = cand
                assert D[:, trial].min(axis=1).sum() >= cost - 1e-9

    def test_class_filter(self):
        data = TabularDataset([[0.0], [1.0], [5.0], [6.0]], labels=[0, 0, 1, 1])
        E = select_kmedoids(data, 1, 2)
        assert set(map(float, E.examples[:, 0])) == {5.0, 6.0}
        assert E.target_prediction == 1

    def test_insufficient_samples_rejected(self):
        data = TabularDataset([[0.0], [1.0]], labels=[0, 0])
        with pytest.raises(ContractViolation):
            select_kmedoids(data, 0, 3)


class TestMMDCritic:
    def test_full_set_has_zero_mmd(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(0, 1, size=(12, 2))
        assert mmd_squared(X, X, bandwidth=0.7) == pytest.approx(0.0, abs=1e-12)

    def test_greedy_steps_match_exhaustive_argmin(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(0, 1, size=(20, 2))
        data = TabularDataset(X)
        kernel = KernelConfig(bandwidth=0.5)
        chosen = []
        for step in range(3):
            best_j, best_val = None, np.inf
            for j in range(20):
                if j in chosen:
                    continue
                trial = X[chosen + [j]]
                val = mmd_squared(trial, X, 0.5)
                if val < best_val - 1e-15:
                    best_val, best_j = val, j
            chosen.append(best_j)
            E = select_mmd_critic(data, None, step + 1, kernel)
            assert list(E.source_indices) == chosen

    def test_mmd_non_increasing_over_steps(self):
        # holds in the narrow-kernel regime; with wide kernels the uniform
        # 1/p re-weighting can raise the objective even at the best candidate
        rng = np.random.default_rng(15)
        X = rng.uniform(0, 1, size=(30, 3))
        data = TabularDataset(X)
        kernel = KernelConfig(bandwidth=0.3)
        values = []
        for n in range(1, 10):
            E = select_mmd_critic(data, None, n, kernel)
            values.append(mmd_squared(E.examples, X, 0.3))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_per_step_brute_force_on_30_points(self):
        rng = np.random.default_rng(16)
        X = rng.normal(0, 1, size=(30, 2))
        data = TabularDataset(X)
        bw = median_bandwidth(X)
        kernel = KernelConfig(bandwidth=bw)
        E = select_mmd_critic(data, None, 5, kernel)
        chosen = []
        for step in range(5):
            best_j, best_val = None, np.inf
            for j in range(30):
                if j in chosen:
                    continue
                val = mmd_squared(X[chosen + [j]], X, bw)
                if val < best_val - 1e-15:
                    best_val, best_j = val, j
            chosen.append(best_j)
        assert list(E.source_indices) == chosen


class TestProtodash:
    def test_first_pick_is_max_mean_similarity(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 1, size=(25, 2))
        data = TabularDataset(X)
        kernel = KernelConfig(bandwidth=0.6)
        E, w = select_protodash(data, None, 1, kernel)
        mu = rbf_kernel_matrix(X, bandwidth=0.6).mean(axis=1)
        assert E.source_indices[0] == int(np.argmax(mu))

    def test_weights_nonnegative_and_objective_nondecreasing(self):
        rng = np.random.default_rng(18)
        X = rng.normal(0, 1, size=(40, 3))
        data = TabularDataset(X)
        bw = median_bandwidth(X)
        kernel = KernelConfig(bandwidth=bw)
        K = rbf_kernel_matrix(X, bandwidth=bw)
        mu = K.mean(axis=1)
        previous = -np.inf
        for n in range(1, 8):
            E, w = select_protodash(data, None, n, kernel)
            assert np.all(w >= 0.0)
            sel = list(E.source_indices)
            objective = w @ mu[sel] - 0.5 * w @ K[np.ix_(sel, sel)] @ w
            assert objective >= previous - 1e-10
            previous = objective

    def test_weight_vector_matches_selection_size(self):
        rng = np.random.default_rng(19)
        data = TabularDataset(rng.uniform(0, 1, size=(15, 2)))
        E, w = select_protodash(data, None, 4, KernelConfig(bandwidth=0.5))
        assert len(w) == 4 == E.size


def _cluster_setup(seed=0):
    data = bench.synth_tabular(bench.CLUSTER_BENCH_SPEC, seed=seed)
    model = bench.fit_decision_tree(data, max_depth=5).as_model_handle()
    return data, model


class TestMetricsVsN:
    def test_diversity_zero_at_single_prototype(self):
        data, model = _cluster_setup()
        for selector in ("kmedoids", "mmd", "protodash"):
            nr, d = class_averaged_metrics(data, model, selector, 1)
            assert d == 0.0

    def test_selectors_coincide_at_full_class_size(self):
        data, model = _cluster_setup()
        class_size = int(np.min(np.bincount(data.labels)))
        results = {s: class_averaged_metrics(data, model, s, class_size)
                   for s in ("kmedoids", "mmd", "protodash")}
        values = list(results.values())
        for other in values[1:]:
            assert other[1] == pytest.approx(values[0][1], abs=1e-12)
            assert other[0] == pytest.approx(values[0][0], abs=1e-12)

    def test_representativeness_stays_flat_across_budgets(self):
        data, model = _cluster_setup()
        for selector in ("kmedoids", "mmd", "protodash"):
            rows = metrics_vs_n(data, model, selector, [4, 6, 8, 10])
            anchor = next(r for r in rows if r["n"] == 6)["non_representativeness"]
            for row in rows:
                assert abs(row["non_representativeness"] - anchor) <= 0.15

    def test_curve_shape(self):
        data, model = _cluster_setup()
        rows = metrics_vs_n(data, model, "kmedoids", [1, 2, 3])
        assert [r["n"] for r in rows] == [1, 2, 3]
        assert all(set(r) == {"selector", "n", "non_representativeness", "diversity"}
                   for r in rows)

    def test_orderings_at_six_prototypes(self):
        data, model = _cluster_setup()
        nr, d = {}, {}
        for s in ("kmedoids", "mmd", "protodash"):
            nr[s], d[s] = class_averaged_metrics(data, model, s, 6)
        assert nr["kmedoids"] < nr["mmd"] < nr["protodash"]
        assert d["protodash"] > d["mmd"] > d["kmedoids"]
