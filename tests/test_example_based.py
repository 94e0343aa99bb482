import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmeter import bench, example_based
from xmeter.core import BLOCK, ContractViolation, TabularDataset, ZERO_ONE
from xmeter.example_based import (
    SELECTORS,
    ExampleSet,
    RBFKernelView,
    diversity,
    median_bandwidth,
    metrics_vs_n,
    non_representativeness,
    pairwise_distances,
    rbf_kernel,
    select_kmedoids,
    select_mmd_critic,
    select_protodash,
)
from conftest import (
    mmd_squared,
    reference_dense_mmd_critic,
    reference_dense_protodash,
    reference_full_matrix_kmedoids,
    reference_kmedoids,
    reference_median_bandwidth,
    reference_mmd_critic,
    reference_pairwise_distances,
)


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


# Class samples: real-valued points, or points on a 3-value integer grid with
# many repeated points and exactly equal distances.
SAMPLES = st.tuples(st.booleans(), st.integers(2, 25), st.integers(1, 3),
                    st.integers(0, 2 ** 32 - 1))


def sample_points(sample):
    grid, m, d, seed = sample
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(m, d)).astype(float) if grid else rng.normal(size=(m, d))


class TestSelectorsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(SAMPLES, st.data())
    def test_same_rows_as_the_per_candidate_loops(self, sample, data):
        D = pairwise_distances(sample_points(sample))
        K = rbf_kernel(D, median_bandwidth(D))
        n = data.draw(st.integers(1, len(D)))
        assert select_kmedoids(D, [n])[0] == reference_kmedoids(D, n)
        assert select_mmd_critic(K, n) == reference_mmd_critic(K, n)

    @settings(max_examples=25, deadline=None)
    @given(SAMPLES, st.data())
    def test_greedy_selections_nest(self, sample, data):
        D = pairwise_distances(sample_points(sample))
        K = rbf_kernel(D, median_bandwidth(D))
        small = data.draw(st.integers(1, len(K)))
        large = data.draw(st.integers(small, len(K)))
        assert select_mmd_critic(K, large)[:small] == select_mmd_critic(K, small)
        assert select_protodash(K, large)[0][:small] == select_protodash(K, small)[0]

    @settings(max_examples=60, deadline=None)
    @given(SAMPLES, st.integers(1, 40), st.integers(-200, 150))
    def test_pairwise_distances_are_bitwise_symmetric(self, sample, d, exponent):
        # select_kmedoids sums a swap's cost over a row instead of a column
        grid, m, _, seed = sample
        X = sample_points((grid, m, d, seed)) * 10.0 ** exponent
        D = pairwise_distances(X)
        assert np.array_equal(D, D.T)


@st.composite
def classes(draw):
    """One class's rows: m in 1..600, d in 1..12, a scale in 1e-3..1e3, and
    optionally rows resampled with replacement, so duplicates occur."""
    m, d = draw(st.integers(1, 600)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.normal(size=(m, d)) * draw(st.floats(1e-3, 1e3))
    return X[rng.integers(0, m, size=m)] if draw(st.booleans()) else X


# 40 rows on a 3-value grid: many equal distances, and PAM swaps 4 times at budget 6
TIE_HEAVY_GRID = np.random.default_rng(169).integers(0, 3, size=(40, 3)).astype(float)


class TestBlockedPassesMatchTheFullMatrixReferences:
    @settings(max_examples=30, deadline=None)
    @given(classes())
    @example(np.ones((1, 3)))
    @example(np.arange(600 * 12, dtype=float).reshape(600, 12) % 7)
    @example(np.array([[0.0], [1.0]]))  # one distance above the diagonal
    @example(np.array([[0.0], [1.0], [3.0]]))  # three: an odd count
    @example(np.array([[0.0], [1.0], [3.0], [7.0]]))  # six: the mean of two middle values
    @example(np.full((7, 2), 3.0))  # all duplicates: median 0, bandwidth 1
    # partitioned at the middle index, this one's entry just below it is not the
    # lower middle value
    @example(np.random.default_rng(532).normal(size=(64, 2)))
    @example(np.random.default_rng(3).normal(size=(9, 2)) * 1e200)  # infinite distances
    @example(TIE_HEAVY_GRID)
    def test_distances_bandwidth_and_medoids_are_bitwise_the_references(self, X):
        with np.errstate(over="ignore"):  # only the 1e200 example overflows, to inf
            D, reference = pairwise_distances(X), reference_pairwise_distances(X)
        assert np.array_equal(D.view(np.uint64), reference.view(np.uint64))
        assert np.array_equal(D.view(np.uint64), D.T.view(np.uint64))
        assert median_bandwidth(D) == reference_median_bandwidth(D)
        if not np.isfinite(D).all():
            return  # metrics_vs_n refuses such a class before any selector runs
        for n in range(1, min(len(X), 6) + 1):
            assert select_kmedoids(D, [n])[0] == reference_full_matrix_kmedoids(D, n)
            if len(X) <= 40:  # the one-swap-at-a-time reference is slow
                assert select_kmedoids(D, [n])[0] == reference_kmedoids(D, n)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.just(TIE_HEAVY_GRID), SAMPLES.map(sample_points)), st.data())
    def test_a_budget_list_gives_each_budget_its_own_selection(self, X, data):
        # one BUILD, to the largest budget below the class size, serves every
        # budget: shuffled, repeated, and at the class size
        D = pairwise_distances(X)
        m = len(D)
        drawn = data.draw(st.lists(st.integers(1, min(m, 8)), min_size=1, max_size=4))
        extra = data.draw(st.lists(st.sampled_from([m, drawn[0]]), max_size=2))
        budgets = data.draw(st.permutations(drawn + extra))
        assert select_kmedoids(D, budgets) == [reference_kmedoids(D, n) for n in budgets]

    def test_the_tie_heavy_grid_class_takes_several_swap_passes(self, monkeypatch):
        # each SWAP pass scans once, so this counts the swaps the example above checks
        swaps = []

        def counting(*args, **kwargs):
            found = bench._scan(*args, **kwargs)
            swaps.append(found[0] is not None)
            return found

        monkeypatch.setattr(example_based, "_scan", counting)
        select_kmedoids(pairwise_distances(TIE_HEAVY_GRID), [6])
        assert sum(swaps) >= 3 and swaps[-1] is False

    def test_a_class_costs_one_matrix_whatever_the_width(self):
        # D, median_bandwidth's copy of its upper triangle, and a few blocks:
        # the kernel is never built, and the m x m x d difference tensor would be 8 m²
        rng = np.random.default_rng(0)
        for d in (1, 8):
            X = rng.normal(size=(500, d))
            model = bench.fit_decision_tree(TabularDataset(X, (X[:, 0] > 0).astype(int)),
                                            max_depth=3).as_model_handle()
            example_based._class_metrics(X[:20], 0, model, list(SELECTORS), [2, 4], None,
                                         np.empty(20 ** 2))  # warm-up
            m = len(X)
            tracemalloc.start()
            try:
                example_based._class_metrics(X, 0, model, list(SELECTORS), [2, 4], None,
                                             np.empty(m ** 2))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (m ** 2 + m * (m - 1) // 2 + 2 * BLOCK) * 8


@st.composite
def kernel_cases(draw):
    """A class's distance matrix with duplicate rows likely, a bandwidth (the
    median, an extreme of the accepted range, or any in between) and a row
    block size that leaves a ragged last block."""
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.normal(size=(draw(st.integers(1, m)), draw(st.integers(1, 3))))
    D = pairwise_distances(X[rng.integers(0, len(X), size=m)])
    bandwidth = draw(st.one_of(st.just(median_bandwidth(D)), st.sampled_from([1e-150, 1e150]),
                               st.floats(1e-3, 1e3)))
    return D, bandwidth, draw(st.integers(1, 3 * m + 1))


class TestKernelView:
    @settings(max_examples=80, deadline=None)
    @given(kernel_cases())
    @example((np.zeros((1, 1)), 1e-150, 1))
    @example((pairwise_distances([[0.0], [1.0]]), 1e150, 1))
    @example((pairwise_distances([[0.0], [1.0], [0.0]]), 1e-150, 2))
    @example((pairwise_distances([[0.0], [1.0], [0.0]]), 1e150, 5))
    def test_means_rows_and_diagonal_are_bitwise_the_kernel(self, case):
        D, bandwidth, block = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(example_based, "BLOCK", block)
            K = RBFKernelView(D, bandwidth)
        with np.errstate(over="ignore"):  # D² / (2 · 1e-300) overflows, to a kernel of 0
            dense = rbf_kernel(D, bandwidth)
        assert np.array_equal(K.means.view(np.uint64), dense.mean(axis=1).view(np.uint64))
        rows = np.array([K.row(j) for j in range(len(D))])
        assert np.array_equal(rows.view(np.uint64), dense.view(np.uint64))
        assert np.array_equal(K.diagonal().view(np.uint64), np.diagonal(dense).view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(SAMPLES, st.data())
    def test_selectors_on_the_view_are_the_dense_selectors(self, sample, data):
        D = pairwise_distances(sample_points(sample))
        bandwidth = median_bandwidth(D)
        K = rbf_kernel(D, bandwidth)
        n = data.draw(st.integers(1, len(D)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(example_based, "BLOCK", data.draw(st.integers(1, 3 * len(D))))
            view = RBFKernelView(D, bandwidth)
        chosen, w = reference_dense_protodash(K, n)
        for kernel in (view, K):
            assert select_mmd_critic(kernel, n) == reference_dense_mmd_critic(K, n)
            picked, weights = select_protodash(kernel, n)
            assert picked == chosen
            assert np.array_equal(weights.view(np.uint64), w.view(np.uint64))


class TestKernel:
    def test_gram_matrices_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            X = rng.uniform(-2, 2, size=(20, 3))
            K = rbf_kernel(pairwise_distances(X), 0.5 + trial * 0.2)
            eigs = np.linalg.eigvalsh((K + K.T) / 2)
            assert eigs.min() >= -1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 501])
    def test_median_bandwidth_matches_the_index_arrays(self, n):
        rng = np.random.default_rng(n)
        for X in (rng.normal(size=(n, 4)), rng.integers(0, 3, size=(n, 2)).astype(float)):
            D = pairwise_distances(X)
            assert median_bandwidth(D) == reference_median_bandwidth(D)

    def test_median_bandwidth_positive(self):
        rng = np.random.default_rng(9)
        assert median_bandwidth(pairwise_distances(rng.uniform(0, 1, size=(15, 2)))) > 0
        assert median_bandwidth(pairwise_distances(np.ones((4, 2)))) == 1.0  # degenerate fallback


def brute_force_medoids(X, n):
    D = pairwise_distances(X)
    best, best_cost = None, np.inf
    for combo in itertools.combinations(range(len(X)), n):
        cost = D[:, list(combo)].min(axis=1).sum()
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = combo
    return set(best), best_cost


def kernel_of(X, bandwidth):
    return rbf_kernel(pairwise_distances(X), bandwidth)


class TestKMedoids:
    def test_full_budget_returns_dataset(self):
        X = np.random.default_rng(0).uniform(0, 1, (8, 2))
        chosen = select_kmedoids(pairwise_distances(X), [8])[0]
        np.testing.assert_array_equal(np.sort(X[chosen], axis=0), np.sort(X, axis=0))

    def test_a_budget_of_the_class_size_takes_no_build_step(self, monkeypatch):
        # BUILD runs only to the largest budget below the class size
        passes = []
        monkeypatch.setattr(example_based, "_row_sums", lambda *args: passes.append(args))
        D = pairwise_distances(TIE_HEAVY_GRID)
        assert select_kmedoids(D, [40, 40]) == [list(range(40))] * 2
        assert passes == []

    def test_single_medoid_matches_brute_force_1d(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        chosen = select_kmedoids(pairwise_distances(X), [1])[0]
        expected, _ = brute_force_medoids(X, 1)
        assert set(chosen) == expected
        assert X[chosen][0, 0] in (1.0, 2.0)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(12)
        cluster_a = rng.normal(0.0, 0.3, size=(5, 2))
        cluster_b = rng.normal(8.0, 0.3, size=(5, 2))
        X = np.vstack([cluster_a, cluster_b])
        chosen = select_kmedoids(pairwise_distances(X), [2])[0]
        expected, expected_cost = brute_force_medoids(X, 2)
        assert set(chosen) == expected

    @pytest.mark.parametrize("size,seed", [(30, 0), (50, 1), (45, 2)])
    def test_single_medoid_matches_brute_force(self, size, seed):
        # the BUILD step's first pick is the exact 1-medoid optimum
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(size, 2))
        D = pairwise_distances(X)
        pam_cost = D[:, select_kmedoids(D, [1])[0]].min(axis=1).sum()
        _, best_cost = brute_force_medoids(X, 1)
        assert pam_cost == pytest.approx(best_cost, abs=1e-9)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_two_medoids_match_brute_force_on_clustered_sets(self, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(0.0, 0.5, size=(20, 2)),
                       rng.normal(6.0, 0.5, size=(20, 2))])
        D = pairwise_distances(X)
        pam_cost = D[:, select_kmedoids(D, [2])[0]].min(axis=1).sum()
        _, best_cost = brute_force_medoids(X, 2)
        assert pam_cost == pytest.approx(best_cost, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 10, 21, 77])
    def test_result_is_single_swap_optimal(self, seed):
        # the algorithm's contract: no single medoid exchange lowers the cost
        # (the global optimum can require a simultaneous double swap)
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(40, 2))
        D = pairwise_distances(X)
        meds = select_kmedoids(D, [2])[0]
        cost = D[:, meds].min(axis=1).sum()
        for pos in range(len(meds)):
            for cand in range(len(X)):
                if cand in meds:
                    continue
                trial = list(meds)
                trial[pos] = cand
                assert D[:, trial].min(axis=1).sum() >= cost - 1e-9

    def test_class_filter(self):
        # each class's prototypes come from its own rows and explain its label:
        # {0, 1} and {5, 6}, each pair one apart and predicted as its class
        data = TabularDataset([[0.0], [1.0], [5.0], [6.0]], labels=[0, 0, 1, 1])
        model = label_model(lambda x: x[0] > 3.0, arity=1)
        row, = metrics_vs_n(data, model, ["kmedoids"], [2])["kmedoids"]
        assert row["diversity"] == 0.5
        assert row["non_representativeness"] == 0.0

    def test_insufficient_samples_rejected(self):
        data = TabularDataset([[0.0], [1.0]], labels=[0, 0])
        with pytest.raises(ContractViolation):
            metrics_vs_n(data, label_model(lambda x: 0, arity=1), ["kmedoids"], [3])


class TestMMDCritic:
    def test_full_set_has_zero_mmd(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(0, 1, size=(12, 2))
        chosen = select_mmd_critic(kernel_of(X, 0.7), 12)
        assert mmd_squared(X[chosen], X, bandwidth=0.7) == pytest.approx(0.0, abs=1e-12)

    def test_greedy_steps_match_exhaustive_argmin(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(0, 1, size=(20, 2))
        K = kernel_of(X, 0.5)
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
            assert select_mmd_critic(K, step + 1) == chosen

    def test_mmd_non_increasing_over_steps(self):
        # holds in the narrow-kernel regime; with wide kernels the uniform
        # 1/p re-weighting can raise the objective even at the best candidate
        rng = np.random.default_rng(15)
        X = rng.uniform(0, 1, size=(30, 3))
        K = kernel_of(X, 0.3)
        values = []
        for n in range(1, 10):
            values.append(mmd_squared(X[select_mmd_critic(K, n)], X, 0.3))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_per_step_brute_force_on_30_points(self):
        rng = np.random.default_rng(16)
        X = rng.normal(0, 1, size=(30, 2))
        D = pairwise_distances(X)
        bw = median_bandwidth(D)
        selected = select_mmd_critic(rbf_kernel(D, bw), 5)
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
        assert selected == chosen


class TestProtodash:
    def test_first_pick_is_max_mean_similarity(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 1, size=(25, 2))
        K = kernel_of(X, 0.6)
        chosen, w = select_protodash(K, 1)
        assert chosen[0] == int(np.argmax(K.mean(axis=1)))

    def test_weights_nonnegative_and_objective_nondecreasing(self):
        rng = np.random.default_rng(18)
        X = rng.normal(0, 1, size=(40, 3))
        D = pairwise_distances(X)
        K = rbf_kernel(D, median_bandwidth(D))
        mu = K.mean(axis=1)
        previous = -np.inf
        for n in range(1, 8):
            sel, w = select_protodash(K, n)
            assert np.all(w >= 0.0)
            objective = w @ mu[sel] - 0.5 * w @ K[np.ix_(sel, sel)] @ w
            assert objective >= previous - 1e-10
            previous = objective

    def test_weight_vector_matches_selection_size(self):
        rng = np.random.default_rng(19)
        chosen, w = select_protodash(kernel_of(rng.uniform(0, 1, size=(15, 2)), 0.5), 4)
        assert len(w) == 4 == len(chosen)


def _cluster_setup(seed=0):
    data = bench.synth_tabular(bench.CLUSTER_BENCH_SPEC, seed=seed)
    model = bench.fit_decision_tree(data, max_depth=5).as_model_handle()
    return data, model


def _averages(table):
    """{selector: (NR, D)} of a one-budget table."""
    return {s: (rows[0]["non_representativeness"], rows[0]["diversity"])
            for s, rows in table.items()}


class TestMetricsVsN:
    def test_diversity_zero_at_single_prototype(self):
        data, model = _cluster_setup()
        for nr, d in _averages(metrics_vs_n(data, model, SELECTORS, [1])).values():
            assert d == 0.0

    def test_selectors_coincide_at_full_class_size(self):
        data, model = _cluster_setup()
        class_size = int(np.min(np.bincount(data.labels)))
        values = list(_averages(metrics_vs_n(data, model, SELECTORS, [class_size])).values())
        for other in values[1:]:
            assert other[1] == pytest.approx(values[0][1], abs=1e-12)
            assert other[0] == pytest.approx(values[0][0], abs=1e-12)

    def test_representativeness_stays_flat_across_budgets(self):
        data, model = _cluster_setup()
        for rows in metrics_vs_n(data, model, SELECTORS, [4, 6, 8, 10]).values():
            anchor = next(r for r in rows if r["n"] == 6)["non_representativeness"]
            for row in rows:
                assert abs(row["non_representativeness"] - anchor) <= 0.15

    def test_curve_shape(self):
        data, model = _cluster_setup()
        rows = metrics_vs_n(data, model, ["kmedoids"], [1, 2, 3])["kmedoids"]
        assert [r["n"] for r in rows] == [1, 2, 3]
        assert all(set(r) == {"selector", "n", "non_representativeness", "diversity"}
                   for r in rows)

    def test_orderings_at_six_prototypes(self):
        data, model = _cluster_setup()
        averages = _averages(metrics_vs_n(data, model, SELECTORS, [6]))
        nr = {s: v[0] for s, v in averages.items()}
        d = {s: v[1] for s, v in averages.items()}
        assert nr["kmedoids"] < nr["mmd"] < nr["protodash"]
        assert d["protodash"] > d["mmd"] > d["kmedoids"]

    def test_one_distance_matrix_per_class(self, monkeypatch):
        # three selectors at two budgets share each class's distance matrix;
        # diversity's matrices over at most 4 prototypes are not counted. Every
        # class's matrix fills the one workspace of the command, of one matrix
        # of the largest class.
        data = bench.synth_tabular(bench.SynthSpec(90, 2, 3, separation=3.0),
                                   seed=0)
        model = bench.fit_decision_tree(data, max_depth=3).as_model_handle()
        sizes, workspaces, kernel_sizes = [], [], []
        build, kernel = example_based.pairwise_distances, example_based.rbf_kernel

        def counting(X, out=None):
            sizes.append(len(X))
            if out is not None:
                workspaces.append(out.base)
            return build(X, out=out)

        monkeypatch.setattr(example_based, "pairwise_distances", counting)
        monkeypatch.setattr(example_based, "rbf_kernel", lambda D, bandwidth, out=None:
                            kernel_sizes.append(D.size) or kernel(D, bandwidth, out))
        monkeypatch.setattr(example_based, "BLOCK", 100)
        metrics_vs_n(data, model, SELECTORS, [2, 4])
        assert sorted(n for n in sizes if n > 4) == sorted(np.bincount(data.labels))
        assert len(workspaces) == data.n_classes
        assert all(w is workspaces[0] for w in workspaces)
        assert workspaces[0].size == np.bincount(data.labels).max() ** 2
        # no kernel matrix is built: the kernel is computed a row block at a time
        assert kernel_sizes and max(kernel_sizes) <= 100

    def test_greedy_selectors_run_once_per_class(self, monkeypatch):
        data = bench.synth_tabular(bench.SynthSpec(90, 2, 3, separation=3.0), seed=0)
        model = bench.fit_decision_tree(data, max_depth=3).as_model_handle()
        calls = []
        for name in ("select_kmedoids", "select_mmd_critic", "select_protodash"):
            select = getattr(example_based, name)
            monkeypatch.setattr(example_based, name, lambda M, n, name=name, select=select:
                                calls.append((name, n)) or select(M, n))
        table = metrics_vs_n(data, model, SELECTORS, [2, 5, 3])
        assert calls == [("select_kmedoids", [2, 5, 3]), ("select_mmd_critic", 5),
                         ("select_protodash", 5)] * 3
        monkeypatch.undo()
        for name, rows in table.items():  # the same rows as one selection per budget
            assert rows == [metrics_vs_n(data, model, [name], [n])[name][0] for n in (2, 5, 3)]

    @pytest.mark.parametrize("selectors,budgets,bandwidth", [
        (["kmedoids", "x"], [2], None),
        (SELECTORS, [0], None),
        (SELECTORS, [2, 10 ** 6], None),
        (["mmd"], [2], 1e-190),
        (["mmd"], [2], 1e200),
    ])
    def test_bad_arguments_rejected_before_any_selection(self, selectors, budgets, bandwidth,
                                                         monkeypatch):
        data, model = _cluster_setup()
        monkeypatch.setattr(example_based, "pairwise_distances", None)
        with pytest.raises(ContractViolation):
            metrics_vs_n(data, model, selectors, budgets, bandwidth)
