import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import (
    chebyshev_distances,
    reference_count_within,
    reference_estimate_mi,
    reference_extractor_report,
    reference_extractor_table,
    reference_fit_entropy_discretizer,
)
from scipy.special import digamma

from xmeter import bench, mi
from xmeter.core import ContractViolation, TabularDataset
from xmeter.mi import (
    EXTRACTORS,
    JITTER_SCALE,
    _discrete_codes,
    _RadiusCount,
    _sweep,
    apply_extractor,
    draw_random_ood_extractor,
    estimate_mi,
    extractor_report,
    extractor_table,
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


# Columns of one value kind each: a small integer grid (ties), normal reals,
# a constant, rows repeated from a few distinct ones, or values one float
# apart, whose midpoint rounds onto one of them, with -0.0 and 0.0.
_COLUMN_KINDS = ("grid", "real", "constant", "duplicates", "adjacent")
ADJACENT = np.array([-0.0, 0.0, 1.0, np.nextafter(1.0, 2.0),
                     np.nextafter(np.nextafter(1.0, 2.0), 2.0), 3.0])


@st.composite
def discretizer_inputs(draw):
    """(data, max_depth): 1-12 classes, the largest always present, so the
    impurity sums 8 or more classes pairwise; 1-12 columns; depth 1-6."""
    n_classes, n, width = draw(st.integers(1, 12)), draw(st.integers(1, 60)), \
        draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=width, max_size=width))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = {"grid": lambda: rng.integers(0, 4, size=n).astype(float),
               "real": lambda: rng.normal(size=n),
               "constant": lambda: np.full(n, 2.5),
               "duplicates": lambda: rng.normal(size=3)[rng.integers(0, 3, size=n)],
               "adjacent": lambda: rng.choice(ADJACENT, size=n)}
    X = np.column_stack([columns[kind]() for kind in kinds])
    y = rng.integers(0, n_classes, size=n)
    y[rng.integers(0, n)] = n_classes - 1
    if draw(st.booleans()):  # whole rows repeated
        keep = rng.integers(0, max(1, n // 3), size=n)
        X, y = X[keep], y[keep]
    return TabularDataset(X, y), draw(st.integers(1, 6))


class TestLevelOrderDiscretizer:
    @settings(max_examples=400, deadline=None)
    @given(discretizer_inputs())
    def test_edges_equal_the_per_feature_trees(self, case):
        data, max_depth = case
        # exact floats: repr, and a rounded-onto-a-value midpoint's refusal alike
        expected = outcome(reference_fit_entropy_discretizer, data, max_depth)
        assert outcome(fit_entropy_discretizer, data, max_depth) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_preset_edges_equal_the_per_feature_trees(self, seed):
        data = bench.synth_tabular(bench.MI_BENCH_SPEC, seed)
        for max_depth in (1, 3, 6):
            assert fit_entropy_discretizer(data, max_depth) == \
                reference_fit_entropy_discretizer(data, max_depth)

    @pytest.mark.parametrize("block,levels", [(None, 3), (3 * 1000 * 3, 4 * 3)])
    def test_one_gain_evaluation_per_level_and_feature_block(self, monkeypatch, block,
                                                             levels):
        # 10 features of 1000 rows and 3 classes: one block of all ten, or
        # blocks of 3, 3, 3 and 1 features; every level of each has a cut
        data = bench.synth_tabular(bench.MI_BENCH_SPEC, 0)
        expected = reference_fit_entropy_discretizer(data, 3)
        calls = []
        gains = bench._gains

        def counting(*args):
            calls.append(len(args[0]))  # the cuts scored
            return gains(*args)

        monkeypatch.setattr(bench, "_gains", counting)
        if block is not None:
            monkeypatch.setattr(bench, "BLOCK", block)
        assert fit_entropy_discretizer(data, 3) == expected
        assert len(calls) == levels

    def test_memory_is_linear_in_the_largest_label(self):
        # the class counts are classes x rows per feature block, never classes squared
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(60, 2))
        data = TabularDataset(X, np.where(X[:, 0] + 0.3 * X[:, 1] > 0.6, 3000, 0))
        expected = reference_fit_entropy_discretizer(data, 3)
        tracemalloc.start()
        try:
            g = fit_entropy_discretizer(data, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6  # one 3001 x 3001 identity takes 72 MB
        assert g == expected


def discrete_blocks():
    """Integer and float blocks with repeated rows, -0.0 beside 0.0 and
    negative values, of one column or several."""
    values = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0, 1e300])
    return st.tuples(st.integers(1, 60), st.integers(1, 6), st.booleans(),
                     st.integers(0, 2 ** 32 - 1)).map(lambda t: _discrete_block(*t)) | \
        st.integers(1, 6).flatmap(lambda w: st.lists(
            st.lists(values, min_size=w, max_size=w), min_size=1, max_size=40)
            .map(np.array))


def _discrete_block(n, width, floats, seed):
    rng = np.random.default_rng(seed)
    pool = rng.integers(-3, 3, size=(max(1, n // 2), width))
    block = pool[rng.integers(0, len(pool), size=n)]
    return block * 0.5 if floats else block


class TestDiscreteCodes:
    @settings(max_examples=300, deadline=None)
    @given(discrete_blocks())
    def test_codes_equal_the_unique_inverse(self, block):
        _, inverse = np.unique(block, axis=0, return_inverse=True)
        codes = _discrete_codes(block)
        assert codes.shape == (len(block),)
        np.testing.assert_array_equal(codes, inverse.reshape(-1))

    def test_zero_width_blocks_are_refused(self):
        with pytest.raises(ContractViolation, match="at least one column"):
            estimate_mi(np.zeros((30, 0), dtype=int), np.arange(30) % 3)


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

    @pytest.mark.parametrize("scale,b,discrete,tied", [
        (1e6, np.arange(30) % 2, True, "5 of them (first [1, 9, 11])"),
        (1e300, np.full((30, 2), 1e300), False, "30 of them (first [0, 1, 2])")])
    def test_non_finite_estimate_names_its_tied_rows(self, scale, b, discrete, tied):
        # at these magnitudes the 1e-10 jitter separates few rows or none, so
        # radii of 0 count no row and digamma(0) is -inf
        estimator = "mixed-discrete" if discrete else "ksg-continuous"
        with pytest.raises(FloatingPointError, match=re.escape(
                f"the {estimator} estimate over 30 rows is not finite: {tied} have their "
                "k = 3 nearest at distance 0")):
            estimate_mi(np.full((30, 3), scale), b, b_discrete=discrete)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("discrete", [(False, False), (False, True), (True, False),
                                          (True, True)])
    def test_non_finite_value_is_a_contract_violation(self, bad, side, discrete):
        rng = np.random.default_rng(29)
        cols = {"a": rng.integers(0, 3, size=(50, 2)).astype(float),
                "b": rng.integers(0, 3, size=(50, 1)).astype(float)}
        cols[side][7, 0] = bad
        with pytest.raises(ContractViolation, match=f"column block {side} "):
            estimate_mi(cols["a"], cols["b"], seed=0,
                        a_discrete=discrete[0], b_discrete=discrete[1])


# Rows drawn with replacement from a smaller pool, so many repeat: real values,
# a coarse grid, or the grid plus the estimators' jitter; optionally one column
# held at -10 as random-ood leaves it. The last field is the rows per distance
# block, so most sets span several blocks and many end in a ragged one.
POINT_SETS = st.tuples(st.sampled_from(["real", "grid", "jittered"]), st.booleans(),
                       st.integers(1, 300), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
                       st.integers(1, 7))


def draw_points(point_set):
    kind, constant_column, n, d, seed, _ = point_set
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(n // 2 + 1, d)) if kind == "real" \
        else rng.integers(0, 4, size=(n // 2 + 1, d)) * 0.25
    P = pool[rng.integers(0, len(pool), size=n)]
    if kind == "jittered":
        P = P + JITTER_SCALE * rng.random(P.shape)
    if constant_column:
        P[:, rng.integers(d)] = -10.0
    return P, rng


class TestCountWithin:
    @settings(max_examples=60, deadline=None)
    @given(POINT_SETS)
    def test_matches_the_brute_force_strict_count(self, point_set):
        P, rng = draw_points(point_set)
        n = len(P)
        # each radius is an actual distance from its row (zero included), so
        # rows at exactly that distance sit on the strict boundary; some are
        # raised by one ulp to take those rows in
        radii = []
        for _ in range(2):
            eps = chebyshev_distances(P)[np.arange(n), rng.integers(0, n, size=n)]
            radii.append(np.where(rng.random(n) < 0.3, np.nextafter(eps, np.inf), eps))
        # a second count over an equal copy reads the same blocks
        sets = []
        counts = [_RadiusCount(sets, P, radii[0]), _RadiusCount(sets, P.copy(), radii[1])]
        assert len(sets) == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mi, "BLOCK", point_set[-1] * n)
            _sweep(sets, counts)
        for count, eps in zip(counts, radii):
            np.testing.assert_array_equal(count.within, reference_count_within(P, eps))


class TestDistanceBlocks:
    @settings(max_examples=60, deadline=None)
    @given(POINT_SETS, st.integers(0, 299), st.integers(1, 8),
           st.sampled_from(["contiguous", "gathered", "gathered in class order"]))
    def test_in_class_matches_the_sorted_distances(self, point_set, k, n_classes, path):
        # grid rows repeat, so the k-th distance is often tied with its
        # neighbours in the sorted row (zero ties included); classes range
        # from one row to all rows, read as the sweep's classes or gathered
        # from an uncoded or a class-ordered sweep
        P, rng = draw_points(point_set)
        n = len(P)
        k = k % n
        codes, other = rng.integers(0, n_classes, size=(2, n))
        asked, swept = {"contiguous": (None, codes), "gathered": (codes, None),
                        "gathered in class order": (codes, other)}[path]
        kth = np.empty((n, 2))

        class Reader:
            reads = (0,)

            def take(self, rows, v):
                kth[rows] = v.in_class(k, asked)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mi, "BLOCK", point_set[-1] * n)
            _sweep([P.copy()], [Reader()], swept)
        for row, c, got in zip(chebyshev_distances(P), codes, kth):
            ordered = np.append(np.sort(row[codes == c]), np.inf)  # m distances, then inf
            m = len(ordered) - 1
            expected = ordered[[min(k, m - 1), min(k + 1, m)]] if m > 1 else [np.inf] * 2
            np.testing.assert_array_equal(got, expected)

    def test_ksg_matches_the_brute_force_estimate(self, monkeypatch):
        rng = np.random.default_rng(27)
        a = rng.integers(0, 4, size=(400, 3)) * 0.25
        b = a[:, :2] + rng.integers(0, 2, size=(400, 2)) * 0.5
        k, seed = 3, 4
        monkeypatch.setattr(mi, "BLOCK", 3 * 400 + 1)  # 3 rows a block, the last one ragged
        est = estimate_mi(a, b, k=k, seed=seed)
        jitter = np.random.default_rng([seed, 41])
        aj = a + JITTER_SCALE * jitter.random(a.shape)
        bj = b + JITTER_SCALE * jitter.random(b.shape)
        da, db = chebyshev_distances(aj), chebyshev_distances(bj)
        eps = np.sort(np.maximum(da, db), axis=1)[:, k, None]
        nx = (da < eps).sum(axis=1) - 1
        ny = (db < eps).sum(axis=1) - 1
        expected = digamma(k) + digamma(400) - np.mean(digamma(nx + 1) + digamma(ny + 1))
        assert est.raw_value == float(expected)

    @pytest.mark.parametrize("pair", ["continuous", "labels-second", "labels-first"])
    def test_estimate_is_bitwise_independent_of_the_block_size(self, pair, monkeypatch):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((500, 3))
        y = x[:, :1] + rng.standard_normal((500, 1)) if pair == "continuous" \
            else rng.integers(0, 3, size=500)
        a, b = (y, x) if pair == "labels-first" else (x, y)
        default = estimate_mi(a, b, seed=6)
        monkeypatch.setattr(mi, "BLOCK", 3 * 500 + 1)  # ragged blocks of 3 rows
        small = estimate_mi(a, b, seed=6)
        assert small.raw_value == default.raw_value
        assert default.estimator == ("ksg-continuous" if pair == "continuous"
                                     else "mixed-discrete")


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

    @pytest.mark.parametrize("seed,kept", [(0, 45), (5, 8)])
    def test_n_used_counts_the_rows_an_estimate_rests_on(self, seed, kept):
        data, y = _mi_bench_setup(seed)
        g = fit_entropy_discretizer(data, max_depth=3)
        # the mixed estimator keeps only the rows whose discretized row repeats
        _, inverse, counts = np.unique(apply_extractor(g, data).features, axis=0,
                                       return_inverse=True, return_counts=True)
        repeated = int((counts[inverse.reshape(-1)] > 1).sum())
        feature, target = extractor_report(data, g, y, seed=seed)
        assert feature.estimator == "mixed-discrete"
        assert feature.n_used == repeated == kept
        assert feature.n_samples == data.n_samples
        assert target.estimator == "plugin-discrete" and target.n_used == data.n_samples
        ksg, _ = extractor_report(data, identity_extractor(), y, seed=seed)
        assert ksg.estimator == "ksg-continuous" and ksg.n_used == data.n_samples

    def test_labels_used_when_no_model(self):
        data, _ = _mi_bench_setup()
        _, target = extractor_report(data, identity_extractor(), seed=0)
        from_labels = estimate_mi(data.features, data.labels, k=3, seed=0,
                                  a_discrete=False, b_discrete=True)
        assert target == from_labels
        assert target.value > 0.5


def outcome(f, *args, **kwargs) -> str:
    """The repr of what ``f`` returns (exact floats), or the message of the
    ContractViolation it raises."""
    try:
        return repr(f(*args, **kwargs))
    except ContractViolation as exc:
        return f"ContractViolation: {exc}"


# Quantized to a 0.5 grid, so rows repeat and the entropy codes repeat too.
SMALL_SPEC = bench.SynthSpec(n_samples=120, n_features=4, n_classes=3, separation=3.0,
                             n_noise_features=1, quantize_step=0.5)

# Column pairs for estimate_mi: the estimator pairing, the sample count, each
# side's width, how the continuous side repeats, the number of repeated rows
# in an almost all-singleton discrete side, k, the seed and rows per block.
PAIRS = st.tuples(st.sampled_from(["continuous", "mixed", "mixed-first", "discrete"]),
                  st.integers(20, 90), st.integers(1, 3), st.integers(1, 3),
                  st.sampled_from(["real", "grid", "singletons"]), st.integers(0, 3),
                  st.integers(1, 7), st.integers(0, 2 ** 32 - 1), st.integers(1, 7))


def draw_pair(pair):
    pairing, n, wa, wb, kind, repeats, _, seed, _ = pair
    rng = np.random.default_rng(seed)

    def continuous(w):
        pool = rng.normal(size=(n // 2 + 1, w)) if kind == "real" \
            else rng.integers(0, 4, size=(n // 2 + 1, w)) * 0.25
        return pool[rng.integers(0, len(pool), size=n)]

    def discrete(w):
        if kind != "singletons":
            return rng.integers(0, 3, size=(n, w))
        codes = rng.permutation(n)
        codes[rng.choice(n, size=repeats, replace=False)] = codes[0]
        return codes.reshape(-1, 1)

    a_discrete = pairing in ("mixed-first", "discrete")
    b_discrete = pairing in ("mixed", "discrete")
    a = discrete(wa) if a_discrete else continuous(wa)
    b = discrete(wb) if b_discrete else continuous(wb)
    if pairing == "continuous" and kind == "grid" and wa == wb:
        b = a.copy()  # equal before jitter
    return a, b, a_discrete, b_discrete


class TestEqualsThePerEstimateReference:
    """The shared sweep against the reference that runs one distance pass per
    estimate (tests/conftest.py), compared bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_preset_table_and_reports(self, seed):
        data, y = _mi_bench_setup(seed)
        args = (data, EXTRACTORS, y, 2, 3, seed, 3, -10.0, 3)
        table = outcome(extractor_table, *args)
        assert table == outcome(reference_extractor_table, *args)
        # seed 3's entropy codes are all distinct
        assert ("mixed estimator needs repeated discrete values" in table) == (seed == 3)
        for g in (identity_extractor(), draw_random_ood_extractor(data.n_features, 3, seed),
                  fit_entropy_discretizer(data, max_depth=3)):
            assert outcome(extractor_report, data, g, y, seed=seed) == \
                outcome(reference_extractor_report, data, g, y, seed=seed)

    @pytest.mark.parametrize("names", [names for r in (1, 2, 3)
                                       for names in itertools.permutations(EXTRACTORS, r)]
                             + [("entropy", "identity", "entropy")])
    def test_every_extractor_order_run_count_and_k(self, names):
        data = bench.synth_tabular(SMALL_SPEC, seed=5)
        for runs, k in itertools.product((1, 2, 3), (1, 3, 7)):
            args = (data, names, None, runs, k, 11, 2, -10.0, 2)
            table = outcome(extractor_table, *args)
            assert not table.startswith("ContractViolation")
            assert table == outcome(reference_extractor_table, *args)

    @settings(max_examples=150, deadline=None)
    @given(PAIRS)
    def test_estimate_mi(self, pair):
        a, b, a_discrete, b_discrete = draw_pair(pair)
        k, seed, block_rows = pair[-3:]
        expected = outcome(reference_estimate_mi, a, b, k=k, seed=seed,
                           a_discrete=a_discrete, b_discrete=b_discrete)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mi, "BLOCK", block_rows * len(a))
            assert outcome(estimate_mi, a, b, k=k, seed=seed, a_discrete=a_discrete,
                           b_discrete=b_discrete) == expected

    def test_equal_sides_read_one_read_only_set(self, monkeypatch):
        # at 1e300 the 1e-10 jitter vanishes, so both jittered sides hold the
        # same bits and the sweep hands the one block to both KSG slots
        rng = np.random.default_rng(30)
        A = 1e300 * (1.0 + rng.integers(0, 40, size=(200, 2)) * 1e-3)
        jitter = np.random.default_rng([0, 41])
        assert np.array_equal(A + JITTER_SCALE * jitter.random(A.shape), A)
        assert np.array_equal(A + JITTER_SCALE * jitter.random(A.shape), A)
        entries = []
        cdist = mi.cdist

        def read_only_cdist(XA, XB, metric, **kwargs):
            d = cdist(XA, XB, metric, **kwargs)
            entries.append(d.size)
            if "out" in kwargs:  # a sweep block, which readers share
                d = d.view()
                d.flags.writeable = False
            return d

        monkeypatch.setattr(mi, "cdist", read_only_cdist)
        est = estimate_mi(A, A.copy(), k=3, seed=0)
        assert sum(entries) == 200 * 200
        assert repr(est) == repr(reference_estimate_mi(A, A.copy(), k=3, seed=0))


class TestSweepCost:
    def test_no_point_set_block_is_computed_twice(self, monkeypatch):
        data, y = _mi_bench_setup(0)
        seen, entries = set(), []
        cdist = mi.cdist

        def spy(XA, XB, metric, **kwargs):
            key = (hashlib.sha1(XB.tobytes()).digest(), XB.shape,
                   hashlib.sha1(XA.tobytes()).digest(), XA.shape)
            assert key not in seen, "a point set's row block was computed twice"
            seen.add(key)
            entries.append(len(XA) * len(XB))
            return cdist(XA, XB, metric, **kwargs)

        monkeypatch.setattr(mi, "cdist", spy)
        # every set is jittered with its run's seed, so no block repeats
        # within a run and none across runs either
        extractor_table(data, EXTRACTORS, y, 2, 3, 0, 3, -10.0, 3)
        # one pass per estimate computed 13,337,600 entries here
        assert sum(entries) <= 9_400_000

    def test_jittered_twins_are_not_swept(self, monkeypatch):
        # a preset run's four 1000-row sets are X + j1, its twin X + j2, the
        # ood target's Zood + j1 and its twin Zood + j2: two are swept, each
        # block of them a view of its own distances
        data, y = _mi_bench_setup(0)
        n, swept, sizes = data.n_samples, [], []
        view, sweep = mi._View, mi._sweep

        def spy(points, rows, d, delta, *args):
            if len(points) == n and delta is None:
                swept.append(hashlib.sha1(points.tobytes()).digest())
            return view(points, rows, d, delta, *args)

        def sizes_spy(sets, estimates, codes):
            sizes.append(sum(len(points) == n for points in sets))
            sweep(sets, estimates, codes)

        monkeypatch.setattr(mi, "_View", spy)
        monkeypatch.setattr(mi, "_sweep", sizes_spy)
        extractor_table(data, EXTRACTORS, y, 1, 3, 0, 3, -10.0, 3)
        blocks = -(-n // (mi.BLOCK // n))
        assert sizes == [4]
        assert sorted(swept.count(key) for key in set(swept)) == [blocks, blocks]

    @pytest.mark.parametrize("names,columns,calls", [(("identity", "random-ood"), 26_000_000, 96),
                                                     (EXTRACTORS, 26_040_500, 98)])
    def test_target_radii_and_shared_columns(self, monkeypatch, names, columns, calls):
        # two runs: X + j1 and Zood + j1 share 7 of 10 columns, so a run
        # computes 7 + 3 + 3 columns of 1000 x 1000 entries (20 at one pass
        # per swept set) in 16 blocks, and the entropy feature estimate sweeps
        # its 45 kept rows in one; every mixed estimate takes its radii from
        # the sweep's partitions (a cdist per class of the entropy codes gave
        # 26,042,640 column-entries in 138 calls)
        data, y = _mi_bench_setup(0)
        computed = []
        cdist = mi.cdist

        def spy(XA, XB, metric, **kwargs):
            computed.append(len(XA) * len(XB) * XA.shape[1])
            return cdist(XA, XB, metric, **kwargs)

        monkeypatch.setattr(mi, "cdist", spy)
        extractor_table(data, names, y, 2, 3, 0, 3, -10.0, 3)
        assert (sum(computed), len(computed)) == (columns, calls)

    def test_holds_no_distance_matrix(self):
        data, y = _mi_bench_setup(0)
        args = (data, EXTRACTORS, y, 2, 3, 0, 3, -10.0, 3)
        extractor_table(*args)  # warm-up
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            extractor_table(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        n = data.n_samples
        assert peak < n * n * 8 / 2


# Point sets P for the twin bound: normal or grid columns with repeated rows,
# scaled by 10^e for e in -12..8, so the 1e-10 jitter that makes the twin
# Q = P + jitter ranges from dominant to lost in rounding.
TWIN_SETS = st.tuples(st.sampled_from(["real", "grid"]), st.integers(2, 60), st.integers(1, 4),
                      st.integers(-12, 8), st.integers(0, 2 ** 32 - 1))


def _scratch(shape):
    return np.empty(shape), np.empty(shape, bool), np.empty(shape, bool)


class TestTwinBound:
    @settings(max_examples=150, deadline=None)
    @given(TWIN_SETS)
    def test_twin_distances_lie_within_the_margin(self, twin_set):
        kind, n, d, exponent, seed = twin_set
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(n // 2 + 1, d)) if kind == "real" \
            else rng.integers(0, 4, size=(n // 2 + 1, d)) * 0.25
        P = pool[rng.integers(0, len(pool), size=n)] * 10.0 ** exponent
        Q = P + JITTER_SCALE * rng.random(P.shape)
        delta = np.abs(Q - P).max()
        dP, dQ = cdist(P, P, "chebyshev"), cdist(Q, Q, "chebyshev")
        assert (np.abs(dQ - dP) <= mi._margin(delta, dP)).all()
        # a twin's own entries are cdist's, bit for bit
        rows = slice(n // 3, n)
        view = mi._View(Q, rows, dP[rows], delta, _scratch(dP[rows].shape))
        r, c = np.divmod(np.arange(dP[rows].size), n)
        assert view.entries(r, c).tobytes() == dQ[rows].tobytes()
        assert view.exact().tobytes() == dQ[rows].tobytes()


def _sweep_case(case):
    """Point sets for ``_sweep`` and their readers: a KSG whose side b is a
    twin of its side a, an unrelated set, or a twin of a set that a radius
    count swept earlier, and radius counts over a twin of side a."""
    rng = np.random.default_rng([case, 32])
    kind = ("real", "grid", "huge")[case % 3]
    relation = ("twin", "other", "elsewhere")[case // 3 % 3]
    n, k = int(rng.integers(20, 90)), int(rng.integers(1, 6))

    def draw(d):
        pool = rng.normal(size=(n // 2 + 1, d)) if kind == "real" \
            else rng.integers(0, 4, size=(n // 2 + 1, d)) * 0.25
        return pool[rng.integers(0, len(pool), size=n)] * (1e8 if kind == "huge" else 1.0)

    def radii(S):  # each a distance of its row, some one ulp up
        eps = cdist(S, S, "chebyshev")[np.arange(n), rng.integers(0, n, size=n)]
        return np.where(rng.random(n) < 0.3, np.nextafter(eps, np.inf), eps)

    a = draw(int(rng.integers(1, 4)))
    b = a if relation == "twin" else draw(int(rng.integers(1, 4)))
    sets, readers = [], []
    if relation == "elsewhere":  # swept first, so the KSG's b is its twin
        b_twin = b + JITTER_SCALE * rng.random(b.shape)
        readers.append(_RadiusCount(sets, b_twin, radii(b_twin)))
    readers.append(mi._Ksg(sets, a, b, k, np.random.default_rng([case, 41])))
    P = sets[readers[-1].reads[0]]
    Q = P + JITTER_SCALE * rng.random(P.shape)
    readers += [_RadiusCount(sets, Q, radii(Q)) for _ in range(2)]
    return sets, readers, int(rng.integers(1, 8))


class TestSweepAgainstBruteForce:
    def test_counts_equal_the_brute_force(self, monkeypatch):
        paths = dict.fromkeys(["fast", "fallback", "exact", "twin counts"], 0)
        take, exact, count_below = mi._Ksg.take, mi._View.exact, mi._View.count_below

        def spy_take(est, rows, va, vb):
            before = paths["exact"]
            take(est, rows, va, vb)
            paths["fallback" if paths["exact"] > before else "fast"] += 1

        def spy_exact(view):
            paths["exact"] += 1
            return exact(view)

        def spy_count_below(view, eps):
            paths["twin counts"] += view.delta is not None
            return count_below(view, eps)

        monkeypatch.setattr(mi._Ksg, "take", spy_take)
        monkeypatch.setattr(mi._View, "exact", spy_exact)
        monkeypatch.setattr(mi._View, "count_below", spy_count_below)
        for case in range(45):
            sets, readers, block_rows = _sweep_case(case)
            monkeypatch.setattr(mi, "BLOCK", block_rows * len(sets[0]))  # ragged blocks
            _sweep(sets, readers)
            for est in readers:
                if isinstance(est, _RadiusCount):
                    P = sets[est.reads[0]]
                    np.testing.assert_array_equal(est.within, reference_count_within(P, est.eps))
                    continue
                da, db = (chebyshev_distances(sets[i]) for i in est.reads)
                eps = np.sort(np.maximum(da, db), axis=1)[:, est.k, None]
                np.testing.assert_array_equal(est.nx, (da < eps).sum(axis=1) - 1)
                np.testing.assert_array_equal(est.ny, (db < eps).sum(axis=1) - 1)
        assert paths["fast"] > 0 and paths["fallback"] > 0 and paths["twin counts"] > 0

    def test_overflowing_distances_are_counted_exactly(self):
        # a column of +-1e308 beside small jittered columns: rows of opposite
        # signs lie at an infinite distance; with 3 rows at -1e308 those
        # rows' KSG radii are infinite too
        rng = np.random.default_rng(33)
        for negative in (30, 3):
            a = np.column_stack([np.where(np.arange(60) < negative, -1e308, 1e308),
                                 rng.normal(size=(60, 2))])
            assert repr(estimate_mi(a, a)) == repr(reference_estimate_mi(a, a))
        # radius counts over a twin, with infinite and largest finite radii
        P = a + JITTER_SCALE * rng.random(a.shape)
        Q = P + JITTER_SCALE * rng.random(a.shape)
        dQ = cdist(Q, Q, "chebyshev")
        assert np.isinf(dQ).any()
        eps = np.where(np.arange(60) % 3 == 0, np.inf, dQ[:, 5])
        eps[1] = np.finfo(float).max
        sets = []
        counts = [_RadiusCount(sets, P, eps), _RadiusCount(sets, Q, eps)]
        _sweep(sets, counts)
        np.testing.assert_array_equal(counts[1].within, (dQ < eps[:, None]).sum(axis=1))


# Class-ordered sweeps: point kind (normal columns, or a 0.25 grid whose rows
# repeat, so distances tie), n, k, width, whether the KSG's side b is a twin
# of its side a, the smallest class size (1 drops rows from the mixed
# estimates), whether the sweep walks in class order, the seed and rows per
# block, so blocks end raggedly.
CLASS_SWEEPS = st.tuples(st.sampled_from(["real", "grid"]), st.integers(20, 90),
                         st.integers(1, 4), st.integers(1, 3), st.booleans(), st.integers(1, 2),
                         st.booleans(), st.integers(0, 2 ** 32 - 1), st.integers(1, 7))


def _class_sweep(case) -> None:
    """Sweeps, in the order of labels with a few classes of 1 to k + 2 rows
    beside one or two larger ones or in the rows' own order, a mixed estimate
    under the labels, a KSG whose side a is that estimate's set, a second
    mixed estimate over a twin of it, and a third over its set under other
    codes, with classes of 2 to k + 1 rows; checks every count and radius
    against the brute force."""
    kind, n, k, width, twin, smallest, coded, seed, block_rows = case
    rng = np.random.default_rng(seed)

    def classes(low, high, count):  # count classes of low to high - 1 rows, then larger ones
        sizes = list(rng.integers(low, high, size=count))
        rest = n - sum(sizes)
        sizes += [rest // 2, rest - rest // 2] if rest >= 2 * (k + 2) else [rest]
        return rng.permutation(np.repeat(np.arange(len(sizes)), sizes))

    def draw():
        pool = rng.normal(size=(n // 2 + 1, width)) if kind == "real" \
            else rng.integers(0, 4, size=(n // 2 + 1, width)) * 0.25
        return pool[rng.integers(0, len(pool), size=n)]

    labels = classes(smallest, k + 3, rng.integers(0, 4))
    other = classes(2, k + 2, rng.integers(1, 4))
    a = draw()
    b = a if twin else draw()
    sets = []
    # one jitter stream, so the KSG's side a is the first estimate's set
    readers = [mi._Mixed(sets, a, labels, k, np.random.default_rng([seed, 41])),
               mi._Ksg(sets, a, b, k, np.random.default_rng([seed, 41])),
               mi._Mixed(sets, a, labels, k, np.random.default_rng([seed, 42])),
               mi._Mixed(sets, a, other, k, np.random.default_rng([seed, 41]))]
    before = [points.copy() for points in sets]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mi, "BLOCK", block_rows * n)
        _sweep(sets, readers, labels if coded else None)
    ksg = readers[1]
    da, db = (chebyshev_distances(before[i]) for i in ksg.reads)
    eps = np.sort(np.maximum(da, db), axis=1)[:, k, None]
    np.testing.assert_array_equal(ksg.nx, (da < eps).sum(axis=1) - 1)
    np.testing.assert_array_equal(ksg.ny, (db < eps).sum(axis=1) - 1)
    for est in readers[::2] + readers[3:]:
        D = chebyshev_distances(before[est.reads[0]])
        radii = [np.sort(row[est.codes == c])[min(k, np.sum(est.codes == c) - 1)]
                 for row, c in zip(D, est.codes)]
        np.testing.assert_array_equal(est.eps, radii)
        np.testing.assert_array_equal(est.within, (D < est.eps[:, None]).sum(axis=1))


class TestClassOrderedSweep:
    @settings(max_examples=150, deadline=None)
    @given(CLASS_SWEEPS)
    def test_counts_and_radii_equal_the_brute_force(self, case):
        _class_sweep(case)

    def test_every_path_runs(self, monkeypatch):
        # in-class distances from the sweep's contiguous classes, gathered
        # under other codes, and from a twin's exact distances; and the KSG's
        # partition of a whole block where the sweep has no classes
        paths = dict.fromkeys(["contiguous", "gathered", "twin", "whole row"], 0)
        in_class, nearest = mi._View.in_class, mi._View.nearest

        def spy_in_class(view, k, codes=None):
            own = view.classes is not None and (codes is None
                                                or np.array_equal(codes, view.classes[0]))
            paths["contiguous" if own else "gathered"] += 1
            paths["twin"] += view.delta is not None
            return in_class(view, k, codes)

        def spy_nearest(view, k):
            paths["whole row"] += view.classes is None and view.delta is None
            return nearest(view, k)

        monkeypatch.setattr(mi._View, "in_class", spy_in_class)
        monkeypatch.setattr(mi._View, "nearest", spy_nearest)
        for seed in range(24):
            _class_sweep(("grid" if seed % 3 else "real", 40 + seed, 1 + seed % 4, 1 + seed % 3,
                          seed % 2 == 0, 1 + seed // 12, seed % 4 != 1, seed, 1 + seed % 5))
        assert all(paths.values()), paths

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6), st.integers(20, 80), st.booleans(), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 7))
    def test_column_group_blocks_equal_cdist(self, d, n, by_class, seed, block_rows):
        # P and Q agree on 1 to d - 1 columns, one of which holds 0.0 in P
        # where Q holds -0.0; a column of +-1e308 overflows to inf
        rng = np.random.default_rng(seed)
        P, Q = rng.normal(size=(2, n, d))
        huge = rng.integers(d)
        P[:, huge], Q[:, huge] = rng.choice([-1e308, 1e308], size=(2, n))
        Q[0, huge] = -P[0, huge]
        shared = rng.permutation(d)[:rng.integers(1, d)]
        Q[:, shared] = P[:, shared]
        P[::3, shared[0]], Q[::3, shared[0]] = 0.0, -0.0
        codes = rng.integers(0, 3, size=n) if by_class else None

        class Blocks:
            reads = (0, 1)

            def __init__(self):
                self.seen = []

            def take(self, rows, vp, vq):
                self.seen.append((rows, vp.d.copy(), vq.d.copy()))

        columns, cdist_ = [], mi.cdist

        def spy(XA, XB, metric, **kwargs):
            columns.append(XA.shape[1])
            return cdist_(XA, XB, metric, **kwargs)

        reader = Blocks()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mi, "cdist", spy)
            patch.setattr(mi, "BLOCK", block_rows * n)
            _sweep([P.copy(), Q.copy()], [reader], codes)
        order = np.concatenate([rows for rows, _, _ in reader.seen])
        for rows, dp, dq in reader.seen:
            assert dp.tobytes() == cdist(P[rows], P[order], "chebyshev").tobytes()
            assert dq.tobytes() == cdist(Q[rows], Q[order], "chebyshev").tobytes()
        # per block, the shared columns once and the other columns once per set
        assert sum(columns) == len(reader.seen) * (2 * d - len(shared))
