import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmeter import bench, mi
from xmeter.cli import main
from xmeter.core import ContractViolation, TabularDataset, gradient
from xmeter.mi import estimate_mi
from xmeter.park import PARK_POINT, DomainWarning, park_batch, park_gradient
from conftest import (
    node_impurity,
    node_split,
    park_value,
    reference_edges,
    reference_tree,
    tree_shape,
)


class TestParkFunction:
    def test_value_at_origin(self):
        assert park_batch(np.zeros((1, 6)))[0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_value_at_reference_point(self):
        assert park_batch([PARK_POINT])[0] == \
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
        np.testing.assert_allclose(park_batch(X), reference, atol=1e-12, rtol=0)

    def test_gradient_matches_finite_differences(self, park):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x = rng.uniform(0.01, 0.99, size=6)
            exact = park_gradient(x)
            fd = np.empty(6)
            for i in range(6):
                h = 1e-6
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (park_value(xp) - park_value(xm)) / (2 * h)
            assert np.max(np.abs(exact - fd)) < 1e-6

    def test_gradient_of_rows_is_the_gradient_of_each_point(self):
        # the one-point formula, as the handle computed it before it took rows
        def one(x):
            e = (2.0 / 3.0) * np.exp(x[0] + x[1])
            return np.array([e, e, 1.0 - x[3] * np.cos(x[2]), -np.sin(x[2]), 0.0, 0.0])

        X = np.random.default_rng(6).uniform(0, 1, size=(1000, 6))
        for n in (1, 7, 1000):
            assert park_gradient(X[:n]).tobytes() == np.array([one(x) for x in X[:n]]).tobytes()

    def test_inert_coordinates(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform(0, 1, size=6)
            g = park_gradient(x)
            assert g[4] == 0.0 and g[5] == 0.0

    def test_domain_warning_outside_unit_box(self, park):
        with pytest.warns(DomainWarning):
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
        assert tree_depth(tree.root) <= 3

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


# Reference split searches: the per-cut scalar loops, and the per-node search
# that sorts every column of each node and scores every cut at once.

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


def tree_depth(root):
    """Longest root-to-leaf path, in splits; walked on a stack."""
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if not node.is_leaf:
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


def root_split(X, y, n_classes, impurity):
    root, = bench._grow_forest(X, y, n_classes, 1, impurity)
    return None if root.is_leaf else (root.feature, root.threshold)


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


class TestSplitSweep:
    @settings(max_examples=100, deadline=None)
    @given(_tie_heavy_split_input(max_columns=3))
    def test_gini_matches_reference(self, case):
        X, y, n_classes = case
        expected = _reference_split(X, y, n_classes, "gini")
        assert root_split(X, y, n_classes, "gini") == expected
        assert node_split(X, y, n_classes, "gini") == expected

    @settings(max_examples=100, deadline=None)
    @given(_tie_heavy_split_input(max_columns=1))
    def test_entropy_matches_reference(self, case):
        X, y, n_classes = case
        expected = _reference_split(X, y, n_classes, "entropy")
        assert root_split(X, y, n_classes, "entropy") == expected
        assert node_split(X, y, n_classes, "entropy") == expected

    @pytest.mark.parametrize("n_classes", [1, 2, 3, 7, 8, 9, 20])
    def test_class_first_impurity_rounds_as_the_row_sums(self, n_classes):
        counts = np.random.default_rng(n_classes).integers(0, 1000, size=(3000, n_classes))
        counts[:, 0] += 1
        # the grower's counts are C-ordered, classes first
        class_first = np.ascontiguousarray(counts.T, dtype=float)
        for kind in ("gini", "entropy"):
            np.testing.assert_array_equal(
                bench._impurity(class_first, counts.sum(axis=1), kind),
                node_impurity(counts.astype(float), kind))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=30), st.sampled_from([0.0, 1.0]),
           st.lists(st.integers(1, 8), min_size=30, max_size=30))
    def test_blocked_record_scan_matches_the_full_scan(self, steps, base, sizes):
        # gains 0.4e-12 apart, so near-ties decide; a base of 0 tests the start at 1e-12
        gains = [base + k * 0.4e-12 for k in steps]
        expected, expected_gain = None, 1e-12
        for i, g in enumerate(gains):
            if g > expected_gain + 1e-12:
                expected, expected_gain = i, g
        best, best_gain, peak, lo = None, 1e-12, -np.inf, 0
        for size in sizes:
            if lo < len(gains):
                i, best_gain, peak = bench._scan(np.array(gains[lo:lo + size]), best_gain, peak)
                best = best if i is None else lo + i
            lo += size
        assert (best, best_gain) == (expected, expected_gain)

    @settings(max_examples=100, deadline=None)
    @given(_tie_heavy_split_input(max_columns=3), st.sampled_from(["gini", "entropy"]),
           st.integers(0, 6))
    def test_grown_trees_match_the_per_node_search(self, case, impurity, max_depth):
        X, y, n_classes = case
        root, = bench._grow_forest(X, y, n_classes, max_depth, impurity)
        assert tree_shape(root) == reference_tree(X, y, n_classes, max_depth, impurity)

    @pytest.mark.parametrize("block", [1, 7, 3 * 40 * 3, 1 << 17])
    def test_column_blocks_do_not_change_the_tree(self, block, monkeypatch):
        # 3 classes x 40 rows: a block of 1 or 7 entries scores one column at a time,
        # 360 entries blocks of 3 and 1 columns, and 2^17 (above core.BLOCK) every
        # column in one block, for the CART tree and the discretizer's trees alike
        data = bench.synth_tabular(bench.SynthSpec(n_samples=40, n_features=4, n_classes=3,
                                                   separation=1.0), seed=2)
        monkeypatch.setattr(bench, "BLOCK", block)
        assert tree_shape(bench.fit_decision_tree(data, 6).root) == \
            reference_tree(data.features, data.labels, 3, 6, "gini")
        assert mi.fit_entropy_discretizer(data, 6).bin_edges == \
            reference_edges(data.features, data.labels, 3, 6)

    @pytest.mark.parametrize("block,calls", [(None, 6), (3 * 1500 * 3, 12)])
    def test_one_gain_evaluation_per_level_and_column_block(self, monkeypatch, block, calls):
        # the example-eval spec at depth 6 searches 24 nodes on 6 levels, each with
        # a cut: one block of all four columns, or blocks of 3 and 1 columns
        data = bench.synth_tabular(bench.SynthSpec(n_samples=1500, n_features=4, n_classes=3,
                                                   separation=3.0), 0)
        expected = reference_tree(data.features, data.labels, 3, 6, "gini")
        counted, gains = [], bench._gains
        monkeypatch.setattr(bench, "_gains", lambda *args: counted.append(1) or gains(*args))
        if block is not None:
            monkeypatch.setattr(bench, "BLOCK", block)
        assert tree_shape(bench.fit_decision_tree(data, 6).root) == expected
        assert len(counted) == calls

    def test_entropy_ignores_rounding_noise_at_many_rows(self):
        # every cut leaves both classes in equal shares, so every gain is zero;
        # at 30,010 rows the Gini-style 1e-12 tolerance on weighted sums splits here
        values = np.repeat(np.arange(5.0), 6002)[:, None]
        labels = np.tile([0, 1], 15005)
        assert root_split(values, labels, 2, "entropy") is None
        assert node_split(values, labels, 2, "entropy") is None
        assert _reference_split(values, labels, 2, "entropy") is None

    def test_gini_ignores_rounding_noise_at_many_rows(self):
        # every value holds the classes in shares 1:2:3, so every gain is zero;
        # at 162,054 rows a 1e-12 tolerance on count-weighted Gini sums splits here
        values = np.repeat(np.arange(3.0), 54018)[:, None]
        labels = np.tile(np.repeat([0, 1, 2], [9003, 18006, 27009]), 3)
        assert root_split(values, labels, 3, "gini") is None
        assert node_split(values, labels, 3, "gini") is None

    @pytest.mark.parametrize("spec", ["MI_BENCH_SPEC", "CLUSTER_BENCH_SPEC"])
    def test_fits_match_reference(self, spec):
        for seed in range(3):
            data = bench.synth_tabular(getattr(bench, spec), seed)
            X, y, k = data.features, data.labels, data.n_classes
            tree = tree_shape(bench.fit_decision_tree(data, 5).root)
            edges = mi.fit_entropy_discretizer(data, 3).bin_edges
            assert tree == reference_tree(X, y, k, 5, "gini")
            assert tree == reference_tree(X, y, k, 5, "gini", _reference_split)
            assert edges == reference_edges(X, y, k, 3)
            assert edges == reference_edges(X, y, k, 3, _reference_split)

    def test_fit_memory_is_linear_in_the_largest_label(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(60, 2))
        data = TabularDataset(X, np.where(X[:, 0] + 0.3 * X[:, 1] > 0.6, 3000, 0))
        tracemalloc.start()
        try:
            shape = tree_shape(bench.fit_decision_tree(data, 3).root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6  # one K x K identity of 3001 classes takes 72 MB
        assert shape == reference_tree(X, data.labels, 3001, 3, "gini", _reference_split)
        assert shape == reference_tree(X, data.labels, 3001, 3, "gini")


def _stair(n=2400):
    """x0 is the row index and the label alternates, so every split peels off
    one row: the tree is a chain n - 1 splits deep."""
    return TabularDataset(np.arange(float(n))[:, None], np.arange(n) % 2)


class TestDeepTrees:
    def test_fit_and_predict_a_chain_deeper_than_the_recursion_limit(self):
        data = _stair()
        tree = bench.fit_decision_tree(data, 5000)
        assert tree_depth(tree.root) == data.n_samples - 1
        probs = tree.predict_proba_batch(data.features)
        np.testing.assert_array_equal(probs, np.eye(2)[data.labels])
        for i in (0, 1, 1200, 2399):
            np.testing.assert_array_equal(tree.predict_proba(data.features[i]), probs[i])

    def test_discretizer_edges_of_a_deep_chain(self):
        data = _stair()
        edges = mi.fit_entropy_discretizer(data, 5000).bin_edges
        assert edges == (tuple(np.arange(data.n_samples - 1) + 0.5),)
        assert edges == reference_edges(data.features, data.labels, 2, 5000)


# values whose neighbouring doubles round midpoints onto them, or whose sums
# leave the double range
EXTREMES = [0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, 1.7e308, -1.7e308]


@st.composite
def _extreme_columns(draw):
    """Labelled rows whose columns draw from a run of adjacent doubles and a
    few values of magnitude up to 1.7e308."""
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 3))
    value = st.sampled_from(EXTREMES) | st.floats(-1.7e308, 1.7e308)
    columns = []
    for _ in range(d):
        pool = [draw(value)]
        for _ in range(draw(st.integers(1, 3))):
            pool.append(float(np.nextafter(pool[-1], np.inf)))
        pool += draw(st.lists(value, max_size=3))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, draw(st.integers(1, 2))), min_size=n, max_size=n))
    return np.array(columns).T, np.array(y)


_ONE = 1.0
_ONE_UP = float(np.nextafter(_ONE, np.inf))
_ONE_UP_UP = float(np.nextafter(_ONE_UP, np.inf))


class TestCutsSeparate:
    @settings(max_examples=150, deadline=None)
    @given(_extreme_columns())
    @example((np.array([[_ONE], [_ONE], [_ONE_UP], [_ONE_UP], [_ONE_UP_UP], [_ONE_UP_UP]]),
              np.array([0, 0, 1, 1, 0, 0])))  # midpoints of adjacent doubles round up
    @example((np.array([[1e308], [1e308], [1.7e308], [1.7e308]]), np.array([0, 0, 1, 1])))
    @example((np.array([[-1.7e308], [-1.7e308], [1.7e308], [1.7e308]]), np.array([0, 1, 1, 0])))
    def test_every_cut_sends_a_training_row_each_way(self, case):
        X, y = case
        data = TabularDataset(X, y)
        tree = bench.fit_decision_tree(data, 4)
        stack = [(tree.root, np.arange(len(y)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                assert np.isfinite(node.distribution).all()
                continue
            left = X[rows, node.feature] <= node.threshold
            assert left.any() and not left.all()
            stack += [(node.left, rows[left]), (node.right, rows[~left])]
        assert tree_shape(tree.root) == reference_tree(X, y, data.n_classes, 4, "gini")
        # a one-column tree's leaves are the bins, each holding a training row
        edges = mi.fit_entropy_discretizer(data, 3).bin_edges
        assert edges == reference_edges(X, y, data.n_classes, 3)
        for column, column_edges in zip(X.T, edges):
            bins = np.searchsorted(np.array(column_edges), column, side="left")
            assert set(bins.tolist()) == set(range(len(column_edges) + 1))


@st.composite
def _extreme_csv(draw):
    """A labelled CSV dataset: ``_extreme_columns`` plus, at will, a column of
    zeros of both signs, a constant column and a class of one or two rows."""
    X, y = draw(_extreme_columns())
    n = len(y)
    if draw(st.booleans()):
        X = np.column_stack([X, draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n,
                                              max_size=n))])
    if draw(st.booleans()):
        X = np.column_stack([X, np.full(n, draw(st.sampled_from(EXTREMES + [-0.0])))])
    small = draw(st.integers(0, min(2, n - 1)))
    y[:small] = y.max() + 1
    header = [f"x{i}" for i in range(X.shape[1])] + ["label"]
    rows = [[repr(float(v)) for v in row] + [str(label)] for row, label in zip(X, y)]
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


class TestAdversarialTreeCommands:
    @settings(max_examples=40, deadline=None)
    @given(_extreme_csv(), st.integers(0, 4))
    def test_tree_commands_keep_the_exit_code_contract(self, tmp_path_factory, text, depth):
        # RuntimeWarnings fail the test (pytest's filterwarnings), as in every test
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text(text)
        fitted, fit = [], bench.fit_decision_tree
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench, "fit_decision_tree",
                          lambda *args: fitted.append(fit(*args)) or fitted[-1])
            for command in (["mi", "--runs", "1", "--ood-count", "1"],
                            ["example-eval", "--n", "1"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(command + ["--dataset", str(path), "--model", f"tree:{depth}"])
                assert code in (0, 2, 3, 4)
                assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
        for tree in fitted:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    assert np.isfinite(node.distribution).all()
                else:
                    stack += [node.left, node.right]


@st.composite
def _tree_and_queries(draw):
    X, y, n_classes = draw(_tie_heavy_split_input(max_columns=3))
    tree = bench.fit_decision_tree(TabularDataset(X, y), draw(st.integers(0, 5)))
    # the grid values are integers, so the half-integers are the thresholds
    halves = st.integers(-2, 9).map(lambda h: h / 2.0)
    n_rows = draw(st.integers(0, 12))
    Q = np.array(draw(st.lists(halves, min_size=n_rows * X.shape[1],
                               max_size=n_rows * X.shape[1]))).reshape(n_rows, X.shape[1])
    return tree, Q


class TestRoutedPrediction:
    @settings(max_examples=100, deadline=None)
    @given(_tree_and_queries())
    def test_batch_equals_row_by_row(self, case):
        tree, Q = case
        batch = tree.predict_proba_batch(Q)
        assert batch.shape == (len(Q), tree.n_classes)
        if len(Q):
            np.testing.assert_array_equal(batch, np.stack([tree.predict_proba(q) for q in Q]))

    def test_row_on_a_threshold_goes_left(self):
        tree = bench.fit_decision_tree(_hand_split_dataset(), max_depth=1)
        assert tree.root.threshold == 0.5
        np.testing.assert_array_equal(tree.predict_proba_batch([[0.5], [0.5000001]]),
                                      [[1.0, 0.0], [0.0, 1.0]])

    def test_zero_rows(self):
        tree = bench.fit_decision_tree(_hand_split_dataset(), max_depth=1)
        assert tree.predict_proba_batch(np.empty((0, 1))).shape == (0, 2)


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
