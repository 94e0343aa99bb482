"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the pytest verdict per test doubles as the pass/fail record.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from xmeter import bench
from xmeter.attr_methods import compute_attribution
from xmeter.attr_metrics import (
    ExpectationConfig,
    effective_complexity_detail,
    perturbation_test,
    restriction_loss_vector,
    spearman,
)
from xmeter.cli import main as cli_main
from xmeter.core import FeatureDistribution, SQUARED_ERROR
from xmeter.example_based import (
    pairwise_distances,
    rbf_kernel,
    select_kmedoids,
    select_mmd_critic,
)
from xmeter.mi import estimate_mi
from conftest import mmd_squared, readme_tables

GRADIENT_METHODS = ("saliency", "inpxgrad", "intgrad")
ALL_METHODS = GRADIENT_METHODS + ("random",)
RANDOM_ATTR_SEED = 0  # the judged random draw is fixed; evaluation seeds vary


def park_cfg(seed, n_mc=5000):
    return ExpectationConfig(FeatureDistribution.uniform(6), SQUARED_ERROR,
                             n_mc_samples=n_mc, seed=seed)


def park_attributions(park, point):
    attrs = {m: compute_attribution(m, park, point) for m in GRADIENT_METHODS}
    attrs["random"] = compute_attribution("random", park, point, seed=RANDOM_ATTR_SEED)
    return attrs


def table_report(name, capsys, prefix="PREFIX"):
    """The report of README's experiment table ``name`` at seed 0."""
    assert cli_main(readme_tables(0, prefix)[name]) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_1_table_3a_exact_cells(capsys):
    start = time.time()
    metrics = table_report("attr-park", capsys)["metrics"]
    elapsed = time.time() - start
    cells = {m: (entry["complexity"], entry["non_sensitivity"]) for m, entry in metrics.items()}
    for m in GRADIENT_METHODS:
        assert cells[m] == (4, 0), f"{m}: expected C=4, NS=0, got {cells[m]}"
    assert cells["random"] == (6, 2)
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\n[acceptance 1] PASS: C/NS cells {cells} in {elapsed:.1f}s")


def test_criterion_2_table_3a_orderings(park, park_point):
    attrs = park_attributions(park, park_point)
    seeds = range(10)
    mono_hits = 0
    ec_hits = 0
    ec_expected = {"saliency": 3, "inpxgrad": 3, "intgrad": 4, "random": 6}
    for s in seeds:
        cfg = park_cfg(seed=s)
        e = restriction_loss_vector(park, park_point, cfg)
        mono = {m: spearman(np.abs(attrs[m].values), e) for m in ALL_METHODS}
        if mono["saliency"] > mono["inpxgrad"] > mono["intgrad"] > mono["random"]:
            mono_hits += 1
        ecs = {m: effective_complexity_detail(attrs[m], park, 0.01, cfg).k
               for m in ALL_METHODS}
        if ecs == ec_expected:
            ec_hits += 1
    # informational: the distribution under freshly drawn random attributions
    redraw = [effective_complexity_detail(compute_attribution("random", park, park_point, seed=s),
                                          park, 0.01, park_cfg(seed=s)).k for s in seeds]
    assert mono_hits >= 8, f"monotonicity ordering held for {mono_hits}/10 seeds"
    assert ec_hits >= 8, f"EC pattern held for {ec_hits}/10 seeds"
    print(f"\n[acceptance 2] PASS: monotonicity ordering {mono_hits}/10, "
          f"EC pattern {ec_hits}/10 (fixed random draw; redrawn-random ECs {redraw})")


def test_criterion_3_mi_estimator_calibration():
    start = time.time()
    rng = np.random.default_rng(1234)
    results = {}
    for rho in (0.3, 0.6, 0.9):
        xy = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=5000)
        est = estimate_mi(xy[:, 0], xy[:, 1], k=3, seed=1)
        truth = -0.5 * np.log(1.0 - rho ** 2)
        results[rho] = (est.value, truth)
        assert abs(est.value - truth) <= 0.05, f"rho={rho}: {est.value} vs {truth}"
    x = rng.standard_normal(5000)
    y = rng.standard_normal(5000)
    indep = estimate_mi(x, y, k=3, seed=1).raw_value
    assert abs(indep) <= 0.02, f"independent columns gave {indep}"
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    summary = {rho: f"{v:.3f}/{t:.3f}" for rho, (v, t) in results.items()}
    print(f"\n[acceptance 3] PASS: estimate/truth {summary}, "
          f"independent {indep:+.4f}, in {elapsed:.1f}s")


def test_criterion_4_extractor_mi_phenomenon(capsys):
    report = table_report("mi", capsys)
    f_mean = {name: entry["feature_mi"] for name, entry in report["metrics"].items()}
    t_mean = {name: entry["target_mi"] for name, entry in report["metrics"].items()}
    assert f_mean["identity"] > f_mean["random-ood"] > f_mean["entropy"], f_mean
    assert abs(t_mean["random-ood"] - t_mean["identity"]) <= 0.1, t_mean
    # data processing inequality at estimator scale, against MI(X, Y)
    baseline = t_mean["identity"]
    for name, value in t_mean.items():
        assert value <= baseline + 0.05, f"{name}: {value} vs baseline {baseline}"
    print(f"\n[acceptance 4] PASS: feature MI {f_mean} ordered, "
          f"target MI {t_mean} within 0.1, DPI within 0.05 ({report['config']['runs']} runs)")


def test_criterion_5_example_metric_phenomena(tmp_path, capsys):
    at_six = table_report("selectors", capsys)["metrics"]
    sweep = table_report("sweep", capsys, str(tmp_path / "sweep"))["metrics"]
    nr = {s: entry["non_representativeness"] for s, entry in at_six.items()}
    d = {s: entry["diversity"] for s, entry in at_six.items()}
    assert nr["kmedoids"] < nr["mmd"] < nr["protodash"], nr
    assert d["protodash"] > d["mmd"] > d["kmedoids"], d
    diversity = {s: {row["n"]: row["diversity"] for row in rows} for s, rows in sweep.items()}
    assert all(rows[6] == d[s] for s, rows in diversity.items()), (diversity, d)
    at_one = {s: rows[1] for s, rows in diversity.items()}
    assert all(v == 0.0 for v in at_one.values()), at_one
    class_size = int(np.min(np.bincount(bench.synth_tabular(bench.CLUSTER_BENCH_SPEC, 0).labels)))
    at_full = {s: rows[class_size] for s, rows in diversity.items()}
    assert len(set(at_full.values())) == 1, at_full
    print(f"\n[acceptance 5] PASS: NR {nr} and D {d} ordered at n=6; "
          f"D(n=1)=0; D coincides at n={class_size}")


def test_criterion_6_perturbation_test_phenomenon(capsys):
    report = table_report("attr-tokens", capsys)
    cfg, metrics = report["config"], report["metrics"]
    ecs = {m: entry["effective_complexity"] for m, entry in metrics.items()}
    spread = max(ecs.values()) - min(ecs.values())
    assert spread >= 4, f"EC spread {spread} < 4 positions: {ecs}"
    # the table's perturbation test, then the same at four more seeds
    data, model = bench.token_benchmark(cfg["seed"])
    x_star = np.array(cfg["point"].split(","), dtype=float)
    attrs = {m: compute_attribution(m, model, x_star, steps=cfg["steps"]) for m in ecs}
    worst = 0.0
    for seed in range(5):
        scores = {m: perturbation_test(attrs[m], model, ecs[m], data, cfg["pt_n"], seed=seed)
                  for m in ecs}
        if seed == cfg["seed"]:
            assert scores == {m: entry["perturbation_test"] for m, entry in metrics.items()}
        gap = max(scores.values()) - min(scores.values())
        worst = max(worst, gap)
        assert gap <= 0.05, f"seed {seed}: PT spread {gap}: {scores}"
    print(f"\n[acceptance 6] PASS: ECs {ecs} (spread {spread}), "
          f"max PT spread {worst:.3f} over 5 seeds x {cfg['pt_n']} perturbations")


def test_criterion_7_oracle_equivalences(park):
    # k-medoids versus exhaustive search on small sets; n=1 is exact on any
    # instance, n=2 is checked on clustered instances (PAM's single-swap local
    # optimum provably equals the global one there, while adversarial uniform
    # instances can require a double swap)
    rng = np.random.default_rng(77)
    cases = []
    for size in (30, 50):
        cases.append((1, rng.uniform(0, 1, size=(size, 2))))
    for size in (40, 50):
        half = size // 2
        cases.append((2, np.vstack([rng.normal(0.0, 0.5, size=(half, 2)),
                                    rng.normal(6.0, 0.5, size=(size - half, 2))])))
    for n, X in cases:
        D = pairwise_distances(X)
        pam_cost = D[:, select_kmedoids(D, [n])[0]].min(axis=1).sum()
        best = min(D[:, list(combo)].min(axis=1).sum()
                   for combo in itertools.combinations(range(len(X)), n))
        assert pam_cost == pytest.approx(best, abs=1e-9)

    # greedy MMD steps match the exhaustive per-step argmin
    X = rng.normal(0, 1, size=(30, 2))
    bw = 0.8
    selected = select_mmd_critic(rbf_kernel(pairwise_distances(X), bw), 5)
    chosen = []
    for _ in range(5):
        best_j, best_val = None, np.inf
        for j in range(30):
            if j in chosen:
                continue
            val = mmd_squared(X[chosen + [j]], X, bw)
            if val < best_val - 1e-15:
                best_val, best_j = val, j
        chosen.append(best_j)
    assert selected == chosen

    # integrated-gradients completeness at 256 steps
    from xmeter.attr_methods import integrated_gradients

    worst_gap = 0.0
    for _ in range(50):
        x = rng.uniform(0, 1, size=6)
        b = rng.uniform(0, 1, size=6)
        attr = integrated_gradients(park, x, baseline=b, steps=256)
        gap = abs(attr.values.sum() - (park.predict(x) - park.predict(b)))
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-3

    # rank correlation against frozen reference values (incl. ties)
    from test_attr_metrics import SPEARMAN_CASES

    assert len(SPEARMAN_CASES) == 20
    for x, y, expected in SPEARMAN_CASES:
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    print(f"\n[acceptance 7] PASS: PAM==brute force, greedy MMD==per-step argmin, "
          f"IG completeness worst gap {worst_gap:.2e}, 20 rank-correlation cases exact")


CLI_RUNS = [
    ["attr-eval", "--model", "park", "--point", "0.24,0.48,0.56,0.99,0.68,0.86",
     "--methods", "saliency,random", "--n-mc", "500", "--seed", "7"],
    ["example-eval", "--dataset", "synth:preset=clusters,seed=0",
     "--selectors", "kmedoids,mmd", "--n", "4", "--seed", "7"],
    ["mi", "--dataset", "synth:n=300,features=4,classes=3,sep=5.0,noise=1,seed=0",
     "--runs", "2", "--seed", "7"],
]


def test_criterion_8_cli_determinism(tmp_path, capsys):
    for i, args in enumerate(CLI_RUNS):
        out_a = str(tmp_path / f"run{i}-a")
        out_b = str(tmp_path / f"run{i}-b")
        assert cli_main(args + ["--out", out_a]) == 0
        assert cli_main(args + ["--out", out_b]) == 0
        capsys.readouterr()
        a = Path(out_a + ".json").read_bytes()
        b = Path(out_b + ".json").read_bytes()
        assert a == b, f"JSON reports differ for {args[0]}"
        assert Path(out_a + ".csv").read_bytes() == Path(out_b + ".csv").read_bytes()
        json.loads(a)  # reports must stay valid JSON
    print("\n[acceptance 8] PASS: byte-identical JSON/CSV reruns for all three commands")
