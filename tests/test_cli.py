import base64
import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xmeter.park
from xmeter import bench, model_server, protocol
from xmeter.attr_methods import compute_attribution
from xmeter.cli import (
    BATCH_ROWS,
    COMMANDS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PROTOCOL,
    STOP_TIMEOUT,
    ExternalModel,
    ModelProtocolError,
    build_parser,
    load_dataset_csv,
    main,
    parse_dataset_spec,
)
from xmeter.core import ContractViolation, ModelHandle
from xmeter.handle import PROB_SUM_TOL
from conftest import park_value, readme_commands, readme_tables, reference_attribution_report

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
PARK_SERVER = [sys.executable, str(FIXTURES / "park_server.py")]
BUILTIN_SERVER = [sys.executable, "-m", "xmeter.model_server"]
ECHO_SERVER = BUILTIN_SERVER + ["--model", "echo", "--arity", "2"]
PARK_POINT = "0.24,0.48,0.56,0.99,0.68,0.86"

PARK_ARGS = ["attr-eval", "--model", "park",
             "--point", PARK_POINT,
             "--methods", "saliency,inpxgrad,intgrad,random",
             "--n-mc", "2000"]


# numbers a reply row can hold, some beyond the range of a label or a float,
# and other JSON values
REPLY_NUMBERS = st.one_of(st.integers(-1, 3), st.floats(-1, 2),
                          st.sampled_from([2 ** 63 - 1, 2 ** 63, 10 ** 400]))
ODD_VALUES = st.one_of(st.booleans(), st.none(), st.text(max_size=2),
                       st.floats(allow_nan=False), st.integers(-2 ** 70, 2 ** 70),
                       st.lists(REPLY_NUMBERS, max_size=2))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def scripted_server(info, predict='{"y": [0.0]}', gradient='{"error": "unsupported"}',
                    delay=0.0, batch=""):
    """Command of a child that answers every request of a kind with one fixed reply
    (see fixtures/scripted_server.py for ``delay`` and ``batch``)."""
    return [sys.executable, str(FIXTURES / "scripted_server.py"), info, predict, gradient,
            str(delay), batch]


def exec_spec(command):
    return "exec:" + shlex.join(command)


def packed(code, values):
    """The base64 text of ``values`` packed little-endian as struct ``code``
    ("d" float64, "q" int64): the binary row format, built without xmeter."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode()


class TestAttrEvalCommand:
    def test_park_table_cells(self, tmp_path, capsys):
        out = str(tmp_path / "park")
        code, _ = run_cli(PARK_ARGS + ["--out", out], capsys)
        assert code == EXIT_OK
        with open(out + ".csv", newline="") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert int(rows["saliency"]["complexity"]) == 4
        assert int(rows["saliency"]["non_sensitivity"]) == 0
        assert int(rows["random"]["complexity"]) == 6
        assert int(rows["random"]["non_sensitivity"]) == 2

    def test_missing_point_is_usage_error(self, capsys):
        # only the built-in benchmark models have a point of their own
        code = main(["attr-eval", "--model", "tree:3", "--dataset", "synth:n=60"])
        assert code == EXIT_CONFIG
        assert "needs --point" in capsys.readouterr().err

    def test_benchmark_models_default_to_their_own_point(self, tmp_path, capsys):
        # README's table commands explain park at PARK_POINT and a token model
        # at its chosen holdout row; the report's config names the point, and
        # giving it as --point prints the same bytes
        cases = [("attr-park", 3, [], xmeter.park.PARK_POINT)]
        for seed in (0, 1):
            data, model = bench.token_benchmark(seed)
            x_star = data.features[bench.choose_explained_point(data, model)]
            # (seed 1's restriction losses are all equal at 500 rows or fewer)
            cases.append(("attr-tokens", seed, ["--n-mc", "1000", "--pt-n", "50"],
                          x_star.tolist()))
        for name, seed, smaller, point in cases:
            args = readme_tables(seed, str(tmp_path))[name] + smaller
            given = ",".join(map(repr, point))
            code, out = run_cli(args, capsys)
            assert code == EXIT_OK
            assert json.loads(out)["config"]["point"] == given
            assert run_cli(args + ["--point", given], capsys) == (EXIT_OK, out)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run_cli(PARK_ARGS + ["--seed", "3", "--out", out_a], capsys)[0] == EXIT_OK
        assert run_cli(PARK_ARGS + ["--seed", "3", "--out", out_b], capsys)[0] == EXIT_OK
        assert Path(out_a + ".json").read_bytes() == Path(out_b + ".json").read_bytes()
        assert Path(out_a + ".csv").read_bytes() == Path(out_b + ".csv").read_bytes()

    def test_token_report_equals_the_unshared_reference(self, monkeypatch, capsys):
        # probs output and zero-one loss, with the perturbation test at each
        # method's effective complexity: sharing passes changes no byte
        from xmeter import attr_metrics

        args = ["attr-eval", "--model", "tokens:seed=0", "--dataset", "tokens:seed=0",
                "--methods", "saliency,inpxgrad,intgrad,random", "--epsilon", "0.02",
                "--pt", "ec", "--pt-n", "200", "--n-mc", "200"]
        shared = run_cli(args, capsys)
        assert shared[0] == EXIT_OK
        monkeypatch.setattr(attr_metrics, "attribution_report", reference_attribution_report)
        assert run_cli(args, capsys) == shared

    def test_csv_round_trips_against_json(self, tmp_path, capsys):
        out = str(tmp_path / "rt")
        run_cli(PARK_ARGS + ["--out", out], capsys)
        report = json.loads(Path(out + ".json").read_text())
        with open(out + ".csv", newline="") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        for method, row in rows.items():
            entry = report["metrics"][method]
            assert float(row["monotonicity"]) == entry["monotonicity"]
            assert int(row["effective_complexity"]) == entry["effective_complexity"]

    def test_attr_file_judging(self, tmp_path, capsys):
        attr_path = tmp_path / "attr.json"
        attr_path.write_text(json.dumps({
            "point": [0.24, 0.48, 0.56, 0.99, 0.68, 0.86],
            "values": [1.37, 1.37, 0.16, -0.53, 0.0, 0.0],
            "method": "external-method",
        }))
        out = str(tmp_path / "judged")
        code, _ = run_cli(["attr-eval", "--model", "park", "--attr-file", str(attr_path),
                           "--n-mc", "1000", "--out", out], capsys)
        assert code == EXIT_OK
        report = json.loads(Path(out + ".json").read_text())
        assert report["metrics"]["external-method"]["complexity"] == 4

    @pytest.mark.parametrize("point,message", [
        ([0.24, 0.48, 0.56, 0.99, 0.68], "point has 5 coordinates, model takes 6"),
        ("0.24,0.48,0.56,0.99,0.68,0.86", "must be lists of numbers"),
        ([0.24, 0.48, 0.56, 0.99, 0.68, "x"], "must be lists of numbers"),
    ], ids=["five-coordinates", "string", "string-coordinate"])
    def test_attr_file_point_is_checked(self, point, message, tmp_path, capsys):
        attr_path = tmp_path / "attr.json"
        attr_path.write_text(json.dumps({"point": point, "values": [1.0, 0.5, 0.2, 0.1, 0.0],
                                         "method": "m"}))
        code = main(["attr-eval", "--model", "park", "--attr-file", str(attr_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("point,method,name", [
        ("0.5,0.5,3.14,1e308,0.5,0.5", "inpxgrad", "input-x-gradient"),
        ("0,710,0,0,0,0", "intgrad", "integrated-gradients"),
    ], ids=["inpxgrad", "intgrad"])
    def test_overflowing_attribution_is_numeric_failure(self, point, method, name, capsys):
        # finite points and gradients whose product or path sum leaves the double range
        code = main(["attr-eval", "--model", "park", "--point", point, "--uniform", "0,1",
                     "--methods", method])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert f"the {name} attribution overflowed" in captured.err
        assert captured.out == ""

    def test_non_finite_attr_file_values_are_config_errors(self, tmp_path, capsys):
        attr_path = tmp_path / "attr.json"
        attr_path.write_text('{"point": [0.24, 0.48, 0.56, 0.99, 0.68, 0.86], '
                             '"values": [1e999, 1.37, 0.16, -0.53, 0.0, 0.0], "method": "m"}')
        code = main(["attr-eval", "--model", "park", "--attr-file", str(attr_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "attribution point/values must be finite" in captured.err

    def test_attr_file_with_extra_keys_rejected(self, tmp_path, capsys):
        attr_path = tmp_path / "attr.json"
        attr_path.write_text(json.dumps({"point": [0.0], "values": [1.0],
                                         "method": "m", "extra": 1}))
        code, _ = run_cli(["attr-eval", "--model", "park",
                           "--attr-file", str(attr_path)], capsys)
        assert code == EXIT_CONFIG

    def test_config_file_with_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "park", "unknown_key": 1}))
        code, _ = run_cli(["attr-eval", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG

    def test_config_file_supplies_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "park",
            "point": "0.24,0.48,0.56,0.99,0.68,0.86",
            "methods": "saliency",
            "n_mc": 500,
        }))
        out = str(tmp_path / "from-config")
        code, _ = run_cli(["attr-eval", "--config", str(cfg), "--out", out], capsys)
        assert code == EXIT_OK
        report = json.loads(Path(out + ".json").read_text())
        assert list(report["metrics"]) == ["saliency"]


    @pytest.mark.filterwarnings("ignore")  # the domain and overflow warnings are expected
    def test_overflowing_loss_is_numeric_failure(self, capsys):
        # finite predictions whose squared differences overflow to infinity
        code, out = run_cli(["attr-eval", "--model", "park", "--methods", "random",
                             "--point", "0.8,0.0,8.7e190,2.5e14,0.5,0.5", "--n-mc", "100"],
                            capsys)
        assert code == EXIT_NUMERIC
        assert out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_difference_step_beyond_the_range_fails_before_a_request(
            self, monkeypatch, capsys):
        sent = []
        send = ExternalModel._request
        monkeypatch.setattr(ExternalModel, "_request",
                            lambda self, payload: sent.append(payload["op"]) or send(self, payload))
        code = main(["attr-eval", "--model", exec_spec(ECHO_SERVER),
                     "--point", "1.7976931348623157e308,0.5", "--uniform", "0,1",
                     "--n-mc", "100", "--methods", "saliency"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert "finite-difference step at coordinate 0" in captured.err
        assert sent == ["info"]
        assert captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_squared_error_names_the_loss(self, capsys):
        code = main(["attr-eval", "--model", exec_spec(ECHO_SERVER), "--point", "1.7e308,0.5",
                     "--uniform", "0,1", "--n-mc", "100", "--methods", "saliency"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert "the squared-error loss overflowed" in captured.err
        assert captured.out == ""

    def test_token_benchmark_trained_once(self, monkeypatch, capsys):
        calls = []
        train = bench._train_softmax
        monkeypatch.setattr(bench, "_train_softmax",
                            lambda *a, **kw: calls.append(1) or train(*a, **kw))
        bench.token_benchmark.cache_clear()
        code, _ = run_cli(["attr-eval", "--model", "tokens:seed=0", "--dataset", "tokens:seed=0",
                           "--methods", "saliency", "--point", ",".join(["1"] * 30),
                           "--n-mc", "100"], capsys)
        assert code == EXIT_OK
        assert len(calls) == 1


class TestExampleEvalCommand:
    def test_selector_table(self, tmp_path, capsys):
        out = str(tmp_path / "ex")
        code, _ = run_cli(["example-eval", "--dataset", "synth:preset=clusters,seed=0",
                           "--model", "tree:5", "--n", "6", "--out", out], capsys)
        assert code == EXIT_OK
        with open(out + ".csv", newline="") as fh:
            rows = {r["selector"]: r for r in csv.DictReader(fh)}
        assert float(rows["kmedoids"]["non_representativeness"]) < \
            float(rows["protodash"]["non_representativeness"])

    def test_sweep_emits_requested_rows(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code, _ = run_cli(["example-eval", "--dataset", "synth:preset=clusters,seed=0",
                           "--selectors", "kmedoids,mmd", "--sweep", "1,2,3", "--out", out],
                          capsys)
        assert code == EXIT_OK
        with open(out + ".csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 2 selectors x 3 budgets
        n1 = [r for r in rows if r["n"] == "1"]
        assert all(float(r["diversity"]) == 0.0 for r in n1)

    def test_unlabeled_dataset_rejected(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        code, _ = run_cli(["example-eval", "--dataset", str(path)], capsys)
        assert code == EXIT_CONFIG

    def test_repeated_selector_or_budget_gives_a_row_per_occurrence(self, tmp_path, capsys):
        out = str(tmp_path / "repeat")
        code, _ = run_cli(["example-eval", "--dataset", "synth:preset=clusters,seed=0",
                           "--selectors", "mmd,kmedoids,mmd", "--sweep", "2,2,1",
                           "--out", out], capsys)
        assert code == EXIT_OK
        with open(out + ".csv", newline="") as fh:
            rows = [tuple(r.values()) for r in csv.DictReader(fh)]
        assert [r[:2] for r in rows] == [(s, n) for s in ("mmd", "kmedoids", "mmd")
                                         for n in ("2", "2", "1")]
        first = {}
        for row in rows:
            assert first.setdefault(row[:2], row) == row

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    @pytest.mark.parametrize("selector", ["kmedoids", "mmd", "protodash"])
    def test_overflowing_distances_are_numeric_failure(self, selector, scale, tmp_path,
                                                       capsys):
        # squared differences overflow: infinite distances, or a NaN kernel
        X = np.random.default_rng(0).normal(size=(60, 2)) * scale
        path = tmp_path / "huge.csv"
        path.write_text("a,b,label\n" + "".join(f"{a!r},{b!r},{i // 30}\n"
                                               for i, (a, b) in enumerate(X.tolist())))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["example-eval", "--dataset", str(path), "--model", "tree:3",
                         "--n", "2", "--selectors", selector])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert "class 0" in captured.err and captured.out == ""
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


    def test_tree_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # x0 is the row index and the label alternates: the tree is a chain 2,399 splits deep
        path = tmp_path / "stair.csv"
        path.write_text("x0,label\n" + "".join(f"{i},{i % 2}\n" for i in range(2400)))
        code = main(["example-eval", "--dataset", str(path), "--model", "tree:5000",
                     "--sweep", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["config"]["model"] == "tree:5000"


class TestMICommand:
    def test_extractor_table_and_determinism(self, tmp_path, capsys):
        args = ["mi", "--dataset", "synth:n=400,features=5,classes=3,sep=4.0,noise=1,seed=0",
                "--model", "tree:5", "--runs", "3", "--seed", "5"]
        out_a = str(tmp_path / "mi-a")
        out_b = str(tmp_path / "mi-b")
        assert run_cli(args + ["--out", out_a], capsys)[0] == EXIT_OK
        assert run_cli(args + ["--out", out_b], capsys)[0] == EXIT_OK
        assert Path(out_a + ".json").read_bytes() == Path(out_b + ".json").read_bytes()
        report = json.loads(Path(out_a + ".json").read_text())
        mis = {k: v["feature_mi"] for k, v in report["metrics"].items()}
        assert mis["identity"] == max(mis.values())
        assert mis["entropy"] < mis["identity"]

    def test_ood_count_above_the_width_names_the_option(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("a,b,label\n" + "".join(f"{i}.0,{i % 7}.0,{i % 2}\n" for i in range(30)))
        assert main(["mi", "--dataset", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: --ood-count must be in 1..2 (the dataset width), got 3\n"
        # without the random-ood extractor the count is not used
        assert main(["mi", "--dataset", str(path), "--extractors", "identity",
                     "--runs", "1"]) == EXIT_OK

    def test_needs_labels_or_model(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n" + "\n".join(f"{i}.0,{i + 1}.0" for i in range(30)) + "\n")
        code, _ = run_cli(["mi", "--dataset", str(path)], capsys)
        assert code == EXIT_CONFIG


class TestCutsOfExtremeValues:
    def test_a_column_whose_midpoints_overflow_still_splits(self, tmp_path, capsys):
        # x is 1e308 in class 0 and 1.7e308 in class 1: their sum overflows
        path = tmp_path / "extreme.csv"
        path.write_text("x,b,label\n" + "".join(
            f"{1e308 if i < 14 else 1.7e308!r},{float(i % 7)!r},{i // 14}\n" for i in range(28)))
        data = load_dataset_csv(path)
        tree = bench.fit_decision_tree(data, 3)
        assert tree.root.threshold == 1.35e308
        np.testing.assert_array_equal(tree.predict_proba_batch(data.features),
                                      np.eye(2)[data.labels])
        for argv in (["example-eval", "--model", "tree:3"],
                     ["mi", "--model", "tree:3", "--ood-count", "1"]):
            code = main(argv[:1] + ["--dataset", str(path)] + argv[1:])
            captured = capsys.readouterr()
            assert code == EXIT_OK, captured.err
            assert "NaN" not in captured.out and "Infinity" not in captured.out


class TestDatasetLoading:
    def test_csv_with_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n2.5,3.5,1\n")
        ds = load_dataset_csv(path)
        assert ds.n_features == 2
        assert list(ds.labels) == [0, 1]
        assert ds.feature_names == ("f0", "f1")

    def test_csv_without_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1\n0.5,1.5\n")
        ds = load_dataset_csv(path)
        assert ds.labels is None

    def test_missing_path_rejected(self):
        from xmeter.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_dataset_spec("/nonexistent/file.csv")

    def test_tokens_spec(self):
        ds = parse_dataset_spec("tokens:seed=1")
        assert ds.n_features == bench.TOKEN_VOCAB

    def test_quantized_synth_spec(self, capsys):
        spec = "synth:n=60,features=2,quantize=0.5,seed=0"
        ds = parse_dataset_spec(spec)
        np.testing.assert_array_equal(ds.features * 2.0, np.round(ds.features * 2.0))
        code, _ = run_cli(["example-eval", "--dataset", spec, "--n", "2"], capsys)
        assert code == EXIT_OK


BAD_INPUTS = {
    "synth-seed": ["mi", "--dataset", "synth:preset=mi,seed=x"],
    "synth-layout-unknown": ["example-eval", "--dataset", "synth:layout=zig", "--n", "2"],
    "synth-sep-inf": ["example-eval", "--dataset", "synth:sep=inf", "--n", "2"],
    "synth-sep-nan": ["example-eval", "--dataset", "synth:sep=nan", "--n", "2"],
    "synth-sep-not-a-number": ["example-eval", "--dataset", "synth:sep=x", "--n", "2"],
    "synth-quantize-nan": ["example-eval", "--dataset", "synth:quantize=nan", "--n", "2"],
    # a step so small that the features divided by it overflow
    "synth-quantize-underflow": ["example-eval", "--dataset", "synth:quantize=1e-320",
                                 "--n", "2"],
    "synth-n-not-an-integer": ["example-eval", "--dataset", "synth:n=x", "--n", "2"],
    "synth-n-exponent": ["example-eval", "--dataset", "synth:n=1e3", "--n", "2"],
    "tokens-dataset-seed": ["mi", "--dataset", "tokens:seed=x"],
    "tokens-model-seed": ["attr-eval", "--model", "tokens:seed=x", "--point", "0"],
    "tree-depth": ["example-eval", "--dataset", "synth:n=60,seed=0", "--model", "tree:x"],
    "sweep-bound": ["example-eval", "--dataset", "synth:n=60,seed=0", "--sweep", "1..x"],
    "sweep-empty-range": ["example-eval", "--dataset", "synth:n=60,seed=0", "--sweep", "5..1"],
    # a name list of only commas names nothing
    "methods-empty": ["attr-eval", "--model", "park", "--point", PARK_POINT, "--methods", ","],
    "selectors-empty": ["example-eval", "--dataset", "synth:n=60,seed=0", "--selectors", ","],
    "extractors-empty": ["mi", "--dataset", "synth:preset=mi,seed=0", "--extractors", ","],
    "pt-k": ["attr-eval", "--model", "park", "--point", PARK_POINT, "--methods", "random",
             "--dataset", "synth:n=60,features=6,seed=0", "--pt", "x", "--n-mc", "100"],
    "uniform-one-value": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                          "--methods", "random", "--uniform", "0"],
    "config-json": ["attr-eval", "--config", "{malformed}"],
    "zero-runs": ["mi", "--dataset", "synth:preset=mi,seed=0", "--runs", "0"],
    "ood-count-above-width": ["mi", "--dataset", b"a,b,label\n0,1,0\n1,0,1\n"],
    # a dict stands for a --config file holding it
    "config-int-string": ["attr-eval", "--config",
                          {"model": "park", "point": PARK_POINT, "n_mc": "x"}],
    "config-int-fraction": ["attr-eval", "--config",
                            {"model": "park", "point": PARK_POINT, "n_mc": 300.7}],
    "config-int-bool": ["mi", "--config", {"dataset": "synth:preset=mi,seed=0", "seed": True}],
    "config-float-bool": ["attr-eval", "--config",
                          {"model": "park", "point": PARK_POINT, "epsilon": True}],
    "config-string-list": ["attr-eval", "--config",
                           {"model": "park", "point": [0.24, 0.48, 0.56, 0.99, 0.68, 0.86]}],
    "config-string-int": ["mi", "--config", {"dataset": 5}],
    # non-finite floats, negative seeds and missing gradients
    "uniform-inf": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                    "--uniform", "0,inf"],
    "uniform-range-overflow": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                               "--methods", "random", "--uniform=-1e308,1e308"],
    "point-nan": ["attr-eval", "--model", "park", "--point", "0.2,0.4,0.5,0.9,0.6,nan"],
    "tree-gradient": ["attr-eval", "--model", "tree:2", "--dataset", "synth:n=60",
                      "--point", "0,0"],
    "bandwidth-nan": ["example-eval", "--dataset", "synth:n=60", "--bandwidth", "nan"],
    "bandwidth-inf": ["example-eval", "--dataset", "synth:n=60", "--bandwidth", "inf"],
    "bandwidth-underflow": ["example-eval", "--dataset", "synth:n=60", "--bandwidth", "1e-190"],
    "bandwidth-overflow": ["example-eval", "--dataset", "synth:n=60", "--bandwidth", "1e200"],
    "epsilon-inf": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                    "--epsilon", "inf"],
    "attr-seed-negative": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                           "--seed", "-1"],
    "mi-seed-negative": ["mi", "--dataset", "synth:n=60", "--seed", "-1"],
    "synth-seed-negative": ["mi", "--dataset", "synth:n=60,seed=-1"],
    "tokens-seed-negative": ["mi", "--dataset", "tokens:seed=-1"],
    "config-epsilon-inf": ["attr-eval", "--config",
                           {"model": "park", "point": PARK_POINT, "epsilon": float("inf")}],
    "config-bandwidth-nan": ["example-eval", "--config",
                             {"dataset": "synth:n=60", "bandwidth": float("nan")}],
    "config-float-huge-int": ["attr-eval", "--config",
                              {"model": "park", "point": PARK_POINT, "epsilon": 10 ** 400}],
    # bytes stand for a file holding them; an existing directory or file
    # stands where a file or a directory is expected
    "dataset-row-width": ["example-eval", "--dataset", b"a,b,label\n1,2,0\n1,0\n"],
    "dataset-not-utf8": ["example-eval", "--dataset", b"a,label\n\xff,0\n"],
    "dataset-label-without-rows": ["example-eval", "--dataset", b"a,label\n0,0\n1,2\n"],
    "dataset-directory": ["example-eval", "--dataset", str(FIXTURES)],
    "config-directory": ["attr-eval", "--config", str(FIXTURES)],
    "attr-file-directory": ["attr-eval", "--model", "park", "--attr-file", str(FIXTURES)],
    # an exec: spec that names no command, or that shlex cannot split
    "exec-empty": ["attr-eval", "--model", "exec:", "--point", PARK_POINT],
    "exec-blank": ["attr-eval", "--model", "exec:   ", "--point", PARK_POINT],
    "exec-unterminated-quote": ["attr-eval", "--model", 'exec:"unterminated',
                                "--point", PARK_POINT],
    "out-parent-is-a-file": ["example-eval", "--dataset", "synth:n=60,seed=0",
                             "--out", str(FIXTURES / "park_server.py" / "report")],
    "loss-unknown": ["attr-eval", "--model", "park", "--point", PARK_POINT, "--loss", "x"],
    # sizes whose matrix numpy refuses without allocating it, and a budget
    # range whose list would be that long
    "n-mc-too-big": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                     "--methods", "random", "--n-mc", str(10 ** 18)],
    "n-mc-beyond-memory": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                           "--methods", "random", "--n-mc", str(10 ** 17)],
    "pt-n-too-big": ["attr-eval", "--model", "tokens:seed=0", "--dataset", "tokens:seed=0",
                     "--point", ",".join(["1"] * 30), "--methods", "random",
                     "--pt", "1", "--pt-n", str(10 ** 18)],
    "synth-n-too-big": ["example-eval", "--dataset", f"synth:n={10 ** 20}"],
    "synth-features-too-big": ["example-eval", "--dataset", f"synth:n=60,features={10 ** 20}"],
    "sweep-end-too-big": ["example-eval", "--dataset", "synth:n=60", "--sweep", f"1..{10 ** 20}"],
    # one class whose m x m distance matrix (182 TiB) numpy refuses
    "class-beyond-memory": ["example-eval",
                            "--dataset", "synth:n=5000000,features=1,classes=1"],
    # counts of model calls or estimates above their limits
    "steps-above-limit": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                          "--methods", "intgrad", "--steps", "100001"],
    "runs-above-limit": ["mi", "--dataset", "synth:preset=mi,seed=0", "--runs", "10001"],
}


# synth specs refused for their size before any row is generated
NOT_GENERATED = {"synth-n-too-big", "synth-features-too-big", "class-beyond-memory"}

# the option, or the synth key, that the error message of a size or work
# limit or of a refused synth value names
NAMED_OPTION = {"n-mc-too-big": "--n-mc", "n-mc-beyond-memory": "--n-mc",
                "pt-n-too-big": "--pt-n", "class-beyond-memory": "--dataset",
                "steps-above-limit": "--steps", "runs-above-limit": "--runs",
                "synth-layout-unknown": "synth spec: layout must be 'spread' or 'ring'",
                "synth-sep-inf": "synth spec: separation must be finite",
                "synth-sep-nan": "synth spec: separation must be finite",
                "synth-sep-not-a-number": "synth sep must be a number, got 'x'",
                "synth-quantize-nan": "synth spec: quantize_step must be finite",
                "synth-quantize-underflow": "synth spec: quantize_step 1e-320 is too small",
                "synth-n-not-an-integer": "synth n must be an integer, got 'x'",
                "synth-n-exponent": "synth n must be an integer, got '1e3'"}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(name, tmp_path, capsys, monkeypatch):
    generated = []
    synth = bench.synth_tabular
    monkeypatch.setattr(bench, "synth_tabular", lambda *a: generated.append(a) or synth(*a))
    args = list(BAD_INPUTS[name])
    if name == "config-json":
        path = tmp_path / "cfg.json"
        path.write_text('{"model": "park",')
        args[args.index("{malformed}")] = str(path)
    for i, arg in enumerate(args):
        if isinstance(arg, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(arg))
            args[i] = str(path)
        elif isinstance(arg, bytes):
            path = tmp_path / "data.csv"
            path.write_bytes(arg)
            args[i] = str(path)
    code = main(args)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "Traceback" not in captured.err
    assert NAMED_OPTION.get(name, "") in captured.err
    assert captured.out == ""
    assert not (name in NOT_GENERATED and generated)


# The property below draws commands from these. Every value is one argparse
# accepts, so each outcome comes from xmeter itself. Half the commands use
# only sane values; the other half mix in wild ones (NaN, infinities, huge or
# negative numbers, unknown names).
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# sizes at or beyond the int64 range, which numpy refuses without allocating
_HUGE = st.sampled_from([10 ** 19, 2 ** 63, 10 ** 20]).map(str)


def _csv(values):
    return ",".join(str(v) for v in values)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _subset(names):
    return st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True).map(_csv)


@st.composite
def _commands(draw):
    wild = draw(st.booleans())

    def choose(sane, strange):
        return st.one_of(sane, strange) if wild else sane

    def pick(sane, strange):
        return draw(choose(sane, strange))

    def options(spec):
        chosen = draw(st.lists(st.sampled_from(sorted(spec)), unique=True))
        return [f"--{name}={pick(*spec[name])}" for name in sorted(chosen)]

    wild_float = _ANY_FLOAT.map(repr)
    seed = (_ints(0, 3), _ints(-2, -1))
    command = draw(st.sampled_from(["attr-eval", "example-eval", "mi"]))
    models = ["tree", "tokens:seed=0"] + (["park"] if command == "attr-eval" else [])
    model = pick(st.sampled_from(models), st.sampled_from(["park", "tree:x", "tree:-1", "linear"]))
    # a dataset that fits the model, unless the command is wild
    kinds = {"park": ["synth6", "none"], "tokens:seed=0": ["tokens"]}.get(
        model, ["synth", "clusters", "tokens"])
    kind = draw(st.sampled_from(kinds + (["synth", "none"] if wild else [])))
    width = {"synth6": 6, "clusters": 2, "tokens": 30}.get(kind) or draw(st.integers(1, 4))
    dataset = {"clusters": f"synth:preset=clusters,seed={pick(*seed)}",
               "tokens": "tokens:seed=0", "none": None}.get(kind)
    if kind.startswith("synth"):
        keys = options({
            "n": (_ints(20, 60), st.one_of(_ints(-1, 19), _HUGE)),
            "classes": (_ints(1, 3), _ints(0, 0)),
            "sep": (_floats(0, 5), wild_float), "noise": (_ints(0, width - 1), _ints(-1, 7)),
            "layout": (st.just("spread"), st.sampled_from(["ring", "x"])),
            "quantize": (_floats(0.1, 2), wild_float), "seed": seed})
        features = pick(st.just(str(width)), _HUGE)
        dataset = "synth:" + _csv([f"features={features}"] + [k[2:] for k in keys])
    argv = [command] + ([f"--dataset={dataset}"] if dataset else [])
    if command == "attr-eval":
        arity = {"park": 6, "tokens:seed=0": 30}.get(model, width)
        coordinate = choose(st.floats(0, 1, exclude_max=True), _ANY_FLOAT)
        point = _csv(draw(st.lists(coordinate, min_size=arity, max_size=arity)))
        n_mc = pick(_ints(100, 150), st.one_of(_ints(1, 99), _HUGE))
        methods = ["random"] if model == "tree" else ["saliency", "inpxgrad", "intgrad", "random"]
        argv += [f"--model={model}", f"--point={point}", f"--n-mc={n_mc}",
                 f"--methods={pick(_subset(methods), st.just('saliency,x'))}"]
        argv += options({
            "loss": (st.sampled_from(["zero-one", "squared-error", "cross-entropy"]),) * 2,
            "epsilon": (_floats(1e-4, 1), wild_float),
            "zero-tolerance": (_floats(0, 1e-3), wild_float),
            "steps": (_ints(1, 4), st.one_of(_ints(-1, 0), _ints(100_001, 10 ** 9), _HUGE)),
            "uniform": (st.just("-1,2"), st.lists(wild_float, max_size=3).map(_csv)),
            "pt": (st.one_of(st.just("ec"), _ints(1, arity)), _ints(-1, 40)),
            "pt-n": (_ints(1, 30), st.one_of(_ints(-1, 0), _HUGE)), "seed": seed})
    elif command == "example-eval":
        argv += [f"--model={model}"] if draw(st.booleans()) else []
        argv += options({
            "selectors": (_subset(["kmedoids", "mmd", "protodash"]), st.just("x")),
            "n": (_ints(1, 4), _ints(-1, 0)), "sweep": (st.just("1..3"), st.one_of(st.just("2,0"), _HUGE.map("1..{}".format))),
            "bandwidth": (_floats(0.1, 5), wild_float), "seed": seed})
    else:
        argv += [f"--model={model}"] if draw(st.booleans()) else []
        runs = pick(st.just("1"), st.one_of(_ints(-1, 0), _ints(10_001, 10 ** 9), _HUGE))
        argv += [f"--runs={runs}"] + options({
            "extractors": (_subset(["identity", "random-ood", "entropy"]), st.just("x")),
            "k": (_ints(1, 4), _ints(-1, 0)), "ood-count": (_ints(1, width), _ints(-1, 40)),
            "ood-value": (_floats(-20, 20), wild_float), "max-depth": (_ints(1, 3), _ints(-1, 0)),
            "seed": seed})
    return argv


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_commands())
def test_generated_commands_keep_the_exit_code_contract(argv):
    """Any spec and option string: a documented exit code, and no non-finite JSON token."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PROTOCOL, EXIT_NUMERIC), (code, err.getvalue())
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()


# the least each command needs, cheap enough to run at every default
BARE_COMMANDS = {"attr-eval": ["--model", "park", "--point", PARK_POINT],
                 "example-eval": ["--dataset", "synth:n=60,seed=0"],
                 "mi": ["--dataset", "synth:n=60,features=3,seed=0"]}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_option_table_gives_the_report_config_and_the_defaults(command, tmp_path, capsys):
    options = COMMANDS[command][2]
    code, bare = run_cli([command] + BARE_COMMANDS[command], capsys)
    assert code == EXIT_OK
    assert set(json.loads(bare)["config"]) == set(options) - {"out"}
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({key: default for key, (_, default, _) in options.items()
                               if default is not None}))
    assert run_cli([command] + BARE_COMMANDS[command] + ["--config", str(cfg)],
                   capsys) == (EXIT_OK, bare)


def test_readme_lists_the_integer_and_real_options():
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    for word, kind in (("integer", int), ("real", float)):
        listed = re.search(rf"an? {word} option \(([^)]*)\)", readme).group(1)
        assert set(re.findall(r"`(\w+)`", listed)) == {
            key for _, _, options in COMMANDS.values()
            for key, (option_kind, _, _) in options.items() if option_kind is kind}


def test_readme_commands_parse(tmp_path):
    # every xmeter line of README's code blocks, usage examples and tables
    # alike, names only options the parser has
    commands = readme_commands(0, str(tmp_path / "out"))
    assert len(commands) >= 10
    for _, argv in commands:
        assert build_parser().parse_args(argv).command in COMMANDS, argv


# The handshake flags of the reference server that each request path keeps.
PATH_FLAGS = {"per-row": set(), "batch": {"batch", "gradient_batch"},
              "binary": {"batch", "binary", "gradient_batch"},
              "binary-row-gradients": {"batch", "binary"}}


def park_run_requests(monkeypatch, capsys, path: str):
    """The report of a park attr-eval over the reference server, its requests
    counted by op, and the fields they carried. ``path`` drops handshake flags
    that ExternalModel read (PATH_FLAGS): "per-row" drops them all, which makes
    ExternalModel send one predict or gradient request per row, "batch" drops
    binary, which makes it send the rows of predict_batch and gradient requests
    as JSON lists, and "binary-row-gradients" drops gradient_batch, which makes
    it send one gradient request per row."""
    requests, fields = {}, set()
    send, handshake = ExternalModel._request, ExternalModel._handshake
    dropped = PATH_FLAGS["binary"] - PATH_FLAGS[path]

    def counting(self, payload):
        requests[payload["op"]] = requests.get(payload["op"], 0) + 1
        fields.update(payload)
        return send(self, payload)

    with monkeypatch.context() as patch:
        patch.setattr(ExternalModel, "_request", counting)
        patch.setattr(ExternalModel, "_handshake",
                      lambda self: {k: v for k, v in handshake(self).items()
                                    if k not in dropped})
        server = exec_spec(BUILTIN_SERVER + ["--model", "park"])
        code, out = run_cli(["attr-eval", "--model", server,
                             "--methods", "saliency,inpxgrad,intgrad,random",
                             "--point", PARK_POINT, "--uniform", "0,1", "--n-mc", "100"], capsys)
    assert code == EXIT_OK
    assert fields - {"op", "x"} == {"per-row": set(), "batch": {"X"}, "binary": {"Xb"},
                                    "binary-row-gradients": {"Xb"}}[path]
    return out, requests


class TestExternalModelAdapter:
    def test_info_round_trip_on_echo_fixture(self):
        with ExternalModel(BUILTIN_SERVER + ["--model", "echo", "--arity", "7"]) as child:
            assert child.info == {"arity": 7, "output": "scalar", "gradient": False,
                                  "batch": True, "binary": True}
            handle = child.as_model_handle()
            assert handle.arity == 7
            assert handle.gradient_capability == "finite-difference"
            assert handle.predict([3.0] + [0.0] * 6) == 3.0

    def test_park_fixture_matches_builtin(self, park):
        rng = np.random.default_rng(0)
        with ExternalModel(PARK_SERVER) as child:
            handle = child.as_model_handle()
            assert handle.arity == 6
            for _ in range(100):
                x = rng.uniform(0, 1, size=6)
                assert handle.predict(x) == pytest.approx(park.predict(x), abs=1e-9)
            (g,) = handle.gradient_fn(np.asarray([xmeter.park.PARK_POINT]), None)
            assert g == pytest.approx(xmeter.park.park_gradient(xmeter.park.PARK_POINT), abs=1e-9)

    def test_exec_intgrad_explains_the_class_of_the_explained_point(self):
        # along the path from the baseline, the softmax's own class changes;
        # every gradient request names x*'s class, as the in-process call does
        data, model = bench.token_benchmark(0)
        x = data.features[2]
        server = [sys.executable, "-c", "from xmeter import bench, model_server; "
                  "model_server.serve(bench.token_benchmark(0)[1])"]
        with ExternalModel(server) as child:
            remote = compute_attribution("intgrad", child.as_model_handle(), x).values
        local = compute_attribution("intgrad", model, x).values
        assert np.array_equal(remote.view(np.uint64), local.view(np.uint64))

    def test_gradient_batch_changes_the_requests_not_the_report(self, monkeypatch, capsys):
        # the token classifier served in a child that advertises gradient_batch,
        # and in one that withholds it: one report, from 3 gradient requests (one
        # per method) or 66 (one per gradient row), each naming the point's class
        data, model = bench.token_benchmark(0)
        x = data.features[bench.choose_explained_point(data, model)]
        point = ",".join(map(repr, x.tolist()))
        serve = ("import os\nfrom xmeter import bench, model_server\n"
                 "answer = model_server._answer\n"
                 "if os.environ.get('WITHHOLD_GRADIENT_BATCH'):\n"
                 "    model_server._answer = lambda m, line: {\n"
                 "        k: v for k, v in answer(m, line).items() if k != 'gradient_batch'}\n"
                 "model_server.serve(bench.token_benchmark(0)[1])\n")
        argv = ["attr-eval", "--dataset", "tokens:seed=0", "--point", point,
                "--methods", "saliency,inpxgrad,intgrad", "--n-mc", "100"]
        send = ExternalModel._request
        reports, gradients = [], []
        for withhold in ("", "1"):
            requests = []
            with monkeypatch.context() as patch:
                patch.setenv("WITHHOLD_GRADIENT_BATCH", withhold)
                patch.setattr(ExternalModel, "_request",
                              lambda self, r: requests.append(r) or send(self, r))
                code, out = run_cli(argv + ["--model", exec_spec([sys.executable, "-c", serve])],
                                    capsys)
            assert code == EXIT_OK
            reports.append(out)
            gradients.append([r for r in requests if r["op"] == "gradient"])
        assert reports[0] == reports[1]
        assert [len(g) for g in gradients] == [3, 1 + 1 + 64]
        assert {"X", "Xb"} & set(gradients[0][2]) == {"Xb"}
        target = int(model.predict_labels(x[None])[0])
        assert {r["target"] for g in gradients for r in g} == {target}
        _, in_process = run_cli(argv + ["--model", "tokens:seed=0"], capsys)
        assert json.loads(in_process)["metrics"] == json.loads(reports[0])["metrics"]

    def test_garbage_child_raises_protocol_error(self):
        with pytest.raises(ModelProtocolError):
            ExternalModel([sys.executable, "-c", "print('garbage'); import time; time.sleep(5)"],
                          timeout=5.0)

    def test_exiting_child_raises_protocol_error(self):
        with pytest.raises(ModelProtocolError):
            ExternalModel([sys.executable, "-c", "pass"], timeout=5.0)

    def test_timeout_raises_protocol_error(self):
        with pytest.raises(ModelProtocolError):
            ExternalModel([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5)

    def test_unsupported_gradient_response(self):
        with ExternalModel(BUILTIN_SERVER + ["--model", "echo", "--arity", "2"]) as child:
            with pytest.raises(ModelProtocolError):
                child.gradient([0.0, 0.0])

    def test_declared_gradient_refused_is_protocol_error(self, capsys):
        server = scripted_server('{"arity": 3, "output": "scalar", "gradient": true}')
        code, _ = run_cli(["attr-eval", "--model", exec_spec(server),
                           "--point", "0.1,0.2,0.3", "--methods", "saliency",
                           "--uniform", "0,1", "--n-mc", "200"], capsys)
        assert code == EXIT_PROTOCOL

    def test_late_reply_is_not_paired_with_the_next_request(self):
        server = scripted_server('{"arity": 1, "output": "scalar", "gradient": false}',
                                 predict='{"y": [1.0]}', delay=1.0)
        with ExternalModel(server, timeout=0.5) as child:
            with pytest.raises(ModelProtocolError):
                child.predict([0.0])
            time.sleep(0.7)  # a child still running has written its late reply by now
            with pytest.raises(ModelProtocolError):
                child.predict([0.0])

    @pytest.mark.parametrize("output,predict,in_process", [
        ("probs", '{"y": [0.25, 0.75]}', lambda X: np.tile([0.25, 0.75], (len(X), 1))),
        ("label", '{"y": [1]}', lambda X: np.ones(len(X), dtype=int)),
        ("scalar", '{"y": [0.5]}', lambda X: np.full(len(X), 0.5)),
    ])
    @pytest.mark.parametrize("binary", [False, True])
    def test_zero_rows_predict_the_in_process_shape_without_a_request(
            self, output, predict, in_process, binary):
        info = (f'{{"arity": 2, "output": "{output}", "gradient": false, "batch": true, '
                f'"binary": {str(binary).lower()}}}')
        local = ModelHandle(2, output, in_process)
        with ExternalModel(scripted_server(info, predict=predict)) as child:
            handle = child.as_model_handle()
            np.testing.assert_array_equal(handle.predict_batch(np.zeros((3, 2))),
                                          local.predict_batch(np.zeros((3, 2))))
            sent = []
            child.predict = lambda X: sent.append(len(X))
            empty = handle.predict_batch(np.zeros((0, 2)))
            assert sent == []
        expected = local.predict_batch(np.zeros((0, 2)))
        assert (empty.shape, empty.dtype.kind) == (expected.shape, expected.dtype.kind)

    def test_zero_probs_rows_before_any_reply_have_no_classes(self):
        info = '{"arity": 2, "output": "probs", "gradient": false, "batch": true}'
        with ExternalModel(scripted_server(info)) as child:
            assert child.as_model_handle().predict_batch(np.zeros((0, 2))).shape == (0, 0)

    @pytest.mark.parametrize("output,predict,gradient", [
        ("scalar", '{"y": [NaN]}', "false"), ("scalar", '{"y": [0.5]}', "true"),
        ("probs", '{"y": [Infinity, 0.0]}', "false"), ("probs", '{"y": [NaN, 1.0]}', "false"),
    ], ids=["predict", "gradient", "probs-inf", "probs-nan"])
    def test_non_finite_output_is_numeric_failure(self, output, predict, gradient, capsys):
        # a non-finite probability is numeric too, not a row that fails to sum to 1
        server = scripted_server(f'{{"arity": 3, "output": "{output}", "gradient": {gradient}}}',
                                 predict=predict, gradient='{"g": [NaN, 0.0, 0.0]}')
        code, out = run_cli(["attr-eval", "--model", exec_spec(server),
                             "--point", "0.1,0.2,0.3", "--methods", "saliency",
                             "--uniform", "0,1", "--n-mc", "200"], capsys)
        assert code == EXIT_NUMERIC
        assert "NaN" not in out

    @pytest.mark.parametrize("batch", ["false", "true"], ids=["row", "batch"])
    def test_non_finite_label_reply_is_numeric_failure(self, batch, capsys):
        # as a label model's NaN is in process, not a malformed integer
        server = scripted_server('{"arity": 2, "output": "label", "gradient": false, '
                                 f'"batch": {batch}}}', predict='{"y": [1]}\n{"y": [NaN]}')
        code = main(["attr-eval", "--model", exec_spec(server), "--point", "0.1,0.2",
                     "--methods", "random", "--uniform", "0,1", "--n-mc", "100"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert "non-finite output" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("batch", ["false", "true"], ids=["row", "batch"])
    def test_whole_float_label_reply_is_its_class(self, batch, capsys):
        # as a label model's 1.0 is in process
        reports = []
        labels = [1, 0, 0, 2, 1, 1, 0]
        for whole in (int, float):
            replies = "\n".join(json.dumps({"y": [whole(y)]}) for y in labels)
            server = scripted_server('{"arity": 2, "output": "label", "gradient": false, '
                                     f'"batch": {batch}}}', predict=replies)
            code, out = run_cli(["attr-eval", "--model", exec_spec(server), "--point", "0.1,0.2",
                                 "--methods", "random", "--uniform", "0,1", "--n-mc", "100"],
                                capsys)
            assert code == EXIT_OK
            reports.append(json.loads(out)["metrics"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("output,predict,gradient,batch", [
        ("scalar", '{"y": ["a"]}', "false", None),
        ("scalar", '{"y": [null]}', "false", None),
        ("scalar", '{"y": [true]}', "false", None),
        ("scalar", '{"y": [0.5, 0.5]}', "false", None),
        ("scalar", '{"y": [%s]}' % ("9" * 400), "false", None),
        ("scalar", '{"y": [0.5]}', "true", None),
        ("label", '{"y": [1.7]}', "false", None),
        ("label", '{"y": [-1]}', "false", None),
        ("label", '{"y": [1e19]}', "false", None),  # a whole float int64 cannot hold
        ("label", '{"y": [%d]}' % 2 ** 63, "false", None),
        ("probs", '{"y": [[0.5, 0.5]]}', "false", None),
        ("probs", '{"y": [0.5, 0.5]}\n{"y": [0.2, 0.3, 0.5]}', "false", None),
        ("probs", '{"y": [0.2, 0.2]}', "false", None),
        ("probs", '{"y": [-0.5, 1.5]}', "false", None),
        # (the handshake's batch flag, the fixture's BATCH argument)
        ("scalar", '{"y": [0.5]}', "false", ("true", "short")),
        ("scalar", '{"y": [0.5]}', "false", ("true", '{"y": {"0": [0.5]}}')),
        ("scalar", '{"y": [0.5]}\n' * 4 + '{"y": ["a"]}', "false", ("true", "")),
        ("label", '{"y": [1]}\n' * 4 + '{"y": [1.7]}', "false", ("true", "")),
        ("probs", '{"y": [0.5, 0.5]}\n' * 4 + '{"y": [0.2, 0.2]}', "false", ("true", "")),
        ("scalar", '{"y": [0.5]}', "false", ('"yes"', "")),
    ], ids=["string", "null", "bool", "two-scalars", "huge-integer", "gradient-string",
            "label-fraction", "label-negative", "label-whole-float", "label-beyond-int64",
            "probs-nested", "probs-ragged",
            "probs-sum", "probs-negative", "batch-row-missing", "batch-not-a-list",
            "batch-later-string", "batch-later-label-fraction", "batch-later-probs-sum",
            "batch-flag-string"])
    def test_reply_of_the_wrong_type_is_protocol_error(self, output, predict, gradient,
                                                       batch, capsys):
        flag, batch_reply = batch or (None, "")
        server = scripted_server(
            f'{{"arity": 2, "output": "{output}", "gradient": {gradient}'
            + (f', "batch": {flag}}}' if flag else "}"),
            predict=predict, gradient='{"g": ["a", 1]}', batch=batch_reply)
        code = main(["attr-eval", "--model", exec_spec(server), "--point", "0.1,0.2",
                     "--methods", "saliency" if gradient == "true" else "random",
                     "--uniform", "0,1", "--n-mc", "100"])
        captured = capsys.readouterr()
        assert code == EXIT_PROTOCOL
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["scalar", "label", "probs"]), st.data())
    def test_one_conversion_accepts_what_the_row_by_row_check_accepts(self, kind, data):
        # rows of one width, then at times one odd row or entry
        width = data.draw(st.integers(1, 3))
        ys = data.draw(st.lists(st.lists(REPLY_NUMBERS, min_size=width, max_size=width),
                                min_size=1, max_size=4))
        if data.draw(st.booleans()):
            i, odd = data.draw(st.integers(0, len(ys) - 1)), data.draw(ODD_VALUES)
            if data.draw(st.booleans()):
                ys[i] = odd
            else:
                ys[i][data.draw(st.integers(0, width - 1))] = odd
        # the number rule converts the rows at once exactly when each row
        # passes it alone and all rows share one width
        dtype = protocol.reply_dtype(kind)
        alone = [protocol.number_matrix([y], dtype) for y in ys]
        rejected = [i for i, row in enumerate(alone) if row is None]
        widths = {len(y) for y in ys} if not rejected else set()
        at_once = protocol.number_matrix(ys, dtype)
        assert (at_once is None) == bool(rejected or len(widths) > 1)
        if at_once is not None:
            stacked = np.concatenate(alone)
            assert at_once.dtype == stacked.dtype
            assert np.array_equal(at_once, stacked)
        # the reply rule names the first row that is rejected alone or whose
        # width is not the kind's (row 0's for probs); rows of one wrong width
        # are refused by their count
        expected = len(ys[0]) if kind == "probs" and alone[0] is not None else 1
        faulty = [i for i, (y, row) in enumerate(zip(ys, alone))
                  if row is None or len(y) != expected]
        read = lambda: protocol.read_reply("batch", {"y": ys}, kind, len(ys))  # noqa: E731
        floats = protocol.number_matrix(ys, protocol.FLOAT64, 1) if kind == "label" else None
        if at_once is None and floats is not None:
            # labels that only the float rule reads pass the output rule as in process
            model = ModelHandle(1, "label", lambda X: floats[:, 0])
            expected = outcome(lambda: model.predict_batch(np.zeros((len(ys), 1))))
            assert outcome(read) == expected
            if expected[0] == "ok":
                assert np.array_equal(read(), floats[:, 0]) and read().dtype == np.int64
        elif at_once is None:
            with pytest.raises(ModelProtocolError, match=rf"at row {faulty[0]}: "):
                read()
        elif faulty:
            with pytest.raises(ModelProtocolError,
                               match=rf"returned {at_once.size} {kind} values in 'y' for"):
                read()
        else:  # well formed: the stacked rows, unless a value breaks the value rule
            try:
                Y = read()
            except (ModelProtocolError, FloatingPointError) as exc:
                assert re.search("non-finite output|negative class|sum to 1", str(exc))
            else:
                assert np.array_equal(Y, stacked if kind == "probs" else stacked[:, 0])

    def test_batch_reply_error_names_the_row(self):
        server = scripted_server('{"arity": 1, "output": "scalar", "gradient": false, '
                                 '"batch": true}',
                                 predict='{"y": [0.5]}\n' * 3 + '{"y": ["a"]}')
        with ExternalModel(server) as child:
            with pytest.raises(ModelProtocolError, match=r"at row 3: \['a'\] \(command"):
                child.predict(np.zeros((5, 1)))

    @pytest.mark.parametrize("info,point", [
        ('{"arity": true, "output": "scalar", "gradient": false, "batch": true}', "0.5"),
        ('{"arity": 2, "output": "scalar", "gradient": false, "batch": true, '
         '"binary": "yes"}', "0.1,0.2"),
        ('{"arity": 2, "output": "scalar", "gradient": false, "batch": true, '
         '"binary": 1}', "0.1,0.2"),
        ('{"arity": 2, "output": "scalar", "gradient": false, "binary": true}', "0.1,0.2"),
        ('{"arity": 2, "output": "scalar", "gradient": false, "batch": false, '
         '"binary": true}', "0.1,0.2"),
        ('{"arity": 2, "output": "scalar", "gradient": true, "batch": true, '
         '"gradient_batch": "yes"}', "0.1,0.2"),
        ('{"arity": 2, "output": "scalar", "gradient": true, "batch": true, '
         '"gradient_batch": null}', "0.1,0.2"),
        ('{"arity": 2, "output": "scalar", "gradient": false, "batch": true, '
         '"gradient_batch": true}', "0.1,0.2"),
    ], ids=["arity-bool", "binary-string", "binary-int", "binary-without-batch",
            "binary-with-batch-false", "gradient-batch-string", "gradient-batch-null",
            "gradient-batch-without-gradient"])
    def test_bad_handshake_is_protocol_error(self, info, point, capsys):
        code = main(["attr-eval", "--model", exec_spec(scripted_server(info)),
                     "--point", point, "--methods", "random", "--uniform", "0,1"])
        captured = capsys.readouterr()
        assert code == EXIT_PROTOCOL
        assert "handshake" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("output,predict,batch,code,message", [
        ("scalar", '{"y": [0.5]}', '{"y": [[0.5]]}', EXIT_PROTOCOL, "malformed 'yb'"),
        ("scalar", '{"y": [0.5]}', '{"yb": 5}', EXIT_PROTOCOL, "malformed 'yb'"),
        ("scalar", '{"y": [0.5]}', '{"yb": null}', EXIT_PROTOCOL, "malformed 'yb'"),
        ("scalar", '{"y": [0.5]}', '{"yb": "AAAAAAAAAA"}', EXIT_PROTOCOL, "malformed 'yb'"),
        ("scalar", '{"y": [0.5]}', '{"yb": "AAAA*AAAAAAA"}', EXIT_PROTOCOL, "malformed 'yb'"),
        ("scalar", '{"y": [0.5]}', '{"yb": "AAAA\u00e9AAAAAAA"}', EXIT_PROTOCOL,
         "malformed 'yb'"),
        ("scalar", '{"y": [0.5]}', '{"yb": "AAAA"}', EXIT_PROTOCOL, "malformed 'yb'"),
        ("scalar", '{"y": [0.5]}', '{"yb": ""}', EXIT_PROTOCOL, "0 scalar values"),
        ("scalar", '{"y": [0.5]}', "short", EXIT_PROTOCOL, "values in 'yb' for"),
        ("scalar", '{"y": [0.5, 0.5]}', "", EXIT_PROTOCOL, "values in 'yb' for"),
        ("label", '{"y": [1]}', "short", EXIT_PROTOCOL, "values in 'yb' for"),
        ("probs", '{"y": [0.5, 0.5]}', "short", EXIT_PROTOCOL, "values in 'yb' for"),
        ("probs", '{"y": [0.5, 0.5]}\n' + '{"y": [0.2, 0.3, 0.5]}\n' * 100, "",
         EXIT_PROTOCOL, "3 class probabilities per row after 2"),
        ("probs", '{"y": [0.5, 0.5]}\n' * 4 + '{"y": [0.2, 0.2]}', "", EXIT_PROTOCOL,
         "does not sum to 1 at row 3: [0.2, 0.2]"),
        ("probs", '{"y": [0.5, 0.5]}\n' * 4 + '{"y": [-0.5, 1.5]}', "", EXIT_PROTOCOL,
         "at row 3: [-0.5, 1.5]"),
        ("label", '{"y": [1]}\n' * 4 + '{"y": [-1]}', "", EXIT_PROTOCOL,
         "negative class index at row 3: -1"),
        ("scalar", '{"y": [0.5]}\n' * 4 + '{"y": [NaN]}', "", EXIT_NUMERIC,
         "non-finite output at row 3"),
        ("scalar", '{"y": [-Infinity]}', "", EXIT_NUMERIC, "non-finite output at row 0"),
        ("probs", '{"y": [Infinity, 0]}', "", EXIT_NUMERIC, "non-finite output at row 0"),
        ("probs", '{"y": [0.5, 0.5]}\n{"y": [NaN, 0.5]}', "", EXIT_NUMERIC,
         "non-finite output at row 0"),
    ], ids=["no-yb", "yb-number", "yb-null", "yb-bad-padding", "yb-stray-character",
            "yb-not-ascii", "yb-partial-value", "yb-empty", "scalar-row-missing",
            "scalar-two-values", "label-row-missing", "probs-row-missing",
            "probs-width-changes", "probs-sum", "probs-negative", "label-negative",
            "scalar-nan", "scalar-inf", "probs-inf", "probs-nan"])
    def test_faulty_binary_reply_exit_code(self, output, predict, batch, code, message,
                                           capsys):
        # the first request holds f(x*), one row; the second 100 rows
        info = (f'{{"arity": 2, "output": "{output}", "gradient": false, "batch": true, '
                '"binary": true}')
        server = scripted_server(info, predict=predict, batch=batch)
        assert main(["attr-eval", "--model", exec_spec(server), "--point", "0.1,0.2",
                     "--methods", "random", "--uniform", "0,1", "--n-mc", "100"]) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["scalar", "label", "probs"]), st.booleans(), st.data())
    def test_generated_replies_keep_the_exit_code_contract(self, output, binary, data):
        """Any scripted reply, JSON or binary: exit 0, 3 or 4, no traceback and
        no non-finite JSON token."""
        width = data.draw(st.integers(1, 3)) if output == "probs" else 1
        if output == "label":
            number = st.integers(-2, 3) if binary else REPLY_NUMBERS
        else:
            number = st.one_of(st.floats(0, 1), st.sampled_from(
                [0, 1, -0.0, 5e-324, -1.0, 2.0, math.nan, math.inf, -math.inf]))
        row = st.lists(number, min_size=width, max_size=width)
        if not binary:
            row = st.one_of(row, ODD_VALUES)
        if data.draw(st.booleans()):  # rows of another width
            row = st.one_of(row, st.lists(number, min_size=1, max_size=4))
        rows = data.draw(st.lists(row, min_size=1, max_size=6))
        predict = "\n".join(json.dumps({"y": y}) for y in rows)
        batch = data.draw(st.one_of(
            st.sampled_from(["", "", "short"]),
            st.text("AQgw+/=*", max_size=16).map(lambda t: json.dumps({"yb": t})),
            st.sampled_from(['{"y": [[0.5]]}', '{"yb": 5}', '{"error": "x"}', "junk"])))
        info = json.dumps({"arity": 2, "output": output, "gradient": False, "batch": True,
                           "binary": binary})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["attr-eval", "--model", exec_spec(scripted_server(
                info, predict=predict, batch=batch)), "--point", "0.1,0.2",
                "--methods", "random", "--uniform", "0,1", "--n-mc", "100"])
        assert code in (EXIT_OK, EXIT_PROTOCOL, EXIT_NUMERIC), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()

    def test_child_without_batch_gets_one_row_per_request(self):
        with ExternalModel(PARK_SERVER) as child:
            with pytest.raises(ContractViolation):
                child.predict(np.zeros((2, 6)))

    def test_each_chunk_of_a_batch_has_its_own_timeout(self):
        # one full chunk answers in a quarter of the timeout, a batch of five
        # chunks in one request would take longer than the timeout
        server = scripted_server('{"arity": 1, "output": "scalar", "gradient": false, '
                                 '"batch": true}', predict='{"y": [1.0]}',
                                 delay=0.25 / BATCH_ROWS)
        X = np.zeros((5 * BATCH_ROWS, 1))
        with ExternalModel(server, timeout=1.0) as child:
            assert child.as_model_handle().predict_batch(X).tolist() == [1.0] * len(X)
            with pytest.raises(ModelProtocolError, match="no response within"):
                child.predict(X)

    def test_one_restriction_pass_per_point(self, monkeypatch, capsys):
        """e is estimated once for all judged methods, f(x*) is predicted once per
        report, and each distinct prefix (k, resampled set) is one pass."""
        from xmeter import attr_metrics

        passes = []
        estimate = attr_metrics.restriction_loss_vector
        monkeypatch.setattr(attr_metrics, "restriction_loss_vector",
                            lambda *a: passes.append(1) or estimate(*a))
        out, per_row = park_run_requests(monkeypatch, capsys, "per-row")
        _, batched = park_run_requests(monkeypatch, capsys, "binary")
        assert len(passes) == 2  # one per run
        metrics = json.loads(out)["metrics"]
        park = xmeter.park.park_model()
        point = np.array(PARK_POINT.split(","), dtype=float)
        searched, distinct = 0, set()
        for method, entry in metrics.items():
            order = attr_metrics.importance_order(
                compute_attribution(method, park, point, seed=0).values)
            # prefixes 1..k of the search; the full prefix has no rest
            prefixes = [(k, tuple(sorted(order[k:])))
                        for k in range(1, min(entry["effective_complexity"], 5) + 1)]
            searched += len(prefixes)
            distinct.update(prefixes)
        assert len(distinct) < searched  # the methods share some prefixes here
        assert per_row["predict"] == 1 + 6 * 100 + len(distinct) * 100
        # one request for f(x*), per restriction batch and per distinct prefix
        assert batched["predict_batch"] == 1 + 6 + len(distinct)
        assert "predict_batch" not in per_row and "predict" not in batched
        # saliency, inpxgrad and intgrad: one request per gradient row, or one
        # per method to a child that takes gradients in batches
        assert per_row["gradient"] == 1 + 1 + 64
        assert batched["gradient"] == 3

    def test_batch_and_per_row_paths_give_the_same_report(self, monkeypatch, capsys):
        # per-row JSON, batch JSON and batch binary requests, and binary rows with
        # one gradient request per row: one report, and the two batch paths send
        # the same requests
        per_row, _ = park_run_requests(monkeypatch, capsys, "per-row")
        batched, json_requests = park_run_requests(monkeypatch, capsys, "batch")
        binary, binary_requests = park_run_requests(monkeypatch, capsys, "binary")
        row_gradients, row_gradient_requests = park_run_requests(monkeypatch, capsys,
                                                                 "binary-row-gradients")
        assert batched == per_row
        assert binary == per_row
        assert row_gradients == per_row
        assert binary_requests == json_requests
        assert row_gradient_requests == {**binary_requests, "gradient": 1 + 1 + 64}

    def test_concurrent_predicts_are_serialized(self):
        with ExternalModel(PARK_SERVER) as child:
            handle = child.as_model_handle()
            rng = np.random.default_rng(1)
            points = rng.uniform(0, 1, size=(40, 6))
            expected = [park_value(x) for x in points]
            results = [None] * len(points)

            def worker(indices):
                for i in indices:
                    results[i] = handle.predict(points[i])

            threads = [threading.Thread(target=worker, args=(range(j, 40, 4),))
                       for j in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == pytest.approx(expected, abs=1e-9)

    def test_attr_eval_via_external_model(self, tmp_path, capsys):
        out = str(tmp_path / "ext")
        cmd = "exec:" + " ".join(PARK_SERVER)
        code, _ = run_cli(["attr-eval", "--model", cmd,
                           "--point", "0.24,0.48,0.56,0.99,0.68,0.86",
                           "--methods", "saliency", "--uniform", "0,1",
                           "--n-mc", "500", "--out", out], capsys)
        assert code == EXIT_OK
        report = json.loads(Path(out + ".json").read_text())
        assert report["metrics"]["saliency"]["complexity"] == 4

    def test_child_is_stopped_when_the_command_fails(self, monkeypatch, capsys):
        children = []
        as_handle = ExternalModel.as_model_handle
        monkeypatch.setattr(ExternalModel, "as_model_handle",
                            lambda self: children.append(self) or as_handle(self))
        server = exec_spec(BUILTIN_SERVER + ["--model", "park"])
        code, out = run_cli(["attr-eval", "--model", server, "--point", "0.2,0.4,0.5,0.9,0.6",
                             "--uniform", "0,1"], capsys)
        assert code == EXIT_CONFIG  # the park model takes 6 coordinates
        assert out == ""
        assert len(children) == 1
        assert children[0]._proc.poll() is not None

    def test_reply_line_longer_than_the_cap_is_a_protocol_error(self, monkeypatch, capsys):
        monkeypatch.setattr("xmeter.cli.LINE_CAP", 200)
        info = '{"arity": 2, "output": "scalar", "gradient": false}'

        def reply(length):  # a predict reply of ``length`` characters, newline included
            return '{"y": [0.5]' + " " * (length - 13) + "}"

        with ExternalModel(scripted_server(info, predict=reply(200))) as child:
            assert child.predict([0.1, 0.2]).tolist() == [0.5]
        code = main(["attr-eval", "--model", exec_spec(scripted_server(info, predict=reply(201))),
                     "--point", "0.1,0.2", "--methods", "random", "--uniform", "0,1"])
        assert code == EXIT_PROTOCOL
        assert "response line longer than LINE_CAP = 200 characters" in capsys.readouterr().err

    def test_stderr_lines_are_cut_at_the_cap(self, monkeypatch):
        monkeypatch.setattr("xmeter.cli.LINE_CAP", 100)
        info = '{"arity": 1, "output": "scalar", "gradient": false}'
        child = ExternalModel([sys.executable, "-c", "import sys; "
                               "sys.stderr.write('x' * 250 + '\\nend\\n'); "
                               f"print({info!r}, flush=True)"])
        child.close()
        assert child._stderr == ["x" * 100, "end"]

    def test_child_ignoring_end_of_input_is_killed_at_the_stop_limit(self):
        info = '{"arity": 1, "output": "scalar", "gradient": false}'
        child = ExternalModel([sys.executable, "-c", f"import sys, time; print({info!r}, "
                               "flush=True); sys.stdin.read(); time.sleep(30)"])
        start = time.perf_counter()
        child.close()
        assert time.perf_counter() - start < STOP_TIMEOUT + 1.0
        assert child._proc.returncode is not None and child._proc.returncode < 0

    def test_cli_exit_code_for_protocol_failure(self, capsys):
        code, _ = run_cli(["attr-eval",
                           "--model", f"exec:{sys.executable} -c print('junk')",
                           "--point", "0.1,0.2", "--uniform", "0,1"], capsys)
        assert code == EXIT_PROTOCOL

    def test_finite_difference_fallback_without_gradient_op(self):
        # children that decline gradients are driven by central differences
        from xmeter.core import gradient

        with ExternalModel(BUILTIN_SERVER + ["--model", "echo", "--arity", "3"]) as child:
            handle = child.as_model_handle()
            g = gradient(handle, [0.4, 0.1, 0.9])
            assert g == pytest.approx([1.0, 0.0, 0.0], abs=1e-6)

    def test_cli_exit_code_for_undefined_correlation(self, capsys):
        # a constant model: every restriction loss is zero
        server = scripted_server('{"arity": 3, "output": "scalar", "gradient": false}',
                                 predict='{"y": [2.5]}')
        code, _ = run_cli(["attr-eval", "--model", exec_spec(server),
                           "--point", "0.1,0.2,0.3", "--methods", "random",
                           "--uniform", "0,1", "--n-mc", "200"], capsys)
        assert code == EXIT_NUMERIC


class TestModelServer:
    def test_park_server_round_trip(self, park):
        with ExternalModel(BUILTIN_SERVER + ["--model", "park"]) as child:
            assert child.info["arity"] == 6
            assert child.info["gradient"] is True
            x = np.asarray(xmeter.park.PARK_POINT)
            assert child.predict(x) == pytest.approx(park.predict(x), abs=1e-12)

    def test_unknown_op_gets_error_response(self):
        with ExternalModel(BUILTIN_SERVER + ["--model", "park"]) as child:
            response = child._request({"op": "mystery"})
            assert "error" in response

    def test_gradient_requests_name_a_target_only_for_a_class(self, monkeypatch):
        sent = []
        monkeypatch.setattr(ExternalModel, "_request", lambda self, r: sent.append(r)
                            or {"g": [0.0] * 6})
        child = object.__new__(ExternalModel)
        child.info, child.gradient_form = {"arity": 6}, "row"
        child.gradient(np.zeros(6))
        child.gradient(np.zeros(6), np.int64(1))
        assert [json.dumps(r) for r in sent] == [
            '{"op": "gradient", "x": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}',
            '{"op": "gradient", "x": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "target": 1}']

    def test_server_differentiates_the_requested_class(self):
        model = bench.softmax_model(np.array([[1.0, -2.0], [0.5, 0.0], [-1.0, 3.0]]),
                                    np.zeros(3))
        x = [0.3, -0.2]
        replies = served(model, [{"op": "gradient", "x": x, "target": t} for t in range(3)]
                         + [{"op": "gradient", "x": x}]
                         + [{"op": "gradient", "x": x, "target": bad}
                            for bad in (-1, 1.0, True, "1", None)])
        for t in range(3):
            assert replies[t] == {"g": model.gradient_fn(np.array([x]), t)[0].tolist()}
        assert replies[3] == {"g": model.gradient_fn(np.array([x]), None)[0].tolist()}
        assert all(set(reply) == {"error"} for reply in replies[4:8])
        assert replies[8] == replies[3]  # a null target is no target

    def test_server_answers_every_request_before_it_exits(self):
        # three requests and the end of input arrive in one write; the server
        # skips interpreter teardown, so its output must be flushed before
        # (a buffered stdout, as without PYTHONUNBUFFERED)
        requests = ['{"op": "info"}', '{"op": "predict", "x": [0.5, 0.5]}',
                    '{"op": "predict_batch", "X": [[0.25, 0], [0.75, 0]]}']
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        result = subprocess.run(BUILTIN_SERVER + ["--model", "echo", "--arity", "2"],
                                input="\n".join(requests) + "\n", capture_output=True,
                                text=True, timeout=30, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            '{"arity": 2, "output": "scalar", "gradient": false, "batch": true, '
            '"binary": true}',
            '{"y": [0.5]}', '{"y": [[0.25], [0.75]]}']

    def test_server_answers_binary_rows_in_binary(self):
        rows = '{"op": "predict_batch", "Xb": "%s"}' % packed("d", [0.25, 0.0, 0.75, -0.0])
        bad = ['{"op": "predict_batch", "Xb": "%s"}' % packed("d", [0.25]),
               '{"op": "predict_batch", "Xb": "AAA"}', '{"op": "predict_batch", "Xb": 5}']
        result = subprocess.run(BUILTIN_SERVER + ["--model", "echo", "--arity", "2"],
                                input="\n".join([rows] + bad) + "\n", capture_output=True,
                                text=True, timeout=30)
        assert result.returncode == 0, result.stderr
        replies = [json.loads(line) for line in result.stdout.splitlines()]
        assert replies[0] == {"yb": packed("d", [0.25, 0.75])}
        assert all(set(reply) == {"error"} for reply in replies[1:])  # and it kept serving

    @pytest.mark.parametrize("kind,Y", [
        ("scalar", np.linspace(-3.0, 7.0, 300) ** 3 / 7),
        ("probs", np.random.default_rng(0).dirichlet(np.ones(3), size=300)),
        ("label", np.arange(300) % 4),
        ("label", (np.arange(300) % 4).astype(float)),
    ], ids=["scalar", "probs", "label", "label-float"])
    def test_batch_reply_bytes_match_the_per_row_conversion(self, kind, Y):
        def row_payload(y):  # the reply entry of one row, converted on its own
            if kind == "probs":
                return [float(v) for v in y]
            return [float(y)] if kind == "scalar" else [int(y)]

        model = ModelHandle(arity=1, output_kind=kind, predict_fn=lambda X: Y[:len(X)])
        X = np.zeros((len(Y), 1)).tolist()
        stdout = io.StringIO()
        model_server.serve(model, io.StringIO(
            json.dumps({"op": "predict_batch", "X": X}) + "\n"
            + json.dumps({"op": "predict", "x": [0.0]}) + "\n"
            + json.dumps({"op": "predict_batch", "Xb": packed("d", [0.0] * len(Y))}) + "\n"),
            stdout)
        # the binary reply holds the JSON reply's values, flattened row-major
        values = [v for y in Y for v in row_payload(y)]
        assert stdout.getvalue() == (json.dumps({"y": [row_payload(y) for y in Y]}) + "\n"
                                     + json.dumps({"y": row_payload(Y[0])}) + "\n"
                                     + json.dumps({"yb": packed("q" if kind == "label" else "d",
                                                                values)}) + "\n")


def served(model, requests) -> list:
    """The replies of ``model_server.serve`` to ``requests``, in process."""
    stdout = io.StringIO()
    model_server.serve(model, io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
                       stdout)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def softmax_rows(X):
    z = np.stack([X[:, 0] - X[:, 1], 2 * X[:, 1] - 0.3, np.sin(X[:, 0])], axis=1)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# in-process models of each output kind, arity 2
KIND_MODELS = {
    "scalar": ModelHandle(2, "scalar", lambda X: X[:, 0] * np.exp(X[:, 1]) / 3),
    "label": ModelHandle(2, "label", lambda X: np.argmax(softmax_rows(X), axis=1)),
    "probs": ModelHandle(2, "probs", softmax_rows),
}
# rows whose predictions include -0.0, a subnormal and values near the range's ends
SIDE_ROWS = np.array([[0.1, 0.2], [-0.0, 1.0], [5e-324, 0.0], [1e300, 1.5], [-2.5, -700.0],
                      [0.7, 0.3], [3.0, -1e-9]])


class TestProtocolSides:
    """The driver's half of ``xmeter.protocol`` against the reference server's,
    in process: requests go through ``model_server.serve`` on a string."""

    @pytest.mark.parametrize("kind", list(KIND_MODELS))
    @pytest.mark.parametrize("form", list(protocol.FORMS))
    def test_driver_reads_the_in_process_predictions(self, form, kind):
        model = KIND_MODELS[kind]
        X = SIDE_ROWS[:1] if form == "row" else SIDE_ROWS
        (reply,) = served(model, [protocol.request(form, X)])
        Y = protocol.read_reply(form, reply, kind, len(X))
        expected = model.predict_batch(X)
        assert (Y.shape, Y.dtype) == (expected.shape, expected.dtype)
        assert Y.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", ["park", "softmax"])
    @pytest.mark.parametrize("form", list(protocol.FORMS))
    def test_driver_reads_the_in_process_gradients(self, form, model, park):
        model, target = (park, None) if model == "park" else (
            bench.softmax_model(np.array([[1.0, -2.0, 0.5], [0.5, 0.0, 0.1], [-1.0, 3.0, 2.0]]),
                                np.zeros(3)), 2)
        X = np.random.default_rng(5).uniform(0.05, 0.95, (1 if form == "row" else 40, 3))
        X = np.hstack([X, X])[:, :model.arity]
        request = protocol.request(form, X, protocol.GRADIENT, target)
        assert request["op"] == "gradient" and request.get("target") == target
        (reply,) = served(model, [request])
        G = protocol.read_reply(form, reply, protocol.GRADIENT, len(X), model.arity)
        assert G.tobytes() == model.gradient_fn(X, target).tobytes()
        assert G.tobytes() == np.array([model.gradient_fn(x[None], target)[0]
                                        for x in X]).tobytes()

    @pytest.mark.parametrize("request_", [
        {"op": "predict", "x": [True, False]},
        {"op": "predict_batch", "X": [[True, 0.5]]},
        {"op": "predict_batch", "X": [["0.5", "1"]]},
        {"op": "predict", "x": ["0.5", 1]},
        {"op": "predict", "x": [[0.5, 0.5]]},
        {"op": "predict_batch", "X": [[[0.5, 0.5]]]},
        {"op": "predict_batch", "X": [[0.5, 0.5], [0.5]]},
        {"op": "predict", "x": [0.5, 0.5, 0.5]},
        {"op": "predict", "x": []},
        {"op": "predict_batch", "X": [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]},
        {"op": "predict_batch", "X": [[0.5, 0.5, 0.5, 0.5]]},
        {"op": "predict_batch", "X": {"0": [0.5, 0.5]}},
        {"op": "predict_batch", "X": [[10 ** 400, 0.5]]},
        {"op": "predict_batch"},
    ], ids=["row-bools", "batch-bool", "batch-strings", "row-string", "row-nested",
            "batch-nested", "batch-ragged", "row-arity", "row-empty", "batch-arity",
            "batch-width-of-two-rows", "batch-object", "batch-huge-integer", "batch-no-rows"])
    def test_server_refuses_rows_the_number_rule_refuses(self, request_):
        # and keeps serving
        replies = served(KIND_MODELS["scalar"], [request_, {"op": "predict", "x": [0.75, 0.0]}])
        assert set(replies[0]) == {"error"}
        assert replies[1] == {"y": [0.25]}

    def test_empty_rows_get_the_same_answer_in_both_batch_forms(self):
        replies = served(KIND_MODELS["probs"], [{"op": "predict_batch", "X": []},
                                               protocol.request("binary", np.zeros((0, 2)))])
        assert replies == [{"y": []}, {"yb": ""}]

    @pytest.mark.parametrize("x", [[0.5] * 6 + [9, 9], [0.5] * 4, [1e308, 1e308] + [0.5] * 4,
                                   [True] * 6, ["0.5"] * 6],
                             ids=["eight-coordinates", "four-coordinates", "overflow",
                                  "bools", "strings"])
    def test_server_gradient_checks_its_point_and_output(self, x, park):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            replies = served(park, [{"op": "gradient", "x": x},
                                    {"op": "gradient", "x": list(xmeter.park.PARK_POINT)}])
        assert [w.category for w in caught] == []
        assert set(replies[0]) == {"error"}
        assert replies[1] == {"g": xmeter.park.park_gradient(xmeter.park.PARK_POINT).tolist()}



# label values: those a label reply can carry (JSON integers that int64 holds),
# whole floats, then values that are no integer int64 holds
CARRIED_LABELS = st.one_of(st.integers(0, 3), st.sampled_from([-1, 2 ** 63 - 1]))
WHOLE_FLOAT_LABELS = st.sampled_from([0.0, 1.0, 3.0, -1.0, 2.0 ** 62])
OTHER_LABELS = st.sampled_from([1.5, 2 ** 63, math.nan, math.inf])
SCALAR_VALUES = st.one_of(st.floats(-1e6, 1e6),
                          st.sampled_from([math.nan, math.inf, -math.inf, -1.7e308]))


@st.composite
def prob_rows(draw, width):
    """A probability row, at times with one fault: an entry (and so the sum) off
    by 2 * PROB_SUM_TOL, a negative entry (within PROB_SUM_TOL or not) that the
    next one makes up for, or a non-finite entry."""
    weights = draw(st.lists(st.integers(1, 4), min_size=width, max_size=width))
    row = [w / sum(weights) for w in weights]
    j = draw(st.integers(0, width - 1))
    fault = draw(st.sampled_from(["none", "none", "sum", "negative", "non-finite"]))
    if fault == "sum":
        row[j] += draw(st.sampled_from([2 * PROB_SUM_TOL, -2 * PROB_SUM_TOL]))
    elif fault == "negative" and width > 1:
        low = draw(st.sampled_from([PROB_SUM_TOL / 2, 2 * PROB_SUM_TOL, 0.5]))
        row[(j + 1) % width] += row[j] + low
        row[j] = -low
    elif fault == "non-finite":
        row[j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return row


def first_bad_row(Y: np.ndarray, kind: str):
    """(row, non-finite) of the first row of predictions ``Y`` that the output
    rule refuses, row by row in plain Python; (None, False) if none."""
    for i, y in enumerate(Y.tolist()):
        values = y if kind == "probs" else [y]
        if not all(math.isfinite(v) for v in values):
            return i, True
        if kind == "label" and not (float(y).is_integer() and 0 <= y < 2 ** 63):
            return i, False
        if kind == "probs" and (min(values) < -PROB_SUM_TOL
                                or abs(math.fsum(values) - 1) > PROB_SUM_TOL):
            return i, False
    return None, False


def outcome(read) -> tuple:
    """("ok", None) or (the refusal's kind, the row its message names)."""
    try:
        read()
    except FloatingPointError as exc:
        return "non-finite", int(re.search(r"at row (\d+): ", str(exc)).group(1))
    except (ContractViolation, ModelProtocolError) as exc:
        return "refused", int(re.search(r"at row (\d+): ", str(exc)).group(1))
    return "ok", None


class TestOneOutputRule:
    """An in-process handle and the driver's reply reader pass predictions
    through one rule, ``handle.check_outputs``: they accept the same outputs,
    and refuse the same first row, as non-finite exactly when it is."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["scalar", "label", "probs"]), st.data())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_in_process_and_exec_replies_pass_one_rule(self, kind, data):
        n = data.draw(st.integers(1, 5))
        if kind == "probs":
            width = data.draw(st.integers(1, 3))
            values = data.draw(st.lists(prob_rows(width), min_size=n, max_size=n))
        else:
            pool = {"scalar": SCALAR_VALUES,
                    "label": st.one_of(CARRIED_LABELS, WHOLE_FLOAT_LABELS, OTHER_LABELS)}[kind]
            values = data.draw(st.lists(pool, min_size=n, max_size=n))
        # a label model returns floats unless its labels are integers int64 holds
        ints = kind != "label" or all(type(v) is int and v < 2 ** 63 for v in values)
        Y = np.array(values, dtype=np.int64 if kind == "label" and ints else float)
        row, non_finite = first_bad_row(Y, kind)
        expected = ("ok", None) if row is None else (
            "non-finite" if non_finite else "refused", row)

        model = ModelHandle(1, kind, lambda X: Y)
        assert outcome(lambda: model.predict_batch(np.zeros((n, 1)))) == expected
        entries = values if kind == "probs" else [[v] for v in values]
        batch = json.loads(json.dumps({"y": entries}))
        replies = [("batch", batch)]  # JSON carries every label, some as floats
        # binary carries int64 labels: whole floats as the integers they are
        if kind != "label" or all(math.isfinite(v) and v == int(v) and v < 2 ** 63
                                  for v in Y.tolist()):
            replies.append(("binary", {"yb": protocol.encode(Y, protocol.reply_dtype(kind))}))
        for form, reply in replies:
            assert outcome(lambda: protocol.read_reply(form, reply, kind, n)) == expected


# float64 bit patterns the binary format must carry unchanged: zeros, the
# smallest and largest subnormals, the extremes, infinities, quiet and
# signalling NaNs with payloads and with the sign bit set
SPECIAL_BITS = [0, 1 << 63, 1, (1 << 52) - 1, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000000, 0x7FF8000000000123,
                0x7FF0000000000001, 0xFFF4000000000000, (1 << 64) - 1]


class TestBinaryRows:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, (1 << 64) - 1), st.sampled_from(SPECIAL_BITS)),
                    max_size=40),
           st.sampled_from([protocol.FLOAT64, protocol.INT64]), st.integers(1, 4))
    def test_every_bit_pattern_round_trips(self, bits, dtype, width):
        # the values as float64 or as int64 labels, sent as a matrix of rows
        bits = bits[:len(bits) // width * width]
        values = np.array(bits, dtype=np.uint64).view(dtype).reshape(-1, width)
        text = protocol.encode(values, dtype)
        assert text == base64.b64encode(np.array(bits, dtype="<u8").tobytes()).decode()
        decoded = protocol.decode(text, dtype)
        assert decoded.dtype == dtype.newbyteorder("=") and decoded.flags.writeable
        assert decoded.view(np.uint64).tolist() == bits

    def test_labels_and_floats_are_converted_to_the_format_type(self):
        assert protocol.encode([1.0, 2.9], protocol.INT64) == packed("q", [1, 2])
        assert protocol.encode([[1, 2]], protocol.FLOAT64) == packed("d", [1.0, 2.0])
        assert protocol.reply_dtype("label") == protocol.INT64
        assert protocol.reply_dtype("probs") == protocol.reply_dtype("scalar") == \
            protocol.FLOAT64

    @pytest.mark.parametrize("text", [None, 5, ["AAAA"], "AAA", "AAAA AAAAAAA",
                                      "AAAA\nAAAAAAA", "AAAAAAAAAAA=AAAA", "AAAA",
                                      "AAAAAAAAAAB=", "\u00e9AAAAAAAAAAA"],
                             ids=["none", "number", "list", "bad-padding", "space",
                                  "line-break", "data-after-padding", "partial-value",
                                  "non-canonical-padding-bits", "not-ascii"])
    def test_decode_refuses_what_encode_never_writes(self, text):
        with pytest.raises(ValueError):
            protocol.decode(text, protocol.FLOAT64)
