import contextlib
import csv
import io
import json
import shlex
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xmeter import bench
from xmeter.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PROTOCOL,
    ExternalModel,
    ModelProtocolError,
    load_dataset_csv,
    main,
    parse_dataset_spec,
)

FIXTURES = Path(__file__).parent / "fixtures"
PARK_SERVER = [sys.executable, str(FIXTURES / "park_server.py")]
BUILTIN_SERVER = [sys.executable, "-m", "xmeter.model_server"]
PARK_POINT = "0.24,0.48,0.56,0.99,0.68,0.86"

PARK_ARGS = ["attr-eval", "--model", "park",
             "--point", PARK_POINT,
             "--methods", "saliency,inpxgrad,intgrad,random",
             "--n-mc", "2000"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def scripted_server(info, predict='{"y": [0.0]}', gradient='{"error": "unsupported"}',
                    delay=0.0):
    """Command of a child that answers every request of a kind with one fixed reply."""
    return [sys.executable, str(FIXTURES / "scripted_server.py"), info, predict, gradient,
            str(delay)]


def exec_spec(command):
    return "exec:" + shlex.join(command)


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
        code, _ = run_cli(["attr-eval", "--model", "park"], capsys)
        assert code == EXIT_CONFIG

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run_cli(PARK_ARGS + ["--seed", "3", "--out", out_a], capsys)[0] == EXIT_OK
        assert run_cli(PARK_ARGS + ["--seed", "3", "--out", out_b], capsys)[0] == EXIT_OK
        assert Path(out_a + ".json").read_bytes() == Path(out_b + ".json").read_bytes()
        assert Path(out_a + ".csv").read_bytes() == Path(out_b + ".csv").read_bytes()

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

    def test_needs_labels_or_model(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n" + "\n".join(f"{i}.0,{i + 1}.0" for i in range(30)) + "\n")
        code, _ = run_cli(["mi", "--dataset", str(path)], capsys)
        assert code == EXIT_CONFIG


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
    "tokens-dataset-seed": ["mi", "--dataset", "tokens:seed=x"],
    "tokens-model-seed": ["attr-eval", "--model", "tokens:seed=x", "--point", "0"],
    "tree-depth": ["example-eval", "--dataset", "synth:n=60,seed=0", "--model", "tree:x"],
    "sweep-bound": ["example-eval", "--dataset", "synth:n=60,seed=0", "--sweep", "1..x"],
    "pt-k": ["attr-eval", "--model", "park", "--point", PARK_POINT, "--methods", "random",
             "--dataset", "synth:n=60,features=6,seed=0", "--pt", "x", "--n-mc", "100"],
    "uniform-one-value": ["attr-eval", "--model", "park", "--point", PARK_POINT,
                          "--methods", "random", "--uniform", "0"],
    "config-json": ["attr-eval", "--config", "{malformed}"],
    "zero-runs": ["mi", "--dataset", "synth:preset=mi,seed=0", "--runs", "0"],
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
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(name, tmp_path, capsys):
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
    code = main(args)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "Traceback" not in captured.err
    assert captured.out == ""


# The property below draws commands from these. Every value is one argparse
# accepts, so each outcome comes from xmeter itself. Half the commands use
# only sane values; the other half mix in wild ones (NaN, infinities, huge or
# negative numbers, unknown names).
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


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
            "n": (_ints(20, 60), _ints(-1, 19)), "classes": (_ints(1, 3), _ints(0, 0)),
            "sep": (_floats(0, 5), wild_float), "noise": (_ints(0, width - 1), _ints(-1, 7)),
            "layout": (st.just("spread"), st.sampled_from(["ring", "x"])),
            "quantize": (_floats(0.1, 2), wild_float), "seed": seed})
        dataset = "synth:" + _csv([f"features={width}"] + [k[2:] for k in keys])
    argv = [command] + ([f"--dataset={dataset}"] if dataset else [])
    if command == "attr-eval":
        arity = {"park": 6, "tokens:seed=0": 30}.get(model, width)
        coordinate = choose(st.floats(0, 1, exclude_max=True), _ANY_FLOAT)
        point = _csv(draw(st.lists(coordinate, min_size=arity, max_size=arity)))
        n_mc = pick(_ints(100, 150), _ints(1, 99))
        methods = ["random"] if model == "tree" else ["saliency", "inpxgrad", "intgrad", "random"]
        argv += [f"--model={model}", f"--point={point}", f"--n-mc={n_mc}",
                 f"--methods={pick(_subset(methods), st.just('saliency,x'))}"]
        argv += options({
            "loss": (st.sampled_from(["zero-one", "squared-error", "cross-entropy"]),) * 2,
            "epsilon": (_floats(1e-4, 1), wild_float),
            "zero-tolerance": (_floats(0, 1e-3), wild_float),
            "steps": (_ints(1, 4), _ints(-1, 0)),
            "uniform": (st.just("-1,2"), st.lists(wild_float, max_size=3).map(_csv)),
            "pt": (st.one_of(st.just("ec"), _ints(1, arity)), _ints(-1, 40)),
            "pt-n": (_ints(1, 30), _ints(-1, 0)), "seed": seed})
    elif command == "example-eval":
        argv += [f"--model={model}"] if draw(st.booleans()) else []
        argv += options({
            "selectors": (_subset(["kmedoids", "mmd", "protodash"]), st.just("x")),
            "n": (_ints(1, 4), _ints(-1, 0)), "sweep": (st.just("1..3"), st.just("2,0")),
            "bandwidth": (_floats(0.1, 5), wild_float), "seed": seed})
    else:
        argv += [f"--model={model}"] if draw(st.booleans()) else []
        argv += ["--runs=1"] + options({
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


class TestExternalModelAdapter:
    def test_info_round_trip_on_echo_fixture(self):
        with ExternalModel(BUILTIN_SERVER + ["--model", "echo", "--arity", "7"]) as child:
            assert child.info == {"arity": 7, "output": "scalar", "gradient": False}
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
            g = handle.gradient_fn(np.asarray(bench.PARK_POINT), None)
            assert g == pytest.approx(bench.park_gradient(bench.PARK_POINT), abs=1e-9)

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

    @pytest.mark.parametrize("predict,gradient", [('{"y": [NaN]}', "false"),
                                                  ('{"y": [0.5]}', "true")],
                             ids=["predict", "gradient"])
    def test_non_finite_output_is_numeric_failure(self, predict, gradient, capsys):
        server = scripted_server(f'{{"arity": 3, "output": "scalar", "gradient": {gradient}}}',
                                 predict=predict, gradient='{"g": [NaN, 0.0, 0.0]}')
        code, out = run_cli(["attr-eval", "--model", exec_spec(server),
                             "--point", "0.1,0.2,0.3", "--methods", "saliency",
                             "--uniform", "0,1", "--n-mc", "200"], capsys)
        assert code == EXIT_NUMERIC
        assert "NaN" not in out

    def test_concurrent_predicts_are_serialized(self):
        with ExternalModel(PARK_SERVER) as child:
            handle = child.as_model_handle()
            rng = np.random.default_rng(1)
            points = rng.uniform(0, 1, size=(40, 6))
            expected = [bench.park_value(x) for x in points]
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
            x = np.asarray(bench.PARK_POINT)
            assert child.predict(x) == pytest.approx(park.predict(x), abs=1e-12)

    def test_unknown_op_gets_error_response(self):
        with ExternalModel(BUILTIN_SERVER + ["--model", "park"]) as child:
            response = child._request({"op": "mystery"})
            assert "error" in response
