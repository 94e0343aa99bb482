"""Command-line surface: dataset/attribution ingestion, external models, reports.

Exit codes: 0 success, 2 config/usage error, 3 model-protocol error,
4 numeric failure (e.g. undefined rank correlation).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import queue
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from . import attr_metrics, attr_methods, bench, example_based, mi
from .core import (
    ContractViolation,
    FeatureDistribution,
    LossFunction,
    ModelHandle,
    TabularDataset,
    UndefinedCorrelation,
    UnsupportedOperation,
    loss_by_name,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_NUMERIC = 4

PROTOCOL_TIMEOUT = 30.0


class ConfigError(ValueError):
    """Invalid command configuration (maps to exit code 2)."""


class ModelProtocolError(RuntimeError):
    """The external model child violated the line-delimited JSON protocol."""


# ---------------------------------------------------------------------------
# External model adapter (JSON lines over a child process's standard streams)
# ---------------------------------------------------------------------------

class ExternalModel:
    """Drives a child process speaking the one-request-per-line JSON protocol.

    Requests are strictly serialized per child; responses are matched to
    requests by order. The child's stderr is captured for diagnostics.
    """

    def __init__(self, command, timeout: float = PROTOCOL_TIMEOUT):
        if isinstance(command, str):
            command = shlex.split(command)
        self.command = list(command)
        self.timeout = timeout
        self._lock = threading.Lock()
        self._stderr: list[str] = []
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise ModelProtocolError(f"cannot spawn {self.command!r}: {exc}") from exc
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump_stdout, daemon=True).start()
        threading.Thread(target=self._pump_stderr, daemon=True).start()
        try:
            self.info = self._handshake()
        except BaseException:
            self._kill()
            raise

    def _pump_stdout(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _pump_stderr(self):
        for line in self._proc.stderr:
            self._stderr.append(line.rstrip("\n"))
            del self._stderr[:-50]

    def _stderr_tail(self) -> str:
        return "\n".join(self._stderr[-10:]) or "<no stderr output>"

    def _fail(self, reason: str):
        raise ModelProtocolError(f"{reason} (command {self.command!r}); "
                                 f"child stderr:\n{self._stderr_tail()}")

    def _request(self, payload: dict) -> dict:
        with self._lock:
            if self._proc.poll() is not None:
                self._fail(f"child has exited with code {self._proc.returncode}")
            try:
                self._proc.stdin.write(json.dumps(payload) + "\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError, OSError):
                self._fail("child process is not accepting requests")
            try:
                line = self._lines.get(timeout=self.timeout)
            except queue.Empty:
                # a late reply would be read as the answer to the next request
                self._kill()
                self._fail(f"no response within {self.timeout} s; child stopped")
            if line is None:
                self._fail("child closed its output stream")
        try:
            response = json.loads(line)
        except json.JSONDecodeError:
            self._fail(f"malformed response line {line!r}")
        if not isinstance(response, dict):
            self._fail(f"response is not a JSON object: {line!r}")
        return response

    def _handshake(self) -> dict:
        info = self._request({"op": "info"})
        if "error" in info:
            self._fail(f"info handshake failed: {info['error']}")
        arity = info.get("arity")
        output = info.get("output")
        if not isinstance(arity, int) or arity < 1:
            self._fail(f"invalid arity in handshake: {info!r}")
        if output not in ("probs", "label", "scalar"):
            self._fail(f"invalid output kind in handshake: {info!r}")
        if not isinstance(info.get("gradient"), bool):
            self._fail(f"invalid gradient flag in handshake: {info!r}")
        return info

    def predict(self, x):
        response = self._request({"op": "predict", "x": [float(v) for v in np.asarray(x)]})
        if "error" in response:
            self._fail(f"predict failed: {response['error']}")
        y = response.get("y")
        if not isinstance(y, list) or not y:
            self._fail(f"predict returned no 'y' list: {response!r}")
        kind = self.info["output"]
        if kind == "scalar":
            return float(y[0])
        if kind == "label":
            return int(y[0])
        return np.asarray(y, dtype=float)

    def gradient(self, x, target=None):
        response = self._request({"op": "gradient", "x": [float(v) for v in np.asarray(x)]})
        if "error" in response:
            self._fail(f"gradient failed: {response['error']}")
        g = response.get("g")
        if not isinstance(g, list) or len(g) != self.info["arity"]:
            self._fail(f"gradient returned a malformed 'g': {response!r}")
        return np.asarray(g, dtype=float)

    def as_model_handle(self) -> ModelHandle:
        """A handle whose ``predict_fn`` sends one ``predict`` request per row, in order."""
        has_grad = bool(self.info["gradient"])
        return ModelHandle(
            arity=int(self.info["arity"]),
            output_kind=self.info["output"],
            predict_fn=lambda X: [self.predict(x) for x in X],
            gradient_fn=self.gradient if has_grad else None,
            gradient_capability="exact" if has_grad else "finite-difference",
            name=f"external({' '.join(self.command)})",
        )

    def _kill(self):
        proc = getattr(self, "_proc", None)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    def close(self):
        proc = getattr(self, "_proc", None)
        if proc is None or proc.poll() is not None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# Dataset and model specs
# ---------------------------------------------------------------------------

def load_dataset_csv(path) -> TabularDataset:
    """CSV with a header row; an optional final 'label' column holds classes."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ConfigError(f"dataset {path} needs a header and at least one row")
    header = rows[0]
    has_label = header and header[-1] == "label"
    names = header[:-1] if has_label else header
    feats, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            if has_label:
                feats.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            else:
                feats.append([float(v) for v in row])
        except ValueError as exc:
            raise ConfigError(f"dataset {path} line {lineno}: {exc}") from None
    return TabularDataset(np.array(feats), np.array(labels) if has_label else None,
                          tuple(names))


def _parse_kv(spec: str) -> dict:
    out = {}
    if not spec:
        return out
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        out[key.strip()] = val.strip()
    return out


_SYNTH_PRESETS = {
    "clusters": bench.CLUSTER_BENCH_SPEC,
    "mi": bench.MI_BENCH_SPEC,
}


def _parse_int(text: str, what: str, minimum: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value}")
    return value


def _tokens_seed(spec: str) -> int:
    kv = _parse_kv(spec[len("tokens:"):])
    seed = _parse_int(kv.pop("seed", "0"), "tokens seed", minimum=0)
    if kv:
        raise ConfigError(f"unknown tokens keys: {sorted(kv)}")
    return seed


def parse_dataset_spec(spec: str) -> TabularDataset:
    """A CSV path, 'synth:...' generator options, or 'tokens:seed=N'."""
    if spec.startswith("synth:"):
        kv = _parse_kv(spec[len("synth:"):])
        seed = _parse_int(kv.pop("seed", "0"), "synth seed", minimum=0)
        preset = kv.pop("preset", None)
        if preset is not None:
            if kv:
                raise ConfigError("preset datasets take only seed=")
            try:
                return bench.synth_tabular(_SYNTH_PRESETS[preset], seed)
            except KeyError:
                raise ConfigError(f"unknown synth preset {preset!r}") from None
        quantize = kv.pop("quantize", None)
        try:
            gen = bench.SynthSpec(
                n_samples=int(kv.pop("n", "300")),
                n_features=int(kv.pop("features", "2")),
                n_classes=int(kv.pop("classes", "3")),
                separation=float(kv.pop("sep", "3.0")),
                n_noise_features=int(kv.pop("noise", "0")),
                layout=kv.pop("layout", "spread"),
                quantize_step=float(quantize) if quantize else None,
            )
        except (ValueError, ContractViolation) as exc:
            raise ConfigError(f"bad synth spec: {exc}") from None
        if kv:
            raise ConfigError(f"unknown synth keys: {sorted(kv)}")
        return bench.synth_tabular(gen, seed)
    if spec.startswith("tokens:"):
        return bench.token_benchmark(_tokens_seed(spec))[0]
    if not Path(spec).exists():
        raise ConfigError(f"dataset path {spec!r} does not exist")
    return load_dataset_csv(spec)


def parse_model_spec(spec: str, data: TabularDataset | None):
    """Returns (ModelHandle, closer) where closer shuts down external children."""
    if spec == "park":
        return bench.park_model(), None
    if spec == "tree" or spec.startswith("tree:"):
        depth = _parse_int(spec.split(":", 1)[1], "tree depth") if ":" in spec else 5
        if data is None:
            raise ConfigError("the tree model needs a dataset to fit on")
        return bench.fit_decision_tree(data, depth).as_model_handle(), None
    if spec.startswith("tokens:"):
        return bench.token_benchmark(_tokens_seed(spec))[1], None
    if spec.startswith("exec:"):
        external = ExternalModel(spec[len("exec:"):])
        return external.as_model_handle(), external.close
    raise ConfigError(f"unknown model spec {spec!r}")


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------

def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    return obj


def write_report(out_prefix: str | None, report: dict, csv_header: list[str],
                 csv_rows: list[list]) -> str:
    """Write PREFIX.json and PREFIX.csv deterministically; returns the JSON text."""
    try:
        text = json.dumps(_json_ready(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:  # NaN and infinities have no JSON form
        raise FloatingPointError("the report holds a non-finite value") from None
    if out_prefix:
        Path(out_prefix).parent.mkdir(parents=True, exist_ok=True)
        Path(out_prefix + ".json").write_text(text, encoding="utf-8")
        with open(out_prefix + ".csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(csv_header)
            for row in csv_rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return text


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _load_json(path: str, what: str):
    if not Path(path).exists():
        raise ConfigError(f"{what} {path!r} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # malformed JSON or text encoding
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from None


_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer beyond the float range
        return False


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """Config-file values fill options the command line left at defaults.

    Each value must have its option's type; it is checked, not converted.
    Float options must be finite and the seed nonnegative, wherever they
    were set.
    """
    merged = vars(args).copy()
    config_path = merged.pop("config", None)
    option_types = merged.pop("option_types")
    if config_path:
        loaded = _load_json(config_path, "config file")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(parser_defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        for key, value in loaded.items():
            types, what = _CONFIG_TYPES.get(option_types[key], ((str,), "a string"))
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
            if merged.get(key) is None:
                merged[key] = value
    for key, default in parser_defaults.items():
        if merged.get(key) is None:
            merged[key] = default
        elif option_types[key] is float and not _is_finite(merged[key]):
            raise ConfigError(f"option {key!r} must be finite, got {merged[key]!r}")
    if merged["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {merged['seed']}")
    return merged


def _config_echo(cfg: dict, defaults: dict) -> dict:
    """The resolved options, minus the output destination (reports must be
    byte-identical regardless of where they are written)."""
    return {k: cfg[k] for k in sorted(defaults) if k != "out"}


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"number list {text!r} has a non-finite value")
    return values


def _parse_n_range(text: str) -> list[int]:
    out = []
    try:
        for part in text.split(","):
            if ".." in part:
                lo, hi = part.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError as exc:
        raise ConfigError(f"bad budget list {text!r}: {exc}") from None
    return out


ATTR_DEFAULTS = {
    "model": None, "point": None, "attr_file": None,
    "methods": "saliency,inpxgrad,intgrad,random",
    "loss": None, "epsilon": 0.01, "n_mc": 5000, "zero_tolerance": 1e-6,
    "steps": 64, "dataset": None, "uniform": None,
    "pt": None, "pt_n": 500, "seed": 0, "out": None,
}


def _load_attr_file(path: str) -> dict:
    payload = _load_json(path, "attribution file")
    required = {"point", "values", "method"}
    if not isinstance(payload, dict) or set(payload) != required:
        raise ConfigError("attribution file must hold exactly point, values, method")
    return payload


def cmd_attr_eval(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, ATTR_DEFAULTS)
    if not cfg["model"]:
        raise ConfigError("attr-eval needs --model")
    data = parse_dataset_spec(cfg["dataset"]) if cfg["dataset"] else None
    model, closer = parse_model_spec(cfg["model"], data)
    try:
        return _run_attr_eval(cfg, model, data)
    finally:
        if closer:
            closer()


def _run_attr_eval(cfg: dict, model: ModelHandle, data: TabularDataset | None) -> int:
    judged: list[tuple[str, attr_methods.AttributionVector]] = []
    if cfg["attr_file"]:
        payload = _load_attr_file(cfg["attr_file"])
        point = np.asarray(payload["point"], dtype=float)
        attr = attr_methods.AttributionVector(
            point, model.predict(point), np.asarray(payload["values"], dtype=float),
            str(payload["method"]))
        judged.append((attr.method, attr))
    else:
        if not cfg["point"]:
            raise ConfigError("attr-eval needs --point (or --attr-file)")
        point = np.asarray(_parse_float_list(cfg["point"]), dtype=float)
        if point.size != model.arity:
            raise ConfigError(f"point has {point.size} coordinates, model takes {model.arity}")
        for method in [m.strip() for m in str(cfg["methods"]).split(",") if m.strip()]:
            try:
                attr = attr_methods.compute_attribution(method, model, point,
                                                        seed=int(cfg["seed"]),
                                                        steps=int(cfg["steps"]))
            except ContractViolation as exc:
                raise ConfigError(str(exc)) from None
            judged.append((method, attr))

    if cfg["dataset"]:
        distribution = FeatureDistribution.empirical(data)
    elif cfg["uniform"]:
        bounds = _parse_float_list(cfg["uniform"])
        if len(bounds) != 2:
            raise ConfigError(f"--uniform needs lo,hi, got {cfg['uniform']!r}")
        lo, hi = bounds
        distribution = FeatureDistribution.uniform(model.arity, lo, hi)
    elif cfg["model"] == "park":
        distribution = FeatureDistribution.uniform(model.arity, 0.0, 1.0)
    else:
        raise ConfigError("need --dataset or --uniform to define the sampling distribution")
    if cfg["loss"]:
        loss = loss_by_name(str(cfg["loss"]))
    else:
        loss = loss_by_name("squared-error" if model.output_kind == "scalar" else "zero-one")
    mc_cfg = attr_metrics.ExpectationConfig(
        distribution=distribution, loss=loss, n_mc_samples=int(cfg["n_mc"]),
        zero_tolerance=float(cfg["zero_tolerance"]), seed=int(cfg["seed"]))

    want_pt = cfg["pt"] is not None
    if want_pt and data is None:
        raise ConfigError("the perturbation test needs --dataset as its corpus")
    pt_k = _parse_int(cfg["pt"], "--pt") if want_pt and cfg["pt"] != "ec" else None
    metrics = {}
    rows = []
    header = ["method", "complexity", "monotonicity", "effective_complexity",
              "non_sensitivity"] + (["perturbation_test"] if want_pt else [])
    for method, attr in judged:
        entry = attr_metrics.attribution_report(attr, model, float(cfg["epsilon"]), mc_cfg)
        row = [method, entry["complexity"], entry["monotonicity"],
               entry["effective_complexity"], entry["non_sensitivity"]]
        if want_pt:
            k = entry["effective_complexity"] if pt_k is None else pt_k
            score = attr_metrics.perturbation_test(attr, model, k, data,
                                                   int(cfg["pt_n"]), int(cfg["seed"]))
            entry["perturbation_test"] = score
            entry["pt_k"] = k
            row.append(score)
        metrics[method] = entry
        rows.append(row)

    report_doc = {
        "config": _config_echo(cfg, ATTR_DEFAULTS),
        "metrics": metrics,
        "seeds": {"master": int(cfg["seed"])},
    }
    text = write_report(cfg["out"], report_doc, header, rows)
    sys.stdout.write(text)
    return EXIT_OK


EXAMPLE_DEFAULTS = {
    "dataset": None, "model": "tree:5",
    "selectors": "kmedoids,mmd,protodash", "n": 6, "sweep": None,
    "bandwidth": None, "seed": 0, "out": None,
}


def cmd_example_eval(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, EXAMPLE_DEFAULTS)
    if not cfg["dataset"]:
        raise ConfigError("example-eval needs --dataset")
    kernel = example_based.KernelConfig(
        bandwidth=float(cfg["bandwidth"]) if cfg["bandwidth"] is not None else None)
    selectors = [s.strip() for s in str(cfg["selectors"]).split(",") if s.strip()]
    for s in selectors:
        if s not in example_based.SELECTORS:
            raise ConfigError(f"unknown selector {s!r}")
    n_values = _parse_n_range(str(cfg["sweep"])) if cfg["sweep"] else [int(cfg["n"])]
    data = parse_dataset_spec(cfg["dataset"])
    if data.labels is None:
        raise ConfigError("example-eval needs a labeled dataset")
    model, closer = parse_model_spec(cfg["model"], data)
    try:
        metrics = {}
        rows = []
        for selector in selectors:
            curve = example_based.metrics_vs_n(data, model, selector, n_values, kernel=kernel)
            metrics[selector] = curve if cfg["sweep"] else curve[0]
            for point in curve:
                rows.append([selector, point["n"], point["non_representativeness"],
                             point["diversity"]])
        report_doc = {
            "config": _config_echo(cfg, EXAMPLE_DEFAULTS),
            "metrics": metrics,
            "seeds": {"master": int(cfg["seed"])},
        }
        text = write_report(cfg["out"], report_doc,
                            ["selector", "n", "non_representativeness", "diversity"], rows)
        sys.stdout.write(text)
        return EXIT_OK
    finally:
        if closer:
            closer()


MI_DEFAULTS = {
    "dataset": None, "model": None,
    "extractors": "identity,random-ood,entropy", "runs": 50, "k": 3,
    "ood_count": 3, "ood_value": -10.0, "max_depth": 3, "seed": 0, "out": None,
}


def cmd_mi(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, MI_DEFAULTS)
    if not cfg["dataset"]:
        raise ConfigError("mi needs --dataset")
    if int(cfg["runs"]) < 1:
        raise ConfigError("mi needs --runs >= 1")
    data = parse_dataset_spec(cfg["dataset"])
    closer = None
    if cfg["model"]:
        model, closer = parse_model_spec(cfg["model"], data)
    elif data.labels is None:
        raise ConfigError("mi needs labels or a model to define the target variable")
    try:
        y = model.predict_labels(data.features) if cfg["model"] else None
        extractors = [e.strip() for e in str(cfg["extractors"]).split(",") if e.strip()]
        discretizer = None
        metrics = {}
        rows = []
        for name in extractors:
            feature_vals, target_vals = [], []
            for run in range(int(cfg["runs"])):
                run_seed = int(cfg["seed"]) + run
                if name == "identity":
                    extractor = mi.identity_extractor()
                elif name == "random-ood":
                    extractor = mi.draw_random_ood_extractor(
                        data.n_features, int(cfg["ood_count"]), run_seed,
                        value=float(cfg["ood_value"]))
                elif name == "entropy":
                    if discretizer is None:
                        discretizer = mi.fit_entropy_discretizer(data, int(cfg["max_depth"]))
                    extractor = discretizer
                else:
                    raise ConfigError(f"unknown extractor {name!r}")
                feature, target = mi.extractor_report(data, extractor, y,
                                                      k=int(cfg["k"]), seed=run_seed)
                feature_vals.append(feature.value)
                target_vals.append(target.value)
            entry = {
                "feature_mi": float(np.mean(feature_vals)),
                "target_mi": float(np.mean(target_vals)),
                "runs": int(cfg["runs"]),
            }
            metrics[name] = entry
            rows.append([name, entry["feature_mi"], entry["target_mi"]])
        report_doc = {
            "config": _config_echo(cfg, MI_DEFAULTS),
            "metrics": metrics,
            "seeds": {"master": int(cfg["seed"])},
        }
        text = write_report(cfg["out"], report_doc,
                            ["extractor", "feature_mi", "target_mi"], rows)
        sys.stdout.write(text)
        return EXIT_OK
    finally:
        if closer:
            closer()


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON file with the command's options")
    parser.add_argument("--seed", type=int, help="master 64-bit seed")
    parser.add_argument("--out", help="output prefix for PREFIX.json and PREFIX.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmeter",
        description="Functionally-grounded evaluation metrics for model explanations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attr-eval", help="attribution metrics at a point")
    p.add_argument("--model")
    p.add_argument("--point")
    p.add_argument("--attr-file", dest="attr_file")
    p.add_argument("--methods")
    p.add_argument("--loss", choices=["zero-one", "squared-error", "cross-entropy"])
    p.add_argument("--epsilon", type=float)
    p.add_argument("--n-mc", dest="n_mc", type=int)
    p.add_argument("--zero-tolerance", dest="zero_tolerance", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--dataset")
    p.add_argument("--uniform", help="lo,hi for uniform per-feature sampling")
    p.add_argument("--pt", help="perturbation-test k (integer or 'ec')")
    p.add_argument("--pt-n", dest="pt_n", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_attr_eval)

    p = sub.add_parser("example-eval", help="example-based metrics per selector")
    p.add_argument("--dataset")
    p.add_argument("--model")
    p.add_argument("--selectors")
    p.add_argument("--n", type=int)
    p.add_argument("--sweep", help="prototype budgets, e.g. 1,2,6 or 1..10")
    p.add_argument("--bandwidth", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_example_eval)

    p = sub.add_parser("mi", help="feature/target mutual information per extractor")
    p.add_argument("--dataset")
    p.add_argument("--model")
    p.add_argument("--extractors")
    p.add_argument("--runs", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--ood-count", dest="ood_count", type=int)
    p.add_argument("--ood-value", dest="ood_value", type=float)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_mi)

    for p in sub.choices.values():
        p.set_defaults(option_types={a.dest: a.type for a in p._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolation, UnsupportedOperation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelProtocolError as exc:
        print(f"model protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (UndefinedCorrelation, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
