"""Command-line surface: dataset/attribution ingestion, external models, reports.

Exit codes: 0 success, 2 config/usage error, 3 model-protocol error,
4 numeric failure (e.g. undefined rank correlation).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import queue
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from . import attr_metrics, attr_methods, bench, example_based
from .core import (
    PROB_SUM_TOL,
    ContractViolation,
    FeatureDistribution,
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
# Seconds a child may take to exit once its stdin is closed before it is killed.
STOP_TIMEOUT = 2.0
# Rows per predict_batch request. A request carries at most this many, so a
# child's time per request, which PROTOCOL_TIMEOUT limits, stays bounded
# however many rows a batch holds.
BATCH_ROWS = 1000


class ConfigError(ValueError):
    """Invalid command configuration (maps to exit code 2)."""


class ModelProtocolError(RuntimeError):
    """The external model child violated the line-delimited JSON protocol."""


def _json_reals(value) -> np.ndarray | None:
    """A JSON list of numbers as floats, else None (also for a bool or an int
    beyond the float range)."""
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        try:
            return np.array(value, dtype=float)
        except OverflowError:
            pass
    return None


def _reply_matrix(ys: list, kind: str) -> np.ndarray | None:
    """A reply's rows converted at once when each is well formed for the
    output kind: a nonempty list of JSON numbers, as long as every other row,
    holding one number (scalar) or one class index (label). Else None."""
    if not (set(map(type, ys)) <= {list} and set(map(type, itertools.chain.from_iterable(ys)))
            <= ({int} if kind == "label" else {int, float})):
        return None
    try:
        P = np.array(ys, dtype=np.int64 if kind == "label" else float)
    except (OverflowError, ValueError):  # an int beyond the range, or ragged rows
        return None
    if (P.ndim != 2 or P.shape[1] == 0 or (kind != "probs" and P.shape[1] != 1)
            or (kind == "label" and P.min() < 0)):
        return None
    return P


# ---------------------------------------------------------------------------
# External model adapter (JSON lines over a child process's standard streams)
# ---------------------------------------------------------------------------

class ExternalModel:
    """Drives a child process speaking the one-request-per-line JSON protocol.

    ``command`` is the child's argument list. Requests are strictly
    serialized per child; responses are matched to requests by order. The
    child's stderr is captured for diagnostics.
    """

    def __init__(self, command, timeout: float = PROTOCOL_TIMEOUT):
        self.command = list(command)
        self.timeout = timeout
        self._lock = threading.Lock()
        self._stderr: list[str] = []
        self._classes = 0  # probability-row length
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
        self._pumps = [threading.Thread(target=pump, daemon=True)
                       for pump in (self._pump_stdout, self._pump_stderr)]
        for pump in self._pumps:
            pump.start()
        try:
            self.info = self._handshake()
        except BaseException:
            self._kill()
            raise

    # Each pump closes its stream at EOF: no other thread reads it, and
    # closing a stream while a thread reads it is unsafe.
    def _pump_stdout(self):
        with self._proc.stdout as stream:
            for line in stream:
                self._lines.put(line)
        self._lines.put(None)

    def _pump_stderr(self):
        with self._proc.stderr as stream:
            for line in stream:
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
        if not isinstance(info.get("batch", False), bool):
            self._fail(f"invalid batch flag in handshake: {info!r}")
        return info

    def predict(self, X) -> np.ndarray:
        """Predictions for the rows of ``X`` (an ``(n, arity)`` matrix, or one
        point), in one request: ``predict_batch`` to a child that advertises
        ``batch``, else ``predict``, which carries one row."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.info.get("batch", False):
            response = self._request({"op": "predict_batch", "X": X.tolist()})
            ys = response.get("y")
        elif len(X) == 1:
            response = self._request({"op": "predict", "x": X[0].tolist()})
            ys = [response.get("y")]
        else:
            raise ContractViolation(f"a child without 'batch' takes one row per "
                                    f"request, got {len(X)}")
        if "error" in response:
            self._fail(f"predict failed: {response['error']}")
        return self._predictions(ys, len(X))

    def _predictions(self, ys, n: int) -> np.ndarray:
        """The n rows of a reply's ``y``, checked as the protocol states: each
        holds one number (scalar), one class index (label), or one probability
        per class, with the same class count in every row and reply, and
        nonnegative entries summing to 1."""
        if not isinstance(ys, list):
            self._fail(f"predict_batch returned a 'y' that is not a list: {ys!r:.200}")
        if len(ys) != n:
            self._fail(f"predict_batch returned {len(ys)} entries for {n} rows")
        kind = self.info["output"]
        P = _reply_matrix(ys, kind)
        if P is not None and kind == "probs":
            with self._lock:  # set once, by the first probs reply
                self._classes = self._classes or P.shape[1]
        if P is None or (kind == "probs" and P.shape[1] != self._classes):
            P = self._checked_rows(ys, kind)  # fails at the first bad row
        if kind != "probs":
            return P.reshape(n)
        bad = np.flatnonzero(np.any(P < -PROB_SUM_TOL, axis=1)
                             | (np.abs(P.sum(axis=1) - 1.0) > PROB_SUM_TOL))
        if bad.size:
            self._fail(f"predict returned a negative class probability or a row that "
                       f"does not sum to 1 at row {bad[0]}: {ys[bad[0]]!r}")
        return P

    def _checked_rows(self, ys: list, kind: str) -> np.ndarray:
        """The reply's rows checked one at a time, so that an error names the
        first malformed row and its entry."""
        rows = []
        for i, y in enumerate(ys):
            values = _json_reals(y)
            if (values is None or values.size == 0 or (kind != "probs" and values.size != 1)
                    or (kind == "label" and not (type(y[0]) is int and 0 <= y[0] < 2**63))):
                self._fail(f"predict returned a malformed 'y' at row {i}: {y!r}")
            rows.append(values if kind == "probs" else y[0])
        if kind != "probs":
            return np.array(rows, dtype=np.int64 if kind == "label" else float)
        with self._lock:  # set once, by the first probs reply
            self._classes = self._classes or rows[0].size
        for i, values in enumerate(rows):
            if values.size != self._classes:
                self._fail(f"predict returned {values.size} class probabilities "
                           f"after {self._classes} at row {i}: {ys[i]!r}")
        return np.array(rows)

    def gradient(self, x, target=None):
        response = self._request({"op": "gradient", "x": [float(v) for v in np.asarray(x)]})
        if "error" in response:
            self._fail(f"gradient failed: {response['error']}")
        g = _json_reals(response.get("g"))
        if g is None or g.size != self.info["arity"]:
            self._fail(f"gradient returned a malformed 'g': {response!r}")
        return g

    def as_model_handle(self) -> ModelHandle:
        """A handle whose ``predict_fn`` sends the rows in order, one request per
        chunk of consecutive rows: up to ``BATCH_ROWS`` rows to a child that
        advertises ``batch``, one row to any other."""
        has_grad = bool(self.info["gradient"])
        step = BATCH_ROWS if self.info.get("batch", False) else 1

        def predict_fn(X):
            chunks = [self.predict(X[i:i + step]) for i in range(0, len(X), step)]
            return np.concatenate(chunks) if chunks else np.empty(0)

        return ModelHandle(
            arity=int(self.info["arity"]),
            output_kind=self.info["output"],
            predict_fn=predict_fn,
            gradient_fn=self.gradient if has_grad else None,
            gradient_capability="exact" if has_grad else "finite-difference",
            name=f"external({' '.join(self.command)})",
        )

    def _kill(self):
        self._proc.kill()
        self.close()

    def close(self):
        """Close the child's stdin, wait up to ``STOP_TIMEOUT`` seconds for it to
        exit and for the pumps to close its output streams, and kill it if it
        has not exited by then."""
        try:
            self._proc.stdin.close()
        except OSError:  # a buffered request the exited child cannot take
            pass
        # Popen.wait(timeout) polls with sleeps of up to 50 ms; a blocking
        # wait on a thread returns the moment the child exits
        waiter = threading.Thread(target=self._reap, daemon=True)
        waiter.start()
        waiter.join(STOP_TIMEOUT)
        if waiter.is_alive():
            self._proc.kill()
            self._proc.wait()

    def _reap(self):
        self._proc.wait()
        for pump in self._pumps:
            pump.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# Dataset and model specs
# ---------------------------------------------------------------------------

def _read_text(path, what: str) -> str:
    """A UTF-8 text file's contents; a file that cannot be read is a config error."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read {what} {str(path)!r}: {exc}") from None


def load_dataset_csv(path) -> TabularDataset:
    """CSV with a header row; an optional final 'label' column holds classes."""
    rows = list(csv.reader(io.StringIO(_read_text(path, "dataset path"), newline="")))
    if len(rows) < 2:
        raise ConfigError(f"dataset {path} needs a header and at least one row")
    header = rows[0]
    has_label = header and header[-1] == "label"
    names = header[:-1] if has_label else header
    feats, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ConfigError(f"dataset {path} line {lineno}: {len(row)} cells, "
                              f"the header has {len(header)}")
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
    return load_dataset_csv(spec)


def parse_model_spec(spec: str, data: TabularDataset | None,
                     stack: contextlib.ExitStack) -> ModelHandle:
    """The model a spec names; an ``exec:`` child is entered into ``stack``,
    whose closing stops it."""
    if spec == "park":
        return bench.park_model()
    if spec == "tree" or spec.startswith("tree:"):
        depth = _parse_int(spec.split(":", 1)[1], "tree depth") if ":" in spec else 5
        if data is None:
            raise ConfigError("the tree model needs a dataset to fit on")
        return bench.fit_decision_tree(data, depth).as_model_handle()
    if spec.startswith("tokens:"):
        return bench.token_benchmark(_tokens_seed(spec))[1]
    if spec.startswith("exec:"):
        try:
            command = shlex.split(spec[len("exec:"):])
        except ValueError as exc:  # an unterminated quote or a trailing escape
            raise ConfigError(f"bad model spec {spec!r}: {exc}") from None
        if not command:
            raise ConfigError(f"model spec {spec!r} names no command")
        return stack.enter_context(ExternalModel(command)).as_model_handle()
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
        try:
            Path(out_prefix).parent.mkdir(parents=True, exist_ok=True)
            Path(out_prefix + ".json").write_text(text, encoding="utf-8")
            with open(out_prefix + ".csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(csv_header)
                for row in csv_rows:
                    writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        except OSError as exc:
            raise ConfigError(f"cannot write the report to {out_prefix!r}: {exc}") from None
    return text


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _load_json(path: str, what: str):
    try:
        return json.loads(_read_text(path, what))
    except ValueError as exc:  # malformed JSON
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from None


_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer beyond the float range
        return False


def _merge_config(args: argparse.Namespace) -> dict:
    """Config-file values fill options the command line left at defaults.

    Each value must have its option's type; it is checked, not converted.
    Float options must be finite and the seed nonnegative, wherever they
    were set.
    """
    merged = vars(args).copy()
    config_path = merged.pop("config", None)
    option_types = merged.pop("option_types")
    parser_defaults = merged.pop("option_defaults")
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


def _parse_names(text, what: str) -> list[str]:
    """A comma-separated list of names; an empty list is an error."""
    names = [n.strip() for n in str(text).split(",") if n.strip()]
    if not names:
        raise ConfigError(f"the {what} list {text!r} names none")
    return names


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
    for part in text.split(","):
        lo, sep, hi = part.partition("..")
        try:
            budgets = range(int(lo), int(hi if sep else lo) + 1)
        except ValueError as exc:
            raise ConfigError(f"bad budget list {text!r}: {exc}") from None
        if not budgets:
            raise ConfigError(f"budget range {part!r} is empty")
        out.extend(budgets)
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


# Each command returns the report's metrics, the CSV header and the CSV rows.
Table = tuple[dict, list[str], list[list]]


def cmd_attr_eval(cfg: dict, stack: contextlib.ExitStack) -> Table:
    if not cfg["model"]:
        raise ConfigError("attr-eval needs --model")
    data = parse_dataset_spec(cfg["dataset"]) if cfg["dataset"] else None
    model = parse_model_spec(cfg["model"], data, stack)
    if cfg["attr_file"]:
        payload = _load_attr_file(cfg["attr_file"])
        point, values = _json_reals(payload["point"]), _json_reals(payload["values"])
        if point is None or values is None:
            raise ConfigError("attribution file point and values must be lists of numbers")
    elif cfg["point"]:
        point = np.asarray(_parse_float_list(cfg["point"]), dtype=float)
    else:
        raise ConfigError("attr-eval needs --point (or --attr-file)")
    if point.size != model.arity:
        raise ConfigError(f"point has {point.size} coordinates, model takes {model.arity}")
    if cfg["attr_file"]:
        names = [str(payload["method"])]
        attrs = [attr_methods.AttributionVector(point, values, names[0])]
    else:
        names = _parse_names(cfg["methods"], "method")
        attrs = [attr_methods.compute_attribution(m, model, point, seed=cfg["seed"],
                                                  steps=cfg["steps"]) for m in names]

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
        loss = loss_by_name(cfg["loss"])
    else:
        loss = loss_by_name("squared-error" if model.output_kind == "scalar" else "zero-one")
    mc_cfg = attr_metrics.ExpectationConfig(
        distribution=distribution, loss=loss, n_mc_samples=cfg["n_mc"],
        zero_tolerance=float(cfg["zero_tolerance"]), seed=cfg["seed"])

    want_pt = cfg["pt"] is not None
    if want_pt and data is None:
        raise ConfigError("the perturbation test needs --dataset as its corpus")
    pt_k = _parse_int(cfg["pt"], "--pt") if want_pt and cfg["pt"] != "ec" else None
    metrics = {}
    rows = []
    header = ["method", "complexity", "monotonicity", "effective_complexity",
              "non_sensitivity"] + (["perturbation_test"] if want_pt else [])
    entries = attr_metrics.attribution_report(attrs, model, float(cfg["epsilon"]), mc_cfg)
    for method, attr, entry in zip(names, attrs, entries):
        row = [method, entry["complexity"], entry["monotonicity"],
               entry["effective_complexity"], entry["non_sensitivity"]]
        if want_pt:
            k = entry["effective_complexity"] if pt_k is None else pt_k
            score = attr_metrics.perturbation_test(attr, model, k, data, cfg["pt_n"], cfg["seed"])
            entry["perturbation_test"] = score
            entry["pt_k"] = k
            row.append(score)
        metrics[method] = entry
        rows.append(row)
    return metrics, header, rows


EXAMPLE_DEFAULTS = {
    "dataset": None, "model": "tree:5",
    "selectors": "kmedoids,mmd,protodash", "n": 6, "sweep": None,
    "bandwidth": None, "seed": 0, "out": None,
}


def cmd_example_eval(cfg: dict, stack: contextlib.ExitStack) -> Table:
    if not cfg["dataset"]:
        raise ConfigError("example-eval needs --dataset")
    selectors = _parse_names(cfg["selectors"], "selector")
    n_values = _parse_n_range(cfg["sweep"]) if cfg["sweep"] else [cfg["n"]]
    data = parse_dataset_spec(cfg["dataset"])
    if data.labels is None:
        raise ConfigError("example-eval needs a labeled dataset")
    model = parse_model_spec(cfg["model"], data, stack)
    bandwidth = None if cfg["bandwidth"] is None else float(cfg["bandwidth"])
    table = example_based.metrics_vs_n(data, model, selectors, n_values, bandwidth)
    metrics = {s: curve if cfg["sweep"] else curve[0] for s, curve in table.items()}
    # one row per budget of each listed selector, repeats included
    rows = [[s, point["n"], point["non_representativeness"], point["diversity"]]
            for s in selectors for point in table[s]]
    return metrics, ["selector", "n", "non_representativeness", "diversity"], rows


MI_DEFAULTS = {
    "dataset": None, "model": None,
    "extractors": "identity,random-ood,entropy", "runs": 50, "k": 3,
    "ood_count": 3, "ood_value": -10.0, "max_depth": 3, "seed": 0, "out": None,
}


def cmd_mi(cfg: dict, stack: contextlib.ExitStack) -> Table:
    from . import mi  # only this command needs scipy

    if not cfg["dataset"]:
        raise ConfigError("mi needs --dataset")
    names = _parse_names(cfg["extractors"], "extractor")
    data = parse_dataset_spec(cfg["dataset"])
    if cfg["model"]:
        y = parse_model_spec(cfg["model"], data, stack).predict_labels(data.features)
    elif data.labels is None:
        raise ConfigError("mi needs labels or a model to define the target variable")
    else:
        y = None
    metrics = mi.extractor_table(data, names, y, cfg["runs"], cfg["k"], cfg["seed"],
                                 cfg["ood_count"], cfg["ood_value"], cfg["max_depth"])
    rows = [[name, metrics[name]["feature_mi"], metrics[name]["target_mi"]] for name in names]
    return metrics, ["extractor", "feature_mi", "target_mi"], rows


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
    p.set_defaults(func=cmd_attr_eval, option_defaults=ATTR_DEFAULTS)

    p = sub.add_parser("example-eval", help="example-based metrics per selector")
    p.add_argument("--dataset")
    p.add_argument("--model")
    p.add_argument("--selectors")
    p.add_argument("--n", type=int)
    p.add_argument("--sweep", help="prototype budgets, e.g. 1,2,6 or 1..10")
    p.add_argument("--bandwidth", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_example_eval, option_defaults=EXAMPLE_DEFAULTS)

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
    p.set_defaults(func=cmd_mi, option_defaults=MI_DEFAULTS)

    for p in sub.choices.values():
        p.set_defaults(option_types={a.dest: a.type for a in p._actions})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        with contextlib.ExitStack() as stack:
            metrics, csv_header, csv_rows = args.func(cfg, stack)
            # the output destination is left out: reports must be
            # byte-identical regardless of where they are written
            report = {"config": {k: cfg[k] for k in sorted(args.option_defaults) if k != "out"},
                      "metrics": metrics, "seeds": {"master": cfg["seed"]}}
            sys.stdout.write(write_report(cfg["out"], report, csv_header, csv_rows))
        return EXIT_OK
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
