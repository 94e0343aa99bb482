"""Command-line surface: dataset/attribution ingestion, external models, reports.

Exit codes: 0 success, 2 config/usage error, 3 model-protocol error,
4 numeric failure (e.g. undefined rank correlation).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import queue
import shlex
import subprocess
import sys
import threading
import typing
from pathlib import Path

import numpy as np

from . import attr_metrics, attr_methods, bench, example_based, park, protocol
from .core import (
    ContractViolation,
    FeatureDistribution,
    ModelHandle,
    TabularDataset,
    UndefinedCorrelation,
    UnsupportedOperation,
    loss_by_name,
)
from .handle import OutputKind
from .protocol import ModelProtocolError

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
# Characters read of one line from a child; a longer reply fails the protocol
# and a longer stderr line is cut. A BATCH_ROWS-row probs reply with 1000
# classes at 25 characters per probability is 25 M characters.
LINE_CAP = 1 << 25
# Queued by the stdout pump in place of a line longer than LINE_CAP.
_OVERLONG = object()


class ConfigError(ValueError):
    """Invalid command configuration (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# External model adapter (JSON lines over a child process's standard streams)
# ---------------------------------------------------------------------------

class ExternalModel:
    """Drives a child process speaking the one-request-per-line JSON protocol.

    ``command`` is the child's argument list. Requests are strictly
    serialized per child; responses are matched to requests by order. The
    child's stderr is captured for diagnostics. ``form``, the prediction form
    of ``xmeter.protocol``, is the handshake's best: binary, batch or row.
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
        self.form = ("binary" if self.info.get("binary", False)
                     else "batch" if self.info.get("batch", False) else "row")

    # Each pump closes its stream at EOF: no other thread reads it, and
    # closing a stream while a thread reads it is unsafe. Lines are read at
    # most LINE_CAP characters at a time, so a child that never ends a line
    # cannot grow the driver's memory.
    def _pump_stdout(self):
        with self._proc.stdout as stream:
            for line in iter(lambda: stream.readline(LINE_CAP), ""):
                if not line.endswith("\n") and len(line) == LINE_CAP:
                    self._lines.put(_OVERLONG)  # stop reading; the request fails
                    return
                self._lines.put(line)
        self._lines.put(None)

    def _pump_stderr(self):
        with self._proc.stderr as stream:
            cut = False  # inside a line longer than LINE_CAP, past its kept start
            for line in iter(lambda: stream.readline(LINE_CAP), ""):
                if not cut:
                    self._stderr.append(line.rstrip("\n"))
                    del self._stderr[:-50]
                cut = not line.endswith("\n")

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
            if line is _OVERLONG:
                self._kill()
                self._fail(f"response line longer than LINE_CAP = {LINE_CAP} characters; "
                           "child stopped")
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
        if type(arity) is not int or arity < 1:  # true is an int to isinstance
            self._fail(f"invalid arity in handshake: {info!r}")
        if info.get("output") not in typing.get_args(OutputKind):
            self._fail(f"invalid output kind in handshake: {info!r}")
        for flag, default in (("gradient", None), ("batch", False), ("binary", False)):
            if not isinstance(info.get(flag, default), bool):
                self._fail(f"invalid {flag} flag in handshake: {info!r}")
        if info.get("binary", False) and not info.get("batch", False):
            self._fail(f"'binary' without 'batch' in handshake: {info!r}")
        return info

    def predict(self, X) -> np.ndarray:
        """Predictions for the rows of ``X`` (an ``(n, arity)`` matrix, or one
        point), in one request of the child's form; a ``row`` request carries
        one row."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.form == "row" and len(X) != 1:
            raise ContractViolation(f"a child without 'batch' takes one row per "
                                    f"request, got {len(X)}")
        response = self._request(protocol.request(self.form, X))
        if "error" in response:
            self._fail(f"predict failed: {response['error']}")
        try:
            with self._lock:  # the first probs reply sets the class count
                Y = protocol.read_reply(self.form, response, self.info["output"], len(X),
                                        self._classes)
                self._classes = Y.shape[1] if Y.ndim == 2 else 0
        except ModelProtocolError as exc:
            self._fail(str(exc))
        return Y

    def gradient(self, x, target=None):
        """The gradient at x, of the scalar output or of class ``target``'s
        probability; a request names its ``target`` only when there is one."""
        request = {"op": "gradient", "x": np.asarray(x, dtype=float).tolist()}
        if target is not None:
            request["target"] = int(target)
        response = self._request(request)
        if "error" in response:
            self._fail(f"gradient failed: {response['error']}")
        g = protocol.number_matrix([response.get("g")], width=self.info["arity"])
        if g is None:
            self._fail(f"gradient returned a malformed 'g': {response!r}")
        return g[0]

    def as_model_handle(self) -> ModelHandle:
        """A handle whose ``predict_fn`` sends the rows in order, one request per
        chunk of consecutive rows: up to ``BATCH_ROWS`` rows to a child that
        advertises ``batch``, one row to any other. Zero rows send no request
        and predict an empty array of the replies' shape and type: (0, classes)
        for ``probs``, with the class count of the replies so far (0 before any)."""
        has_grad = bool(self.info["gradient"])
        step = 1 if self.form == "row" else BATCH_ROWS
        kind = self.info["output"]

        def predict_fn(X):
            chunks = [self.predict(X[i:i + step]) for i in range(0, len(X), step)]
            if chunks:
                return np.concatenate(chunks)
            return np.empty((0, self._classes) if kind == "probs" else 0,
                            dtype=protocol.reply_dtype(kind))

        return ModelHandle(
            arity=int(self.info["arity"]),
            output_kind=kind,
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


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}") from None


def _check_size(option: str, rows: int, width: int):
    """Reject, before the run, a size whose ``(rows, width)`` float matrix numpy
    refuses (without allocating it); a negative size is left to the callee."""
    try:
        np.empty((max(rows, 0), width))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{option}: a {rows} x {width} float matrix is too large "
                          f"({exc})") from None


def _tokens_seed(spec: str) -> int:
    kv = _parse_kv(spec[len("tokens:"):])
    seed = _parse_int(kv.pop("seed", "0"), "tokens seed", minimum=0)
    if kv:
        raise ConfigError(f"unknown tokens keys: {sorted(kv)}")
    return seed


def parse_dataset_spec(spec: str, class_matrices: bool = False) -> TabularDataset:
    """A CSV path, 'synth:...' generator options, or 'tokens:seed=N'. With
    ``class_matrices`` (example-eval, which holds an m x m matrix per class), a
    synth spec whose largest class's matrix numpy refuses is a config error
    before any row is generated."""
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
                n_samples=_parse_int(kv.pop("n", "300"), "synth n"),
                n_features=_parse_int(kv.pop("features", "2"), "synth features"),
                n_classes=_parse_int(kv.pop("classes", "3"), "synth classes"),
                separation=_parse_float(kv.pop("sep", "3.0"), "synth sep"),
                n_noise_features=_parse_int(kv.pop("noise", "0"), "synth noise"),
                layout=kv.pop("layout", "spread"),
                quantize_step=_parse_float(quantize, "synth quantize") if quantize else None,
            )
        except (ValueError, ContractViolation) as exc:
            raise ConfigError(f"bad synth spec: {exc}") from None
        if kv:
            raise ConfigError(f"unknown synth keys: {sorted(kv)}")
        _check_size("synth n and features", gen.n_samples, gen.n_features)
        if class_matrices:
            largest = -(-gen.n_samples // gen.n_classes)
            _check_size("--dataset", largest, largest)
        try:
            return bench.synth_tabular(gen, seed)
        except ContractViolation as exc:
            raise ConfigError(f"bad synth spec: {exc}") from None
    if spec.startswith("tokens:"):
        return bench.token_benchmark(_tokens_seed(spec))[0]
    return load_dataset_csv(spec)


def parse_model_spec(spec: str, data: TabularDataset | None,
                     stack: contextlib.ExitStack) -> ModelHandle:
    """The model a spec names; an ``exec:`` child is entered into ``stack``,
    whose closing stops it."""
    if spec == "park":
        return park.park_model()
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


_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 str: ((str,), "a string")}


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer beyond the float range
        return False


def _merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Config-file values fill options the command line left unset, and the
    option table's defaults fill the rest.

    Each value must have its option's type; it is checked, not converted.
    Float options must be finite, the seed nonnegative and the options of
    ``OPTION_LIMITS`` within their limits, wherever they were set.
    """
    merged = {key: getattr(args, key) for key in options}
    if args.config:
        loaded = _load_json(args.config, "config file")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        for key, value in loaded.items():
            types, what = _CONFIG_TYPES[options[key][0]]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
            if merged[key] is None:
                merged[key] = value
    for key, (kind, default, _) in options.items():
        if merged[key] is None:
            merged[key] = default
        elif kind is float and not _is_finite(merged[key]):
            raise ConfigError(f"option {key!r} must be finite, got {merged[key]!r}")
    if merged["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {merged['seed']}")
    for key, limit in OPTION_LIMITS.items():
        if key in options and merged[key] > limit:
            raise ConfigError(f"--{key} must be <= {limit}, got {merged[key]}")
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


def _parse_n_range(text: str, rows: int) -> list[int]:
    """The budgets of parts such as 2 or 1..10. A bound outside 1..``rows`` (no
    class has more rows) is rejected before the range's list is built."""
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi if sep else lo)
        except ValueError as exc:
            raise ConfigError(f"bad budget list {text!r}: {exc}") from None
        if lo < 1 or hi > rows:
            raise ConfigError(f"--sweep budgets must be in 1..{rows} (the dataset's rows), "
                              f"got {part!r}")
        if lo > hi:
            raise ConfigError(f"budget range {part!r} is empty")
        out.extend(range(lo, hi + 1))
    return out


def _load_attr_file(path: str) -> tuple[np.ndarray, np.ndarray, str]:
    """The point, the values and the method name of an attribution file."""
    payload = _load_json(path, "attribution file")
    required = {"point", "values", "method"}
    if not isinstance(payload, dict) or set(payload) != required:
        raise ConfigError("attribution file must hold exactly point, values, method")
    point, values = (protocol.number_matrix([payload[key]]) for key in ("point", "values"))
    if point is None or values is None:
        raise ConfigError("attribution file point and values must be lists of numbers")
    return point[0], values[0], str(payload["method"])


def _benchmark_point(spec: str, model: ModelHandle) -> np.ndarray:
    """A benchmark model's default point: ``park.PARK_POINT``, or the holdout row
    ``bench.choose_explained_point`` picks on a token model's own corpus."""
    if spec == "park":
        return np.asarray(park.PARK_POINT)
    if spec.startswith("tokens:"):
        corpus = bench.token_benchmark(_tokens_seed(spec))[0]
        return corpus.features[bench.choose_explained_point(corpus, model)]
    raise ConfigError("attr-eval needs --point (or --attr-file)")


# Each command returns the report's metrics, the CSV header and the CSV rows.
Table = tuple[dict, list[str], list[list]]


def cmd_attr_eval(cfg: dict, stack: contextlib.ExitStack) -> Table:
    if not cfg["model"]:
        raise ConfigError("attr-eval needs --model")
    data = parse_dataset_spec(cfg["dataset"]) if cfg["dataset"] else None
    model = parse_model_spec(cfg["model"], data, stack)
    loss = loss_by_name(cfg["loss"] or ("squared-error" if model.output_kind == "scalar"
                                        else "zero-one"))
    _check_size("--n-mc", cfg["n_mc"], model.arity)
    want_pt = cfg["pt"] is not None
    if want_pt:
        _check_size("--pt-n", cfg["pt_n"], model.arity)
    if cfg["attr_file"]:
        point, values, method = _load_attr_file(cfg["attr_file"])
    elif cfg["point"]:
        point = np.asarray(_parse_float_list(cfg["point"]), dtype=float)
    else:  # a built-in benchmark's own point, which the report's config then names
        point = _benchmark_point(cfg["model"], model)
        cfg["point"] = ",".join(map(repr, point.tolist()))
    if point.size != model.arity:
        raise ConfigError(f"point has {point.size} coordinates, model takes {model.arity}")
    if cfg["attr_file"]:
        names, attrs = [method], [attr_methods.AttributionVector(point, values, method)]
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
    mc_cfg = attr_metrics.ExpectationConfig(
        distribution=distribution, loss=loss, n_mc_samples=cfg["n_mc"],
        zero_tolerance=float(cfg["zero_tolerance"]), seed=cfg["seed"])

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


def cmd_example_eval(cfg: dict, stack: contextlib.ExitStack) -> Table:
    if not cfg["dataset"]:
        raise ConfigError("example-eval needs --dataset")
    selectors = _parse_names(cfg["selectors"], "selector")
    data = parse_dataset_spec(cfg["dataset"], class_matrices=True)
    if data.labels is None:
        raise ConfigError("example-eval needs a labeled dataset")
    # each class holds its m x m distance and kernel matrices
    largest = int(np.bincount(data.labels).max())
    _check_size("--dataset", largest, largest)
    n_values = _parse_n_range(cfg["sweep"], data.n_samples) if cfg["sweep"] else [cfg["n"]]
    model = parse_model_spec(cfg["model"], data, stack)
    bandwidth = None if cfg["bandwidth"] is None else float(cfg["bandwidth"])
    table = example_based.metrics_vs_n(data, model, selectors, n_values, bandwidth)
    metrics = {s: curve if cfg["sweep"] else curve[0] for s, curve in table.items()}
    # one row per budget of each listed selector, repeats included
    rows = [[s, point["n"], point["non_representativeness"], point["diversity"]]
            for s in selectors for point in table[s]]
    return metrics, ["selector", "n", "non_representativeness", "diversity"], rows


def cmd_mi(cfg: dict, stack: contextlib.ExitStack) -> Table:
    from . import mi  # only this command needs scipy

    if not cfg["dataset"]:
        raise ConfigError("mi needs --dataset")
    names = _parse_names(cfg["extractors"], "extractor")
    data = parse_dataset_spec(cfg["dataset"])
    if "random-ood" in names and not 0 < cfg["ood_count"] <= data.n_features:
        raise ConfigError(f"--ood-count must be in 1..{data.n_features} (the dataset width), "
                          f"got {cfg['ood_count']}")
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
# Option table, argument parsing and entry point
# ---------------------------------------------------------------------------

_TEXT = (str, None, None)  # a text option without a default or help

# Upper limits of the options that count a command's work: each --steps is one
# gradient call (one round trip over exec:), each --runs one set of MI
# estimates. A larger value is refused before any model is built.
OPTION_LIMITS = {"steps": 100_000, "runs": 10_000}


def _options(**options) -> dict:
    """A command's options, then the --seed and --out every command takes."""
    return {**options, "seed": (int, 0, "master 64-bit seed"),
            "out": (str, None, "output prefix for PREFIX.json and PREFIX.csv")}


# Each command's handler, help and options, name -> (type, default, help):
# --NAME, with dashes for underscores, sets the config key NAME. Every command
# also takes --config, a JSON file holding any of its config keys.
COMMANDS = {
    "attr-eval": (cmd_attr_eval, "attribution metrics at a point", _options(
        model=_TEXT, point=_TEXT, attr_file=_TEXT,
        methods=(str, "saliency,inpxgrad,intgrad,random", None), loss=_TEXT,
        epsilon=(float, 0.01, None), n_mc=(int, 5000, None),
        zero_tolerance=(float, 1e-6, None), steps=(int, 64, None), dataset=_TEXT,
        uniform=(str, None, "lo,hi for uniform per-feature sampling"),
        pt=(str, None, "perturbation-test k (integer or 'ec')"), pt_n=(int, 500, None))),
    "example-eval": (cmd_example_eval, "example-based metrics per selector", _options(
        dataset=_TEXT, model=(str, "tree:5", None),
        selectors=(str, "kmedoids,mmd,protodash", None), n=(int, 6, None),
        sweep=(str, None, "prototype budgets, e.g. 1,2,6 or 1..10"),
        bandwidth=(float, None, None))),
    "mi": (cmd_mi, "feature/target mutual information per extractor", _options(
        dataset=_TEXT, model=_TEXT, extractors=(str, "identity,random-ood,entropy", None),
        runs=(int, 50, None), k=(int, 3, None), ood_count=(int, 3, None),
        ood_value=(float, -10.0, None), max_depth=(int, 3, None))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmeter",
        description="Functionally-grounded evaluation metrics for model explanations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, options) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for key, (kind, _, option_help) in options.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=option_help)
        p.add_argument("--config", help="JSON file with the command's options")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, options = COMMANDS[args.command]
    try:
        cfg = _merge_config(args, options)
        with contextlib.ExitStack() as stack:
            metrics, csv_header, csv_rows = handler(cfg, stack)
            # the output destination is left out: reports must be
            # byte-identical regardless of where they are written
            report = {"config": {k: cfg[k] for k in sorted(options) if k != "out"},
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
