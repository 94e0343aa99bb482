"""Reference server for the line-delimited JSON model protocol.

Serves the built-in models over stdin/stdout so any driver can be tested
against a conforming child:

    python -m xmeter.model_server --model park

Requests, one JSON object per line:
    {"op": "info"}                -> {"arity": N, "output": "...", "gradient": bool,
                                      "batch": true, "binary": true}
    {"op": "predict", "x": [...]} -> {"y": [...]}
    {"op": "predict_batch", "X": [[...], ...]} -> {"y": [[...], ...]}
    {"op": "predict_batch", "Xb": "<base64>"}  -> {"yb": "<base64>"}
    {"op": "gradient", "x": [...]} -> {"g": [...]} or {"error": "unsupported"}

A ``predict_batch`` reply holds one entry per row of X, each what a
``predict`` reply's ``y`` holds for that row; the rows are evaluated in one
``predict_batch`` call of the model. With ``Xb`` the rows come, and the reply
goes, in the binary format of ``xmeter.protocol``: ``Xb`` holds the n x N
float64 inputs, ``yb`` the n float64 values (scalar), the n x classes float64
probabilities (probs) or the n int64 class indices (label), each little-endian
and row-major. ``cli.ExternalModel`` sends ``Xb`` only to a child whose
handshake says ``"binary": true``; others get ``X``. A malformed request gets
an ``error`` reply and the server keeps serving.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import protocol
from .handle import ModelHandle
from .park import park_model


def echo_model(arity: int) -> ModelHandle:
    """Scalar fixture that returns its first coordinate; no gradient support."""
    return ModelHandle(
        arity=arity,
        output_kind="scalar",
        predict_fn=lambda X: X[:, 0],
        gradient_capability="none",
        name="echo",
    )


def _reply_rows(output_kind: str, Y) -> list:
    """One reply entry per row of the model's predictions ``Y``: a list of
    floats (probs), one float (scalar) or one int (label), converted by one
    ``tolist`` call."""
    rows = np.asarray(Y, dtype=None if output_kind == "label" else float).tolist()
    if output_kind == "probs":
        return rows
    return [[y] for y in rows] if output_kind == "scalar" else [[int(y)] for y in rows]


def serve(model: ModelHandle, stdin=None, stdout=None) -> None:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    has_gradient = model.gradient_capability == "exact"
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            op = request.get("op")
            if op == "info":
                response = {
                    "arity": model.arity,
                    "output": model.output_kind,
                    "gradient": has_gradient,
                    "batch": True,
                    "binary": True,
                }
            elif op == "predict":
                y = model.predict(request["x"])
                response = {"y": _reply_rows(model.output_kind, [y])[0]}
            elif op == "predict_batch" and "Xb" in request:
                X = protocol.decode(request["Xb"], protocol.FLOAT64).reshape(-1, model.arity)
                Y = model.predict_batch(X)
                response = {"yb": protocol.encode(Y, protocol.reply_dtype(model.output_kind))}
            elif op == "predict_batch":
                Y = model.predict_batch(np.asarray(request["X"], dtype=float))
                response = {"y": _reply_rows(model.output_kind, Y)}
            elif op == "gradient":
                if not has_gradient:
                    response = {"error": "unsupported"}
                else:
                    g = model.gradient_fn(np.asarray(request["x"], dtype=float), None)
                    response = {"g": [float(v) for v in g]}
            else:
                response = {"error": f"unknown op {op!r}"}
        except Exception as exc:  # malformed request: report, keep serving
            response = {"error": f"{type(exc).__name__}: {exc}"}
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=["park", "echo"], default="park")
    parser.add_argument("--arity", type=int, default=4, help="arity of the echo model")
    args = parser.parse_args(argv)
    model = park_model() if args.model == "park" else echo_model(args.arity)
    serve(model)
    return 0


if __name__ == "__main__":
    # a driver waits for this exit: skip the interpreter's teardown (about
    # 25 ms), which has nothing left to release, once the output is flushed
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
