"""Reference server for the line-delimited JSON model protocol.

Serves the built-in models over stdin/stdout so any driver can be tested
against a conforming child:

    python -m xmeter.model_server --model park

Requests, one JSON object per line:
    {"op": "info"}                -> {"arity": N, "output": "...", "gradient": bool,
                                      "batch": true}
    {"op": "predict", "x": [...]} -> {"y": [...]}
    {"op": "predict_batch", "X": [[...], ...]} -> {"y": [[...], ...]}
    {"op": "gradient", "x": [...]} -> {"g": [...]} or {"error": "unsupported"}

A ``predict_batch`` reply holds one entry per row of X, each what a
``predict`` reply's ``y`` holds for that row; the rows are evaluated in one
``predict_batch`` call of the model.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import park_model
from .core import ModelHandle


def echo_model(arity: int) -> ModelHandle:
    """Scalar fixture that returns its first coordinate; no gradient support."""
    return ModelHandle(
        arity=arity,
        output_kind="scalar",
        predict_fn=lambda X: X[:, 0],
        gradient_capability="none",
        name="echo",
    )


def _prediction_payload(output_kind: str, y) -> list:
    """The ``y`` of one row's reply for the model's prediction ``y`` of that row."""
    if output_kind == "probs":
        return [float(v) for v in y]
    return [float(y)] if output_kind == "scalar" else [int(y)]


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
                }
            elif op == "predict":
                response = {"y": _prediction_payload(model.output_kind,
                                                     model.predict(request["x"]))}
            elif op == "predict_batch":
                Y = model.predict_batch(np.asarray(request["X"], dtype=float))
                response = {"y": [_prediction_payload(model.output_kind, y) for y in Y]}
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
    sys.exit(main())
