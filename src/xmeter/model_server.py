"""Reference server for the line-delimited JSON model protocol.

Serves the built-in models over stdin/stdout so any driver can be tested
against a conforming child:

    python -m xmeter.model_server --model park

Requests, one JSON object per line:
    {"op": "info"}                 -> {"arity": N, "output": "...", "gradient": bool,
                                       "batch": true, "binary": true}
    a prediction request of a form of ``xmeter.protocol.FORMS`` -> its reply
    a gradient request of a form   -> its reply, or {"error": "unsupported"}
    (with an optional "target": k, the gradient of class k's probability)

Each prediction request is one ``predict_batch`` call of the model, and each
gradient request one ``gradient_fn`` call. A malformed request, rows that
break the protocol's number rule, a one-row request (``"x"``, a form that is
gone) and a non-finite output get an ``error`` reply, and the server keeps
serving.
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


def serve(model: ModelHandle, stdin=None, stdout=None) -> None:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    for line in stdin:
        if line.strip():
            stdout.write(json.dumps(_answer(model, line)) + "\n")
            stdout.flush()


def _answer(model: ModelHandle, line: str) -> dict:
    """The reply to one request line."""
    has_gradient = model.gradient_capability == "exact"
    try:
        request = json.loads(line)
        op, form = request.get("op"), protocol.form_of(request)
        # an overflow is refused as the non-finite output it gives, not warned about
        with np.errstate(all="ignore"):
            if form and op != protocol.GRADIENT:
                Y = model.predict_batch(protocol.read_rows(form, request, model.arity))
                return protocol.reply(form, Y, model.output_kind)
            if form and has_gradient:
                # its rows are checked as the rows of a predict request are
                X = protocol.read_rows(form, request, model.arity)
                target = request.get("target")
                if not (target is None or type(target) is int and target >= 0):
                    raise ValueError(f"'target' must be a nonnegative integer, got {target!r}")
                G = model.checked_gradients(model.gradient_fn(X, target), len(X))
                return protocol.reply(form, G, protocol.GRADIENT)
        if op == "info":
            return {"arity": model.arity, "output": model.output_kind,
                    "gradient": has_gradient, "batch": True, "binary": True}
        return {"error": "unsupported" if op == protocol.GRADIENT and not has_gradient
                else f"unknown op {op!r} with fields {sorted(request)}"}
    except Exception as exc:  # malformed request: report, keep serving
        return {"error": f"{type(exc).__name__}: {exc}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=["park"], default="park")
    parser.parse_args(argv)
    serve(park_model())
    return 0


if __name__ == "__main__":
    # a driver waits for this exit: skip the interpreter's teardown (about
    # 25 ms), which has nothing left to release, once the output is flushed
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
