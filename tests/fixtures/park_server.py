"""Standalone line-delimited JSON model server re-implementing the Park function.

Deliberately does not import the package under test: it is the independent
side of the cross-implementation check for the external-model adapter. It
takes JSON rows ('X') only, as a child without "binary" does.
"""

import json
import math
import sys


def f(x):
    return (2.0 / 3.0) * math.exp(x[0] + x[1]) - x[3] * math.sin(x[2]) + x[2]


def grad(x):
    e = (2.0 / 3.0) * math.exp(x[0] + x[1])
    return [e, e, 1.0 - x[3] * math.cos(x[2]), -math.sin(x[2]), 0.0, 0.0]


def main():
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
            op = req.get("op")
            if op == "info":
                resp = {"arity": 6, "output": "scalar", "gradient": True, "batch": True}
            elif op == "predict_batch":
                resp = {"y": [[f(x)] for x in req["X"]]}
            elif op == "gradient":
                resp = {"g": [grad(x) for x in req["X"]]}
            else:
                resp = {"error": f"unknown op {op!r}"}
        except Exception as exc:
            resp = {"error": str(exc)}
        sys.stdout.write(json.dumps(resp) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
