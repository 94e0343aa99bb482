"""Protocol fixture with fixed replies, for the driver's fault handling.

    python scripted_server.py INFO PREDICT GRADIENT [DELAY [BATCH]]

Answers the handshake with the JSON text INFO, every predict with PREDICT and
every gradient with GRADIENT. A predict_batch gets one entry per row, each the
'y' of the next PREDICT reply; a BATCH of "short" leaves out the last entry,
and any other nonempty BATCH is sent as the whole reply instead. A
predict_batch whose rows come binary ('Xb', whose row count follows from the
arity in INFO) gets the same entries, flattened, as 'yb': little-endian int64
when INFO's output is "label", else float64, base64-encoded. After the
handshake the child sleeps DELAY seconds per row before each reply (a
gradient is one row). A reply may hold bare NaN tokens, which Python's json
reads. Each reply argument may hold several replies, one per line, sent in
turn and repeated.
"""

import base64
import itertools
import json
import struct
import sys
import time

replies = {op: itertools.cycle(text.splitlines())
           for op, text in zip(("info", "predict", "gradient"), sys.argv[1:4])}
delay = float(sys.argv[4]) if len(sys.argv) > 4 else 0.0
batch = sys.argv[5] if len(sys.argv) > 5 else ""


def packed(ys):
    """The 'yb' text of the reply entries ``ys``."""
    code = "q" if json.loads(sys.argv[1].splitlines()[0])["output"] == "label" else "d"
    values = list(itertools.chain.from_iterable(ys))
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode()


for line in sys.stdin:
    request = json.loads(line)
    op = request.get("op")
    if op == "predict_batch":
        binary = "Xb" in request
        if binary:
            arity = json.loads(sys.argv[1].splitlines()[0])["arity"]
            rows = len(base64.b64decode(request["Xb"])) // (8 * arity)
        else:
            rows = len(request["X"])
        time.sleep(delay * rows)
        if batch in ("", "short"):
            ys = [json.loads(next(replies["predict"])).get("y") for _ in range(rows)]
            ys = ys[:-1] if batch == "short" else ys
            reply = json.dumps({"yb": packed(ys)} if binary else {"y": ys})
        else:
            reply = batch
    else:
        if op != "info":
            time.sleep(delay)
        reply = next(replies[op]) if op in replies else '{"error": "unknown op"}'
    sys.stdout.write(reply + "\n")
    sys.stdout.flush()
