"""Protocol fixture with fixed replies, for the driver's fault handling.

    python scripted_server.py INFO PREDICT GRADIENT [DELAY [BATCH]]

Answers the handshake with the JSON text INFO. A predict_batch request gets
one entry per row, each the 'y' of the next PREDICT reply, and a gradient
request one entry per row, each the 'g' of the next GRADIENT reply; a reply
without that field (an error, say) is sent whole instead. For predictions, a
BATCH of "short" leaves out the last entry, and any other nonempty BATCH is
sent as the whole reply instead. Rows that come binary ('Xb', whose row count
follows from the arity in INFO) get the same entries, flattened, as 'yb' or
'gb': little-endian int64 for the predictions of a "label" INFO output, else
float64, base64-encoded. After the handshake the child sleeps DELAY seconds
per row before each reply. A reply may hold bare NaN tokens, which Python's
json reads. Each reply argument may hold several replies, one per line, sent
in turn and repeated.
"""

import base64
import itertools
import json
import struct
import sys
import time

replies = {op: itertools.cycle(text.splitlines())
           for op, text in zip(("info", "predict_batch", "gradient"), sys.argv[1:4])}
delay = float(sys.argv[4]) if len(sys.argv) > 4 else 0.0
batch = sys.argv[5] if len(sys.argv) > 5 else ""


def packed(ys, code):
    """The base64 text of the reply entries ``ys``, packed as struct ``code``."""
    values = list(itertools.chain.from_iterable(ys))
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode()


def answer(op, request):
    """The reply line to a predict_batch or gradient request."""
    info, binary = json.loads(sys.argv[1].splitlines()[0]), "Xb" in request
    rows = (len(base64.b64decode(request["Xb"])) // (8 * info["arity"]) if binary
            else len(request["X"]))
    time.sleep(delay * rows)
    if op == "predict_batch" and batch not in ("", "short"):
        return batch
    field = "y" if op == "predict_batch" else "g"
    ys = []
    for _ in range(rows):
        reply = json.loads(next(replies[op]))
        if field not in reply:
            return json.dumps(reply)
        ys.append(reply[field])
    ys = ys[:-1] if op == "predict_batch" and batch == "short" else ys
    if not binary:
        return json.dumps({field: ys})
    code = "q" if field == "y" and info["output"] == "label" else "d"
    return json.dumps({field + "b": packed(ys, code)})


for line in sys.stdin:
    request = json.loads(line)
    op = request.get("op")
    if op in ("predict_batch", "gradient") and ("X" in request or "Xb" in request):
        reply = answer(op, request)
    else:
        reply = next(replies[op]) if op == "info" else '{"error": "unknown op"}'
    sys.stdout.write(reply + "\n")
    sys.stdout.flush()
