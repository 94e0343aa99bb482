"""Protocol fixture with fixed replies, for the driver's fault handling.

    python scripted_server.py INFO PREDICT GRADIENT [DELAY [BATCH]]

Answers the handshake with the JSON text INFO, every predict with PREDICT and
every gradient with GRADIENT. A predict_batch gets one entry per row, each the
'y' of the next PREDICT reply; a BATCH of "short" leaves out the last entry,
and any other nonempty BATCH is sent as the whole reply instead. After the
handshake the child sleeps DELAY seconds per row before each reply (a
gradient is one row). A reply may hold bare NaN tokens, which Python's json
reads. Each reply argument may hold several replies, one per line, sent in
turn and repeated.
"""

import itertools
import json
import sys
import time

replies = {op: itertools.cycle(text.splitlines())
           for op, text in zip(("info", "predict", "gradient"), sys.argv[1:4])}
delay = float(sys.argv[4]) if len(sys.argv) > 4 else 0.0
batch = sys.argv[5] if len(sys.argv) > 5 else ""
for line in sys.stdin:
    request = json.loads(line)
    op = request.get("op")
    if op == "predict_batch":
        rows = len(request["X"])
        time.sleep(delay * rows)
        if batch in ("", "short"):
            ys = [json.loads(next(replies["predict"])).get("y") for _ in range(rows)]
            reply = json.dumps({"y": ys[:-1] if batch == "short" else ys})
        else:
            reply = batch
    else:
        if op != "info":
            time.sleep(delay)
        reply = next(replies[op]) if op in replies else '{"error": "unknown op"}'
    sys.stdout.write(reply + "\n")
    sys.stdout.flush()
