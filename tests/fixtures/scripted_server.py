"""Protocol fixture with fixed replies, for the driver's fault handling.

    python scripted_server.py INFO PREDICT GRADIENT [DELAY]

Answers the handshake with the JSON text INFO, every predict with PREDICT and
every gradient with GRADIENT, sleeping DELAY seconds before each reply after
the handshake. A reply may hold bare NaN tokens, which Python's json reads.
Each reply argument may hold several replies, one per line, sent in turn and
repeated.
"""

import itertools
import json
import sys
import time

replies = {op: itertools.cycle(text.splitlines())
           for op, text in zip(("info", "predict", "gradient"), sys.argv[1:4])}
delay = float(sys.argv[4]) if len(sys.argv) > 4 else 0.0
for line in sys.stdin:
    op = json.loads(line).get("op")
    if op != "info":
        time.sleep(delay)
    reply = next(replies[op]) if op in replies else '{"error": "unknown op"}'
    sys.stdout.write(reply + "\n")
    sys.stdout.flush()
