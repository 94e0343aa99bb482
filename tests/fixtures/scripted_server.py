"""Protocol fixture with fixed replies, for the driver's fault handling.

    python scripted_server.py INFO PREDICT GRADIENT [DELAY]

Answers the handshake with the JSON text INFO, every predict with PREDICT and
every gradient with GRADIENT, sleeping DELAY seconds before each reply after
the handshake. A reply may hold bare NaN tokens, which Python's json reads.
"""

import json
import sys
import time

replies = dict(zip(("info", "predict", "gradient"), sys.argv[1:4]))
delay = float(sys.argv[4]) if len(sys.argv) > 4 else 0.0
for line in sys.stdin:
    op = json.loads(line).get("op")
    if op != "info":
        time.sleep(delay)
    sys.stdout.write(replies.get(op, '{"error": "unknown op"}') + "\n")
    sys.stdout.flush()
