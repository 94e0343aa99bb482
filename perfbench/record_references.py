"""Record the input seeds and report digests every benchmark run checks against.

Run from the checkout root on a commit whose reports are known to be right:

    python3 perfbench/record_references.py

For each command kind it walks input seeds 0, 1, 2, ... and runs each seed's
command once, keeping the seed and the digest of its report, until
``POOL * INPUTS_PER_ROUND`` seeds are kept; then it rewrites references.json.
One failure is by design and skips the seed, reported on stderr: on ``mi``,
a discretized representation without repeated values
leaves the mixed MI estimator undefined (exit 2). Any other failure stops the
recording with exit code 1 and leaves references.json as it was.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import call_cli  # noqa: E402

EXPECTED_MI_FAILURE = "exit code 2: error: mixed estimator needs repeated discrete values"


def main() -> int:
    # The exec: child of attr-exec inherits the path to the checkout's sources.
    os.environ.update(run.worker_env())
    sys.path.insert(0, str(run.ROOT / "src"))
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    cli = modules["xmeter.cli"]
    python = sys.executable

    seeds: dict[str, list[int]] = {}
    reports: dict[str, dict[str, str]] = {}
    needed = workloads.POOL * workloads.INPUTS_PER_ROUND
    for kind in workloads.KINDS:
        kept, table, candidate = seeds.setdefault(kind, []), reports.setdefault(kind, {}), 0
        while len(kept) < needed:
            if candidate >= 4 * needed:
                print(f"{kind}: too many failing input seeds", file=sys.stderr)
                return 1
            argv = workloads.command(kind, candidate, python)
            report, problem = call_cli(cli, argv)
            if problem is None:
                kept.append(candidate)
                table[workloads.command_key(argv, python)] = \
                    workloads.report_digest(report, python)
            elif kind == "mi" and problem == EXPECTED_MI_FAILURE:
                print(f"{kind}: skipping input seed {candidate}: {problem}",
                      file=sys.stderr)
            else:
                print(f"{kind}: input seed {candidate} failed: {problem}",
                      file=sys.stderr)
                return 1
            candidate += 1
        print(f"{kind}: kept {len(kept)} of {candidate} input seeds", file=sys.stderr)
    doc = {"seeds": seeds, "reports": reports}
    workloads.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
