#!/usr/bin/env python3
"""Replay the recorded benchmark inputs and compare each report with its digest.

    python scripts/check_references.py [KIND ...]

Runs every command recorded in perfbench/references.json (all kinds, or the
KINDs named: attr-eval, mi, example-eval) through ``xmeter.cli.main`` in this
process, with this checkout's src/ first on the path, and prints each kind's
command count and replay wall time. Exits 1 and names each command whose
report digest differs or that fails; exits 0 when all match.
"""

import contextlib
import io
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)  # for exec: children

from workloads import KINDS, command, command_key, recorded, report_digest  # noqa: E402
from xmeter.cli import main as xmeter  # noqa: E402


def main(kinds) -> int:
    python, refs, mismatches = sys.executable, recorded(), 0
    for kind in kinds or KINDS:
        start = time.perf_counter()
        for seed in refs["seeds"][kind]:
            argv = command(kind, seed, python)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = xmeter(argv)
            if code or report_digest(out.getvalue(), python) != \
                    refs["reports"][kind][command_key(argv, python)]:
                mismatches += 1
                print(f"mismatch ({kind}, input seed {seed}, exit {code}): {argv}")
        print(f"{kind}: {len(refs['seeds'][kind])} commands checked in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
