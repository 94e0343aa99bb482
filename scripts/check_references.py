#!/usr/bin/env python3
"""Replay the recorded benchmark inputs and compare each report with its digest.

    python scripts/check_references.py [KIND ...]

Runs every command recorded in perfbench/references.json (all kinds, or the
KINDs named: attr-eval, mi, example-eval) through ``xmeter.cli.main`` in this
process, with this checkout's src/ first on the path, and prints each kind's
command count and replay wall time. Exits 1 and names each command whose
report digest differs or that fails; exits 0 when all match. First it prints,
to stderr, what a report's last bits depend on beyond the code: the numpy and
scipy versions and numpy's active CPU dispatch targets (a digest that differs
on another CPU most likely comes from its dispatch, see README).
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

import numpy  # noqa: E402
import scipy  # noqa: E402
from numpy._core import _multiarray_umath  # noqa: E402
from workloads import KINDS, command, command_key, recorded, report_digest  # noqa: E402
from xmeter.cli import main as xmeter  # noqa: E402


def platform_line() -> str:
    """The numpy and scipy versions and numpy's active dispatch targets."""
    active = [target for target in _multiarray_umath.__cpu_dispatch__
              if _multiarray_umath.__cpu_features__.get(target)]
    return (f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"numpy dispatch targets active: {' '.join(active) or 'none'}")


def main(kinds) -> int:
    print(platform_line(), file=sys.stderr)
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
