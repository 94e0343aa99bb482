"""The argv lists each workload sends to ``xmeter.cli.main``, derived from the seed.

A workload sends commands of one or more kinds, each kind one CLI subcommand
with fixed options. Each kind has ``POOL * INPUTS_PER_ROUND`` recorded input
seeds, stored in references.json with the digest of each command's report. A
run's seed picks input set ``seed % POOL``: for every kind of the workload,
``INPUTS_PER_ROUND`` consecutive recorded seeds. One round of the closed loop
sends the commands of that set, the kinds alternating. Recording skips an
input seed only where its command fails by design (see record_references.py),
so every command a run sends is expected to succeed with the recorded report.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import shlex
from pathlib import Path

# Workload -> the kinds of command it sends.
WORKLOADS = {"attr-exec": ("attr-eval",), "tabular": ("mi", "example-eval")}
KINDS = ("attr-eval", "mi", "example-eval")
POOL = 8
INPUTS_PER_ROUND = 4
REFERENCES = Path(__file__).resolve().parent / "references.json"

PARK_POINT = (0.24, 0.48, 0.56, 0.99, 0.68, 0.86)  # xmeter.bench.PARK_POINT
PARK_JITTER = 0.02
# At 300 Monte Carlo rows, protocol round trips take about two thirds of a
# command and the exec: child's start and handshake about a third.
ATTR_EXEC_N_MC = 300
MI_RUNS = 2
EXAMPLE_SPEC = "synth:n=1500,features=4,classes=3,sep=3.0,seed={seed}"
EXAMPLE_SWEEP = "2,4"

PYTHON_PLACEHOLDER = "<python>"


def exec_model_spec(python: str) -> str:
    return f"exec:{shlex.quote(python)} -m xmeter.model_server --model park"


@functools.cache
def recorded() -> dict:
    """references.json: the recorded input seeds and report digests, by kind."""
    return json.loads(REFERENCES.read_text())


def _park_point(sub_seed: int) -> str:
    rng = random.Random(f"attr-exec/{sub_seed}")
    return ",".join(repr(round(c + rng.uniform(-PARK_JITTER, PARK_JITTER), 4))
                    for c in PARK_POINT)


def command(kind: str, s: int, python: str) -> list[str]:
    """The command of ``kind`` for input seed ``s``."""
    if kind == "attr-eval":
        return ["attr-eval", "--model", exec_model_spec(python),
                "--methods", "saliency,inpxgrad,intgrad,random",
                "--point", _park_point(s), "--uniform", "0,1",
                "--n-mc", str(ATTR_EXEC_N_MC), "--seed", str(s)]
    if kind == "mi":
        return ["mi", "--dataset", f"synth:preset=mi,seed={s}", "--model", "tree:5",
                "--runs", str(MI_RUNS), "--seed", str(s)]
    if kind == "example-eval":
        return ["example-eval", "--dataset", EXAMPLE_SPEC.format(seed=s),
                "--model", "tree:6", "--sweep", EXAMPLE_SWEEP, "--seed", str(s)]
    raise ValueError(f"unknown command kind {kind!r}")


def argvs(workload: str, seed: int, python: str) -> list[tuple[str, list[str]]]:
    """One round of a run: (kind, argv) for input set ``seed % POOL``."""
    first = (seed % POOL) * INPUTS_PER_ROUND
    columns = [[(kind, command(kind, s, python))
                for s in recorded()["seeds"][kind][first:first + INPUTS_PER_ROUND]]
               for kind in WORKLOADS[workload]]
    return [entry for row in zip(*columns) for entry in row]


def mask_python(text: str, python: str) -> str:
    """Replace the interpreter path, which differs between machines, in an
    argument or in a report (where it appears JSON-encoded)."""
    quoted = shlex.quote(python)
    text = text.replace(json.dumps(quoted)[1:-1], PYTHON_PLACEHOLDER)
    return text.replace(quoted, PYTHON_PLACEHOLDER)


def command_key(argv: list[str], python: str) -> str:
    """Machine-independent key of a command in references.json."""
    canonical = json.dumps([mask_python(a, python) for a in argv])
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def report_digest(report: str, python: str) -> str:
    return hashlib.sha256(mask_python(report, python).encode()).hexdigest()
