#!/usr/bin/env python3
"""Time this checkout against another source tree, command by command.

    python scripts/compare_trees.py OTHER_SRC [KIND ...] [--rounds N] [--aa]

Starts two long-lived workers, one with this checkout's src/ and one with
OTHER_SRC (a directory holding an ``xmeter`` package, for example the src/ of
a clone of the parent commit) first on PYTHONPATH, so each worker's ``exec:``
children import the worker's tree. Both are pinned to the same CPU. Each
round sends every recorded benchmark command of the KINDs (default: all of
attr-eval, mi and example-eval, from perfbench/workloads.py, which this only
reads) to both workers, one after the other, the kinds alternating; which
side goes first swaps every round. One untimed command of each kind warms
each worker up first.

For each kind it prints each side's median command time, the median of the
per-command time ratios (this / other), in how many command pairs this tree
was faster, each side's minor page faults per command (its own and its
children's), and whether every report matched its recorded digest. For each
benchmark workload whose kinds all ran, it prints the mean of their medians
on each side, the figure the workload's ``cmd_ref_s_p50`` is built from
before its speed scaling (``tabular``: the mean of the ``mi`` and
``example-eval`` medians). For each command whose two reports differ, it
then prints the first JSON paths whose values differ, with both values. The
last line is the summary as one JSON object.

With --aa a third worker, a control, runs this checkout's src/ too, and
every command runs on it as well; the side that goes first rotates every
round. Each ratio printed (this / other) then has the harness's own A/A
ratio (this / control) beside it, the same figure for two copies of one
tree: a ratio is a change only where it lies outside the A/A spread.

Pairs of one command on one CPU, seconds apart, resolve changes of a few
percent that the benchmark's own medians, which move by up to ±5 % on
unchanged code, cannot. It adds to perfbench/run.py's pairs of whole runs
and does not replace them: it measures no set-up, tail or peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def serve() -> None:
    """Worker: run each argv read as a JSON line through ``xmeter.cli.main``
    and answer with its time, minor faults, exit code and stdout."""
    from xmeter.cli import main as xmeter

    def faults() -> int:
        return sum(resource.getrusage(who).ru_minflt
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    for line in sys.stdin:
        out = io.StringIO()
        before, start = faults(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = xmeter(json.loads(line))
            except SystemExit as exc:
                code = exc.code
        wall = time.perf_counter() - start
        reply = {"wall": wall, "faults": faults() - before, "code": code,
                 "report": out.getvalue()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


def value_diff(this: str, other: str) -> list[tuple[str, str, str]]:
    """The JSON paths at which two reports' values differ, in document order,
    each with this side's and the other side's value as JSON text, or
    ``absent`` where a side has no such key or list index. Text that is not
    JSON is compared whole, at ``$``."""
    def load(text):
        try:
            return json.loads(text)
        except ValueError:
            return text

    diffs, absent = [], object()

    def walk(path, a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in list(a) + [key for key in b if key not in a]:
                walk(f"{path}.{key}", a.get(key, absent), b.get(key, absent))
        elif isinstance(a, list) and isinstance(b, list):
            for i in range(max(len(a), len(b))):
                walk(f"{path}[{i}]", a[i] if i < len(a) else absent,
                     b[i] if i < len(b) else absent)
        else:  # leaves compare as JSON text, so 1 and 1.0 differ and NaN equals NaN
            a, b = ("absent" if v is absent else json.dumps(v) for v in (a, b))
            if a != b:
                diffs.append((path, a, b))

    walk("$", load(this), load(other))
    return diffs


def workload_medians(summary: dict, workloads: dict) -> dict:
    """For each workload (name -> kinds) whose kinds are all in ``summary``,
    the mean of their median command times on each side and its ratio, and
    the A/A ratio (this / control) where the kinds ran on a control."""
    means = {}
    for name, kinds in workloads.items():
        if all(kind in summary for kind in kinds):
            mean = {side: statistics.fmean(summary[kind][f"{side}_median_s"] for kind in kinds)
                    for side in ("this", "other", "control")
                    if all(f"{side}_median_s" in summary[kind] for kind in kinds)}
            means[name] = {"kinds": list(kinds), "this_mean_median_s": mean["this"],
                           "other_mean_median_s": mean["other"],
                           "ratio": mean["this"] / mean["other"]}
            if "control" in mean:
                means[name]["aa_ratio"] = mean["this"] / mean["control"]
    return means


def beside_aa(entry: dict, ratio: str, aa: str) -> str:
    """``entry[ratio]`` as printed, with ``entry[aa]`` beside it when there."""
    return f"{entry[ratio]:.4f}" + (f" (A/A {entry[aa]:.4f})" if aa in entry else "")


class Worker:
    def __init__(self, src: Path, cpu: int):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve"], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        os.sched_setaffinity(self.proc.pid, {cpu})

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other_src", type=Path)
    parser.add_argument("kinds", nargs="*", metavar="KIND")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--aa", action="store_true",
                        help="also run this tree on a control worker and print A/A ratios")
    args = parser.parse_args(argv)
    if not (args.other_src / "xmeter" / "__init__.py").is_file():
        parser.error(f"{args.other_src} holds no xmeter package")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    for kind in args.kinds:
        if kind not in workloads.KINDS:
            parser.error(f"unknown KIND {kind!r}; choose from {', '.join(workloads.KINDS)}")
    kinds = args.kinds or list(workloads.KINDS)

    python, refs = sys.executable, workloads.recorded()
    columns = [[(kind, workloads.command(kind, s, python)) for s in refs["seeds"][kind]]
               for kind in kinds]
    commands = [entry for row in zip(*columns) for entry in row]
    cpu = max(os.sched_getaffinity(0))
    sides = {"this": Worker(ROOT / "src", cpu), "other": Worker(args.other_src, cpu)}
    if args.aa:
        sides["control"] = Worker(ROOT / "src", cpu)
    stats = {kind: {side: {"wall": [], "faults": [], "matched": True} for side in sides}
             for kind in kinds}
    diffs = {}  # by command, the value diff of its first pair of unequal reports
    try:
        for kind in kinds:  # warm-up: imports and first-call set-up
            argv = next(a for k, a in commands if k == kind)
            for worker in sides.values():
                worker.run(argv)
        for r in range(args.rounds):
            order = list(sides)[r % len(sides):] + list(sides)[:r % len(sides)]
            for kind, argv in commands:
                reference = refs["reports"][kind][workloads.command_key(argv, python)]
                reports = {}
                for side in order:
                    reply = sides[side].run(argv)
                    entry = stats[kind][side]
                    entry["wall"].append(reply["wall"])
                    entry["faults"].append(reply["faults"])
                    entry["matched"] &= reply["code"] == 0 and \
                        workloads.report_digest(reply["report"], python) == reference
                    reports[side] = reply["report"]
                if reports["this"] != reports["other"]:
                    diffs.setdefault(" ".join(argv), value_diff(reports["this"],
                                                                reports["other"]))
    finally:
        for worker in sides.values():
            worker.close()

    summary = {}
    for kind, by_side in stats.items():
        this, other = by_side["this"], by_side["other"]
        ratios = [a / b for a, b in zip(this["wall"], other["wall"])]
        summary[kind] = {
            "commands": len(ratios),
            "this_median_s": statistics.median(this["wall"]),
            "other_median_s": statistics.median(other["wall"]),
            "median_ratio": statistics.median(ratios),
            "this_faster_in": sum(r < 1 for r in ratios),
            "this_faults_per_command": statistics.mean(this["faults"]),
            "other_faults_per_command": statistics.mean(other["faults"]),
            "this_digests_matched": this["matched"],
            "other_digests_matched": other["matched"],
        }
        s = summary[kind]
        if "control" in by_side:
            control = by_side["control"]
            s.update(control_median_s=statistics.median(control["wall"]),
                     aa_median_ratio=statistics.median(
                         a / b for a, b in zip(this["wall"], control["wall"])),
                     control_digests_matched=control["matched"])
        print(f"{kind}: {s['commands']} pairs; median {s['this_median_s']:.4f} s (this) "
              f"vs {s['other_median_s']:.4f} s (other); median ratio "
              f"{beside_aa(s, 'median_ratio', 'aa_median_ratio')}; "
              f"this faster in {s['this_faster_in']}/{s['commands']}; minor faults per command "
              f"{s['this_faults_per_command']:.0f} vs {s['other_faults_per_command']:.0f}; "
              f"digests matched: {s['this_digests_matched']} / {s['other_digests_matched']}")
    workload_summary = workload_medians(summary, workloads.WORKLOADS)
    for name, w in workload_summary.items():
        print(f"{name}: mean of the {' and '.join(w['kinds'])} medians "
              f"{w['this_mean_median_s']:.4f} s (this) vs {w['other_mean_median_s']:.4f} s "
              f"(other); ratio {beside_aa(w, 'ratio', 'aa_ratio')}")
    for command, paths in diffs.items():
        print(f"reports differ: {command}")
        for path, this_value, other_value in paths[:5]:
            print(f"  {path}: {this_value} (this) vs {other_value} (other)")
        if len(paths) > 5:
            print(f"  and {len(paths) - 5} more")
        if not paths:
            print("  the same values in other text")
    print(json.dumps({"cpu": cpu, "rounds": args.rounds, "other_src": str(args.other_src),
                      "kinds": summary, "workloads": workload_summary}))
    return 0 if all(s["this_digests_matched"] and s["other_digests_matched"]
                    and s.get("control_digests_matched", True) for s in summary.values()) else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        sys.exit(main())
