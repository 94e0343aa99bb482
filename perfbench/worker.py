"""The workload process of one benchmark run.

run.py starts it with the checkout's src/ on PYTHONPATH; the checkout is the
parent of this directory. It builds the run's commands from the seed, sends
them to ``xmeter.cli.main`` in a closed loop (one command at a time, stdout
captured, the next only after the previous returned) in whole rounds over the
commands, after one untimed warm-up command of each kind, times a fixed
speed probe before every timed command, and checks each report's digest
against references.json and against earlier repetitions in the run. With
``--trace 1`` half the time runs
untraced, then one round of the commands runs traced, so that per-command
counts repeat exactly between runs of the same seed. The last stdout line is
one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy

import tracing
import workloads
from run import kind_median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_FAILURE_MESSAGES = 5
# cmd_s_tail is the highest sample with ten samples above it, or the maximum
# when there are ten or fewer; a run in a slow phase of the machine must not
# switch it from the one to the other.
MIN_COMMANDS = 11
PROBE_POINTS = numpy.random.default_rng(0).random((200, 4))


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def live_children() -> list[int]:
    """Processes whose parent is this one, running or not yet reaped."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children(pids: list[int]) -> None:
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def call_cli(cli, argv) -> tuple[str, str | None]:
    """Run one command in-process: (captured stdout, problem or None)."""
    out, err = io.StringIO(), io.StringIO()
    problem = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising command counts as failed; the loop goes on
        problem = f"raised {exc!r}"
    if problem is None and code != 0:
        problem = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return out.getvalue(), problem


class Runner:
    """Runs the commands of one run and checks every report."""

    def __init__(self, cli, commands, python: str):
        self.cli = cli
        self.kinds = [kind for kind, _ in commands]
        self.commands = [argv for _, argv in commands]
        self.python = python
        self.keys = [workloads.command_key(argv, python) for _, argv in commands]
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, index: int) -> tuple[float, float, float]:
        """One command; returns (wall s, CPU s with reaped children, child CPU s)."""
        cpu0, child0 = time.process_time(), children_cpu_s()
        start = time.perf_counter()
        report, problem = call_cli(self.cli, self.commands[index])
        wall = time.perf_counter() - start
        child_cpu = children_cpu_s() - child0
        cpu = time.process_time() - cpu0 + child_cpu
        self.attempted += 1

        leftover = live_children()
        if leftover:
            stop_children(leftover)
            problem = problem or f"left {len(leftover)} child process(es) running"
        if problem is None:
            problem = self._check_report(index, report)
        if problem is not None:
            self.failures.append(f"command {index}: {problem}")
        return wall, cpu, child_cpu

    def _check_report(self, index: int, report: str) -> str | None:
        key = self.keys[index]
        digest = workloads.report_digest(report, self.python)
        first = self.first_digest.setdefault(key, digest)
        if digest != first:
            return "report differs from an earlier repetition in this run"
        reference = workloads.recorded()["reports"][self.kinds[index]].get(key)
        if reference is None:
            return f"no stored reference for command key {key}"
        if digest != reference:
            return "report differs from the stored reference"
        return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (the checkout has no git metadata)"


def environment(seed: int) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def warm_up(runner: Runner) -> None:
    """Run the first command of each kind once, untimed, so that lazy imports
    and first-call set-up inside xmeter are done before timing starts. The
    commands are checked and counted like every other."""
    first = {}
    for index, kind in enumerate(runner.kinds):
        first.setdefault(kind, index)
    for index in first.values():
        runner.run(index)


def speed_probe() -> float:
    """Seconds for a fixed piece of work that runs no xmeter code: a
    pure-Python loop and small numpy array arithmetic, the two kinds of work
    the commands do. The machine's speed changes in phases of seconds to
    minutes; the ratio of a command's time to this one's does not."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total = (total + i * i) % 1_000_003
    for _ in range(25):
        numpy.sqrt(((PROBE_POINTS[:, None, :] - PROBE_POINTS[None, :, :]) ** 2).sum(-1))
    return time.perf_counter() - start


def closed_loop(runner: Runner, seconds: float) -> tuple[list[float], list[float], list[float]]:
    """Whole rounds over the run's commands, so that every input is timed
    equally often, each command just after a speed probe. Another round
    starts while fewer than MIN_COMMANDS were timed, or while at least half
    of one still fits in ``seconds``. Returns wall, CPU and probe seconds."""
    walls, cpus, probes = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for index in range(len(runner.commands)):
            probes.append(speed_probe())
            wall, cpu, _ = runner.run(index)
            walls.append(wall)
            cpus.append(cpu)
        rounds += 1
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_COMMANDS and elapsed + 0.5 * elapsed / rounds > seconds:
            return walls, cpus, probes


def traced_round(runner: Runner, modules: dict):
    """One round of the run's commands with the tracer installed, each just
    after a speed probe (which runs no traced code)."""
    tracer = tracing.Tracer()
    walls, probes, child_cpu = [], [], 0.0
    tracer.install(modules)
    try:
        for index in range(len(runner.commands)):
            tracer.command = index
            probes.append(speed_probe())
            wall, _, child = runner.run(index)
            walls.append(wall)
            child_cpu += child
    finally:
        tracer.restore()
    return tracer.spans, walls, probes, child_cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    xmeter_file = Path(modules["xmeter"].__file__).resolve()
    if src not in xmeter_file.parents:
        print(f"worker: imported xmeter from {xmeter_file}, not from {src}", file=sys.stderr)
        return 2

    python = sys.executable
    commands = workloads.argvs(args.workload, args.seed, python)
    runner = Runner(modules["xmeter.cli"], commands, python)

    result = {"environment": environment(args.seed), "layers": None}
    began = time.perf_counter()
    warm_up(runner)
    # Warming up is part of the run's time.
    seconds = args.seconds - (time.perf_counter() - began)
    if not args.trace:
        result["wall_s"], result["cpu_s"], result["probe_s"] = closed_loop(runner, seconds)
        result["kinds"] = runner.kinds * (len(result["wall_s"]) // len(runner.kinds))
    else:
        untraced, _, probes = closed_loop(runner, seconds / 2)
        spans, traced, traced_probes, child_cpu = traced_round(runner, modules)
        rounds = len(untraced) // len(runner.kinds)
        # Both medians at the machine speed of their own commands.
        base = kind_median(untraced, runner.kinds * rounds) / statistics.median(probes)
        with_trace = kind_median(traced, runner.kinds) / statistics.median(traced_probes)
        result["layers"] = tracing.layer_metrics(spans, len(traced), child_cpu,
                                                 with_trace / base - 1,
                                                 statistics.median(probes))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump = {"environment": result["environment"], "workload": args.workload,
                "commands": [[workloads.mask_python(a, python) for a in argv]
                             for argv in runner.commands],
                "span_fields": ["name", "start", "end", "parent", "command"],
                "spans": [span[:5] for span in spans]}
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        attempted=runner.attempted,
        failures=runner.failures[:MAX_FAILURE_MESSAGES],
        failed=len(runner.failures),
        peak_rss_mb=(usage_self + usage_children) / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
