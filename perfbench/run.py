"""xmeter benchmark: one run of one workload.

    python3 perfbench/run.py --workload attr-exec --seed 0 --seconds 20 --trace 0

Run from anywhere; the checkout under test is the parent of this directory.
The run pins itself, and so every process it starts, to one CPU. It times
fresh interpreters importing ``xmeter.cli`` (set-up) before
and after the workload process (worker.py), which sends the workload's CLI
commands in a closed loop, in whole rounds for about ``--seconds`` seconds,
and checks every report.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Command times are
reported as measured and, in the bounded metrics, scaled to a reference
machine speed with the worker's speed probe. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Set-up is probed before and after the workload, so that its median spans
# the run; one unmeasured start first compiles the bytecode.
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The median time of worker.speed_probe on the machine the benchmark was built
# on (2-core Xeon VM at 2.1 GHz). A run's cmd_ref_s_* are its command times
# times REFERENCE_PROBE_S / the run's median probe time: seconds at that speed.
REFERENCE_PROBE_S = 0.065
# Units of the metrics the run reports; BENCHMARK.json lists the same names.
END_TO_END_UNITS = {"setup_s": "s", "cmd_ref_s_p50": "s", "cmd_ref_s_tail": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with at least ten samples
    above it; with ten samples or fewer, the maximum at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def kind_median(values: list[float], kinds: list[str]) -> float:
    """The median of each kind of command's values, averaged over the kinds:
    with one kind, the median. A workload that alternates two kinds keeps a
    steady figure when one kind gets much faster than the other, where the
    median of the mixture would fall into the gap between the two."""
    by_kind: dict[str, list[float]] = {}
    for value, kind in zip(values, kinds, strict=True):
        by_kind.setdefault(kind, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU. The exec:
    model server and the command waiting on it take turns, so they never need
    two CPUs at once; on two CPUs each request wakes the other one, whose
    latency on a shared virtual machine changed command times by up to 2x."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def worker_env() -> dict:
    """The checkout's src/ first on the path; BLAS/OpenMP threads capped at
    the CPUs this process may use."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def setup_probes(env: dict, count: int) -> list[float]:
    """Wall times of fresh interpreters importing xmeter.cli."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import xmeter.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def run_worker(args, env: dict, timeout: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload process did not finish within {timeout:.0f} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    if not (ROOT / "src" / "xmeter" / "cli.py").is_file():
        print(f"perfbench: no xmeter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    pin_to_one_cpu()
    env = worker_env()
    probes = 0 if args.trace else SETUP_PROBES
    setup = setup_probes(env, probes + 1)[1:]
    try:
        result = run_worker(args, env, RUN_LIMIT_S - (time.monotonic() - began))
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup += setup_probes(env, probes)

    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} commands, {failed} failed")
    print(f"fail_frac {failed / attempted:.4g} ratio")
    for message in result["failures"]:
        print(f"failure: {message}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        p50 = kind_median(result["wall_s"], result["kinds"])
        value, percentile = tail(result["wall_s"])
        probe = statistics.median(result["probe_s"])
        scale = REFERENCE_PROBE_S / probe
        # Printed, not bounded: these move with the machine's speed phases.
        print(f"cmd_s_tail is p{percentile:.1f} of {len(result['wall_s'])} commands")
        print(f"cmd_s_p50 {p50:.6g} s")
        print(f"cmd_s_tail {value:.6g} s")
        print(f"cpu_s_p50 {kind_median(result['cpu_s'], result['kinds']):.6g} s")
        print(f"speed_probe_s {probe:.6g} s")
        values = {
            "setup_s": statistics.median(setup),
            "cmd_ref_s_p50": p50 * scale,
            "cmd_ref_s_tail": value * scale,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
