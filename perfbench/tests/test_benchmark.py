import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import tracing
import worker

BENCH = Path(run.__file__).resolve().parent


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = tracing.layer_metrics([], 1, 0.0, 0.0, 0.065)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in layers}
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_tail_is_the_highest_sample_with_ten_above_it():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_kind_median_averages_the_median_of_each_kind():
    assert run.kind_median([3.0, 1.0, 2.0], ["a"] * 3) == 2.0
    walls = [1.0, 10.0, 1.2, 11.0, 0.9, 12.0]
    assert run.kind_median(walls, ["mi", "ex"] * 3) == (1.0 + 11.0) / 2


def test_closed_loop_times_whole_rounds():
    class Runner:
        commands = [["a"], ["b"], ["c"]]

        def run(self, index):
            time.sleep(0.01)
            return 0.01, 0.01, 0.0

    walls, cpus, probes = worker.closed_loop(Runner(), 0.01)
    assert len(walls) == len(cpus) == len(probes)
    assert len(walls) >= worker.MIN_COMMANDS and len(walls) % 3 == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tabular", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
