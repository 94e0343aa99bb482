import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy._core import _multiarray_umath

from xmeter.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_python(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def load_perfbench(name, folder="perfbench"):
    """The benchmark's module ``perfbench/NAME.py``, or ``FOLDER/NAME.py``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracing.py wraps xmeter functions and methods by name; a rename
    # would otherwise break only the traced benchmark run
    tracing = load_tracing()
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    originals = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        assert len(patched) >= len(tracing.SPANS)
    finally:
        tracer.restore()
    assert {name: dict(vars(module)) for name, module in modules.items()} == originals
    for owner, attr in patched:
        assert not hasattr(vars(owner)[attr], "__wrapped__"), (owner, attr)


def test_benchmark_tracer_reads_the_attribution_layers(capsys):
    # the tracer's annotations read the arguments and results of
    # restriction_loss_vector and effective_complexity_detail; a signature
    # change would otherwise break only the traced benchmark run
    tracing = load_tracing()
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    tracer = tracing.Tracer()
    tracer.install(modules)
    tracer.command = 0
    try:
        code = modules["xmeter.cli"].main(["attr-eval", "--model", "park",
                                           "--point", "0.24,0.48,0.56,0.99,0.68,0.86",
                                           "--n-mc", "100"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    layers = tracing.layer_metrics(tracer.spans, 1, 0.0, 0.0, 0.065)
    assert layers["attr_metrics.restriction_loss_vector.calls"] == 1
    assert layers["attr_metrics.restriction_loss_vector.useful_ratio"] == 1.0
    assert layers["attr_metrics.effective_complexity.prefixes"] > 0


@pytest.mark.parametrize("kind", ["attr-eval", "mi", "example-eval"])
def test_first_recorded_benchmark_input_reproduces_its_report(kind, monkeypatch, capsys):
    # every command recorded in perfbench/references.json, compared by
    # digest as scripts/check_references.py compares them
    workloads = load_perfbench("workloads")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(  # for the exec: child
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    python, refs = sys.executable, workloads.recorded()
    for seed in refs["seeds"][kind]:
        argv = workloads.command(kind, seed, python)
        assert main(argv) == 0, argv
        assert workloads.report_digest(capsys.readouterr().out, python) == \
            refs["reports"][kind][workloads.command_key(argv, python)], argv


# numpy's AVX-512 dispatch targets that are active on this CPU; their float64
# np.exp differs from the AVX2 and baseline kernels in the last bit
AVX512_TARGETS = [target for target in _multiarray_umath.__cpu_dispatch__
                  if (target.startswith("AVX512") or target == "X86_V4")
                  and _multiarray_umath.__cpu_features__.get(target)]
# name -> (kind, input seed) of recorded benchmark commands; attr-eval runs park
# in process at the point the benchmark builds for the seed
DISPATCH_COMMANDS = {"mi-0": ("mi", 0), "mi-1": ("mi", 1),
                     "example-eval-0": ("example-eval", 0), "example-eval-1": ("example-eval", 1),
                     "attr-eval-0": ("attr-eval", 0), "attr-eval-3": ("attr-eval", 3),
                     "attr-eval-20": ("attr-eval", 20)}
# np.exp(x0 + x1) in park moves one e_vector entry by an ulp at these seeds
EXP_ULP_SEEDS = {"attr-eval-3", "attr-eval-20"}
# every DISPATCH_COMMANDS report, built in one child process
DISPATCH_CHILD = """
import contextlib, io, json, sys
from xmeter.cli import main
reports = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    reports[name] = out.getvalue() if code == 0 else f"exit {code}"
print(json.dumps(reports))
"""


def dispatch_argv(name: str) -> list:
    kind, seed = DISPATCH_COMMANDS[name]
    argv = load_perfbench("workloads").command(kind, seed, sys.executable)
    if kind == "attr-eval":
        argv[argv.index("--model") + 1] = "park"
    return argv


@pytest.fixture(scope="module")
def reports_without_avx512():
    """The DISPATCH_COMMANDS reports of a child whose numpy runs without the
    AVX-512 dispatch targets. On a CPU without them the child runs numpy's
    default dispatch, so the comparison is of like with like."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    argvs = json.dumps({name: dispatch_argv(name) for name in DISPATCH_COMMANDS})
    result = subprocess.run([sys.executable, "-c", DISPATCH_CHILD, argvs], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        name in EXP_ULP_SEEDS and bool(AVX512_TARGETS), strict=True,
        reason="ROADMAP item 17: park's np.exp differs by an ulp without AVX-512"))
    for name in DISPATCH_COMMANDS])
def test_reports_keep_their_bytes_without_avx512(name, reports_without_avx512, capsys):
    assert main(dispatch_argv(name)) == 0
    assert reports_without_avx512[name] == capsys.readouterr().out


def test_check_references_names_the_numpy_build_it_ran_on():
    # a digest that differs on another CPU is read beside numpy's versions
    # and its active dispatch targets
    result = run_python([str(ROOT / "scripts" / "check_references.py"), "example-eval"])
    assert result.returncode == 0, result.stdout + result.stderr
    active = [target for target in _multiarray_umath.__cpu_dispatch__
              if _multiarray_umath.__cpu_features__.get(target)]
    assert result.stderr.splitlines()[0] == (
        f"numpy {np.__version__}, scipy {scipy.__version__}, "
        f"numpy dispatch targets active: {' '.join(active) or 'none'}")
    commands = len(load_perfbench("workloads").recorded()["seeds"]["example-eval"])
    assert result.stderr.splitlines()[1].startswith(f"example-eval: {commands} commands checked")


@pytest.mark.parametrize("module", ["xmeter.model_server", "xmeter.cli"])
def test_import_loads_no_scipy(module):
    # only the mi command needs scipy; the model server and the other
    # commands start without it
    result = run_python(["-c", f"import sys, {module}; "
                               "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_model_server_imports_only_its_model():
    # the exec: child serves park, so it starts without bench's tree,
    # generator and token-benchmark code, without core's datasets, losses and
    # sampling, without scipy, and without the driver's transport
    result = run_python(["-c", "import sys, xmeter.model_server; "
                               "print(sorted(m for m in sys.modules "
                               "if m in ('xmeter.bench', 'xmeter.core', 'subprocess', 'queue') "
                               "or m.startswith('scipy')))"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_compare_trees_pairs_every_recorded_command():
    # this checkout against itself: every example-eval command once per side,
    # each report checked against its recorded digest
    result = run_python([str(ROOT / "scripts" / "compare_trees.py"), SRC, "example-eval",
                         "--rounds", "1"])
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])["kinds"]
    assert list(summary) == ["example-eval"]
    entry = summary["example-eval"]
    assert entry["commands"] == len(load_perfbench("workloads").recorded()["seeds"]
                                    ["example-eval"])
    assert entry["this_digests_matched"] and entry["other_digests_matched"]
    assert 0 <= entry["this_faster_in"] <= entry["commands"]
    assert result.stdout.startswith(f"example-eval: {entry['commands']} pairs; median ")
    # no workload has all its kinds here, so no workload figure is printed
    assert json.loads(result.stdout.splitlines()[-1])["workloads"] == {}


def test_compare_trees_prints_the_harness_ratio_beside_each_ratio():
    # --aa: this checkout on a control worker too, so each kind's ratio has
    # the A/A ratio of two copies of one tree beside it
    result = run_python([str(ROOT / "scripts" / "compare_trees.py"), SRC, "example-eval",
                         "--rounds", "1", "--aa"])
    assert result.returncode == 0, result.stderr
    entry = json.loads(result.stdout.splitlines()[-1])["kinds"]["example-eval"]
    assert entry["control_digests_matched"] and entry["aa_median_ratio"] > 0
    assert f"median ratio {entry['median_ratio']:.4f} (A/A {entry['aa_median_ratio']:.4f});" \
        in result.stdout.splitlines()[0]
    workload_medians = load_perfbench("compare_trees", "scripts").workload_medians
    summary = {"mi": {"this_median_s": 0.06, "other_median_s": 0.09, "control_median_s": 0.05},
               "example-eval": {"this_median_s": 0.05, "other_median_s": 0.05,
                                "control_median_s": 0.05}}
    means = workload_medians(summary, load_perfbench("workloads").WORKLOADS)
    assert means["tabular"]["aa_ratio"] == pytest.approx(0.055 / 0.05)


def test_compare_trees_averages_each_workloads_medians():
    # tabular's cmd_ref_s_p50 is the mean of its kinds' medians, scaled
    workload_medians = load_perfbench("compare_trees", "scripts").workload_medians
    summary = {"mi": {"this_median_s": 0.06, "other_median_s": 0.09},
               "example-eval": {"this_median_s": 0.05, "other_median_s": 0.05}}
    means = workload_medians(summary, load_perfbench("workloads").WORKLOADS)
    assert list(means) == ["tabular"]  # attr-exec's attr-eval did not run
    assert means["tabular"]["kinds"] == ["mi", "example-eval"]
    assert means["tabular"]["this_mean_median_s"] == pytest.approx(0.055)
    assert means["tabular"]["other_mean_median_s"] == pytest.approx(0.07)
    assert means["tabular"]["ratio"] == pytest.approx(0.055 / 0.07)


def test_compare_trees_names_the_values_that_differ():
    value_diff = load_perfbench("compare_trees", "scripts").value_diff
    this = json.dumps({"config": {"n": 6, "seed": 1}, "rows": [{"d": 0.1}, {"d": 2.0}],
                       "same": [1.0, None]})
    other = json.dumps({"config": {"n": 6, "sweep": "2,4"},
                        "rows": [{"d": 0.30000000000000004}], "same": [1.0, None]})
    assert value_diff(this, other) == [
        ("$.config.seed", "1", "absent"),  # a removed key
        ("$.config.sweep", "absent", '"2,4"'),  # an added key
        ("$.rows[0].d", "0.1", "0.30000000000000004"),  # a changed float
        ("$.rows[1]", '{"d": 2.0}', "absent"),  # a shorter list
    ]
    assert value_diff(this, this) == []
    assert value_diff("usage: xmeter", this)[0][0] == "$"


@pytest.mark.parametrize("args", [["src-that-is-not-there"], [SRC, "no-such-kind"],
                                  [SRC, "mi", "--rounds", "0"]])
def test_compare_trees_refuses_bad_arguments(args):
    result = run_python([str(ROOT / "scripts" / "compare_trees.py")] + args)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
