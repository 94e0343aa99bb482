import os
import subprocess
import sys
from pathlib import Path

from xmeter import bench
from xmeter.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_python(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_attr_table_script_prints_the_cli_reports(capsys):
    result = run_python([str(ROOT / "scripts" / "run_attr_table.py"),
                         "--n-mc", "200", "--pt-n", "50"])
    assert result.returncode == 0, result.stderr
    # two pretty-printed JSON reports; the first ends at its closing brace
    cut = result.stdout.index("\n}\n") + 3
    data, model = bench.token_benchmark(0)
    x_star = data.features[bench.choose_explained_point(data, model)]
    assert main(["attr-eval", "--model", "tokens:seed=0", "--dataset", "tokens:seed=0",
                 "--methods", "saliency,inpxgrad,intgrad",
                 "--point", ",".join(map(repr, x_star.tolist())), "--epsilon", "0.02",
                 "--pt", "ec", "--pt-n", "50", "--n-mc", "200", "--seed", "0"]) == 0
    assert result.stdout[cut:] == capsys.readouterr().out


def test_model_server_import_loads_no_scipy():
    result = run_python(["-c", "import sys, xmeter.model_server; "
                               "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
