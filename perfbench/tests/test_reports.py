"""Tracing must not change what the program reports."""

import importlib

import pytest

import tracing
from worker import call_cli

COMMANDS = [
    ["attr-eval", "--model", "park", "--point", "0.25,0.5,0.5,0.9,0.6,0.8", "--n-mc", "200",
     "--seed", "3"],
    ["mi", "--dataset", "synth:n=120,features=3,classes=2,seed=1", "--model", "tree:3",
     "--runs", "2", "--seed", "1"],
    ["example-eval", "--dataset", "synth:n=90,features=2,classes=3,seed=2", "--model", "tree:3",
     "--sweep", "2,3"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_traced_command_reports_the_same_bytes(argv):
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    cli = modules["xmeter.cli"]
    plain, problem = call_cli(cli, argv)
    assert problem is None
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        traced, problem = call_cli(cli, argv)
    finally:
        tracer.restore()
    assert problem is None
    assert tracer.spans
    assert traced == plain
